// Command perfbench is the repository benchmark. It runs one named workload
// (sweep, serve or fleet) for a given seed, checks the program's outputs and
// prints its metrics: every end-to-end metric in an untraced run, every
// per-layer metric in a traced one. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 22, "failed": 0, "metrics": {"wall_s": {"value": 37.2, "unit": "s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// The benchmark drives the program from outside, through the public
// functions of its packages, and records spans only in its own files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations of a run. A failure is a cell
// with an error, a failed output check, a non-200 response, a transport
// error, a timeout or a request the generator could not send.
type tally struct {
	attempted, failed int
	notes             []string // first few failure descriptions, for stderr
}

func (t *tally) add(n int) { t.attempted += n }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// env is what every workload needs from the command line.
type env struct {
	workload string
	seed     int64 // the --seed argument
	seconds  float64
	size     size
	workdir  string // scratch space inside the checkout, removed on exit
	trace    *tracer
	out      io.Writer // human-readable report lines
}

// benchSeed maps the workload seed onto the shipped sweep seeds, whose
// rendered outputs have committed reference digests (refs.json).
func (e *env) benchSeed() int64 { return shippedSeeds[uint64(e.seed)%uint64(len(shippedSeeds))] }

// shippedSeeds are the Bench seeds refs.json holds reference digests for.
var shippedSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: sweep, serve or fleet")
	seed := fs.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := fs.Float64("seconds", 15, "measurement budget of one run in seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	sizeName := fs.String("size", "full", "workload size: full, or tiny for a smoke run")
	workdir := fs.String("workdir", ".bench_build", "scratch directory inside the checkout")
	mkref := fs.String("mkref", "", "regenerate the reference digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mkref != "" {
		return writeRefs(*mkref, stdout)
	}
	sz, ok := sizes[*sizeName]
	if !ok {
		return fmt.Errorf("unknown --size %q (want full or tiny)", *sizeName)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{workload: *workload, seed: *seed, seconds: *seconds, size: sz, workdir: dir, out: stdout}
	var res result
	var t tally
	if *traced == 1 {
		e.trace = newTracer()
		res.Metrics, t, err = profile(e)
	} else {
		res.Metrics, t, err = runWorkload(e)
	}
	if err != nil {
		return err
	}
	if t.attempted < 1 {
		return errors.New("no operation attempted")
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", n)
	}
	if e.trace != nil {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", *workdir, *workload, *seed)
		if err := e.trace.write(path); err != nil {
			return err
		}
		e.trace.table(stdout, res.Metrics)
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		printMetrics(stdout, res.Metrics)
	}
	res.Correct = t.failed == 0
	res.Attempted, res.Failed = t.attempted, t.failed
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*env) (map[string]metric, tally, error){
	"sweep": runSweep,
	"serve": runServe,
	"fleet": runFleet,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, ms map[string]metric) {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// nproc is the load's worker-thread and connection budget.
func nproc() int { return runtime.NumCPU() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
