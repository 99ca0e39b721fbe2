package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"

	"ristretto/internal/experiments"
)

// size fixes how big each workload is. "full" is the benchmark; "tiny" runs
// the same code paths and output checks in seconds, for the smoke tests.
type size struct {
	name string

	sweepScale int
	sweepNets  []string // nil = all six networks

	fleetScale int
	fleetNets  []string

	serve      serveMix
	openRate   float64 // serve open-loop rate in requests/s, frozen at about half the seed commit's capacity
	closedRate float64 // serve capacity at the seed commit, used only to size the closed-loop phase
}

var sizes = map[string]size{
	"full": {
		name:       "full",
		sweepScale: 4,
		fleetScale: 4,
		fleetNets:  []string{"AlexNet", "ResNet-18"},
		serve:      loadDefaultMix,
		openRate:   22,
		closedRate: 44,
	},
	"tiny": {
		name:       "tiny",
		sweepScale: 16,
		sweepNets:  []string{"AlexNet"},
		fleetScale: 16,
		fleetNets:  []string{"AlexNet"},
		serve:      serveMix{net: "AlexNet", layer: "conv1", precision: "4b", scale: 64, simKeys: 3, modelKeys: 2},
		openRate:   200,
		closedRate: 200,
	},
}

// refSet is the reference rendering of one sweep: a sha256 of the whole
// rendered output (what ristretto-bench -q prints) and of each result.
type refSet struct {
	Output  string            `json:"output"`
	Results map[string]string `json:"results"`
}

// serveRef is the reference output of the serve traffic of one size,
// keyed by operand seed: the cycles of each /v1/sim body and a sha256 of
// each normalized /v1/model response.
type serveRef struct {
	Sim   map[string]int64  `json:"sim"`
	Model map[string]string `json:"model"`
}

// refFile holds a refSet per workload, size and shipped seed, and the
// serve references per size. Regenerate it with --mkref only for a
// deliberate golden change.
type refFile struct {
	Schema string                       `json:"schema"`
	Sweep  map[string]map[string]refSet `json:"sweep"` // size → seed → set
	Fleet  map[string]map[string]refSet `json:"fleet"` // in-process shared-Bench run of the fleet subset
	Serve  map[string]serveRef          `json:"serve"` // size → references
}

//go:embed refs.json
var refsJSON []byte

// refs parses the embedded references once.
var refs = sync.OnceValues(func() (refFile, error) {
	var f refFile
	if err := json.Unmarshal(refsJSON, &f); err != nil {
		return refFile{}, fmt.Errorf("refs.json: %w", err)
	}
	return f, nil
})

// loadRef returns the reference for one workload, size and bench seed.
func loadRef(workload, sizeName string, seed int64) (refSet, error) {
	f, err := refs()
	if err != nil {
		return refSet{}, err
	}
	byWorkload := map[string]map[string]map[string]refSet{"sweep": f.Sweep, "fleet": f.Fleet}
	r, ok := byWorkload[workload][sizeName][strconv.FormatInt(seed, 10)]
	if !ok {
		return refSet{}, fmt.Errorf("refs.json has no %s/%s reference for seed %d", workload, sizeName, seed)
	}
	return r, nil
}

// loadServeRef returns the serve references of one size.
func loadServeRef(sizeName string) (serveRef, error) {
	f, err := refs()
	if err != nil {
		return serveRef{}, err
	}
	r, ok := f.Serve[sizeName]
	if !ok {
		return serveRef{}, fmt.Errorf("refs.json has no serve/%s references", sizeName)
	}
	return r, nil
}

// resultKey names a result by paper-order position and ID.
func resultKey(i int, r *experiments.Result) string { return fmt.Sprintf("%02d %s", i, r.ID) }

// render returns the reference rendering of a result list.
func render(rs []*experiments.Result) refSet {
	set := refSet{Results: map[string]string{}}
	whole := sha256.New()
	for i, r := range rs {
		s := r.String() + "\n"
		io.WriteString(whole, s)
		set.Results[resultKey(i, r)] = digest([]byte(s))
	}
	set.Output = hex.EncodeToString(whole.Sum(nil))
	return set
}

// check compares a rendered result list against its reference. Each
// reference result is one attempted operation; a missing, extra, failed or
// differing result is a failure.
func check(what string, got, want refSet, t *tally) {
	t.add(len(want.Results))
	before := t.failed
	for k, h := range want.Results {
		if got.Results[k] != h {
			t.fail("%s: result %q differs from the reference", what, k)
		}
	}
	for k := range got.Results {
		if _, ok := want.Results[k]; !ok {
			t.fail("%s: unexpected result %q", what, k)
		}
	}
	if got.Output != want.Output && t.failed == before {
		t.fail("%s: rendered output differs from the reference", what)
	}
}

// failedResults counts results that carry an error.
func failedResults(what string, rs []*experiments.Result, t *tally) {
	for _, r := range rs {
		if r.Err != nil {
			t.fail("%s: %s: %v", what, r.ID, r.Err)
		}
	}
}

// newBench returns a fresh, cold Bench of one configuration, fanning out
// over nproc workers.
func newBench(seed int64, scale int, nets []string) *experiments.Bench {
	b := experiments.NewQuickBench(seed, scale)
	b.Nets = nets
	b.Workers = nproc()
	return b
}

// sharedBenchRun runs the sweep of one configuration in process on one
// shared Bench — the reference a distributed run must match byte for byte.
func sharedBenchRun(seed int64, scale int, nets []string) ([]*experiments.Result, experiments.RunReport, error) {
	return newBench(seed, scale, nets).AllChecked(experiments.RunOptions{})
}

// writeRefs regenerates the reference outputs of every size and shipped
// seed.
func writeRefs(path string, log io.Writer) error {
	f := refFile{Schema: "perfbench.refs/v2", Sweep: map[string]map[string]refSet{}, Fleet: map[string]map[string]refSet{}, Serve: map[string]serveRef{}}
	for _, name := range []string{"full", "tiny"} {
		sz := sizes[name]
		f.Sweep[name] = map[string]refSet{}
		f.Fleet[name] = map[string]refSet{}
		for _, seed := range shippedSeeds {
			for _, w := range []struct {
				into  map[string]refSet
				scale int
				nets  []string
			}{{f.Sweep[name], sz.sweepScale, sz.sweepNets}, {f.Fleet[name], sz.fleetScale, sz.fleetNets}} {
				rs, _, err := sharedBenchRun(seed, w.scale, w.nets)
				if err != nil {
					return fmt.Errorf("reference run seed %d: %w", seed, err)
				}
				var t tally
				if failedResults("reference", rs, &t); t.failed > 0 {
					return fmt.Errorf("reference run seed %d: %s", seed, t.notes[0])
				}
				w.into[strconv.FormatInt(seed, 10)] = render(rs)
			}
			fmt.Fprintf(log, "references: %s seed %d done\n", name, seed)
		}
		r, err := serveRefs(sz.serve)
		if err != nil {
			return err
		}
		f.Serve[name] = r
		fmt.Fprintf(log, "references: %s serve done\n", name)
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// serveRefs computes the serve references of a mix for every operand seed
// a shipped seed can send: sim cycles by direct replay, model responses
// from a fresh daemon.
func serveRefs(mix serveMix) (serveRef, error) {
	r := serveRef{Sim: map[string]int64{}, Model: map[string]string{}}
	last := slices.Max(shippedSeeds)
	for s := slices.Min(shippedSeeds); s < last+int64(mix.simKeys); s++ {
		cycles, _ := replaySim(nil, 0, mix, s)
		r.Sim[strconv.FormatInt(s, 10)] = cycles
	}
	d, err := startDaemon(nil, nil)
	if err != nil {
		return r, err
	}
	defer d.stop()
	for s := slices.Min(shippedSeeds); s < last+int64(mix.modelKeys); s++ {
		status, body, err := d.post("/v1/model", modelBody(mix, s), nil)
		if err != nil || status != http.StatusOK {
			return r, fmt.Errorf("reference /v1/model seed %d: status %d: %v %s", s, status, err, body)
		}
		n, err := normalizeModel(body)
		if err != nil {
			return r, err
		}
		r.Model[strconv.FormatInt(s, 10)] = digest(n)
	}
	return r, nil
}

// digest is the hex sha256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
