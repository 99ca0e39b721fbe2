package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ristretto/internal/experiments"
	"ristretto/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 100}, {0.95, 190}, {0.01, 2}, {1, 200}} {
		got, err := percentile(xs, c.q, 0)
		if err != nil || got != c.want {
			t.Errorf("p%v = %v, %v; want %v", 100*c.q, got, err, c.want)
		}
	}
	if xs[0] != 200 {
		t.Errorf("percentile reordered its input")
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	if _, err := percentile(xs, 0.95, 10); err != nil {
		t.Errorf("200 samples leave 10 beyond p95: %v", err)
	}
	if _, err := percentile(xs[:199], 0.95, 10); err == nil {
		t.Errorf("199 samples leave 9 beyond p95, want an error")
	}
	if _, err := percentile(xs[:22], 0.95, 1); err != nil {
		t.Errorf("22 cells leave 1 beyond p95: %v", err)
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Errorf("no samples: want an error")
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(300, 12, 1.2)
	sum := 0
	for r, n := range c {
		sum += n
		if r > 0 && n > c[r-1] {
			t.Errorf("rank %d drawn %d times, more than rank %d", r, n, r-1)
		}
	}
	if sum != 300 || c[0] < 80 {
		t.Errorf("counts %v", c)
	}
	seen := make([]int, len(c))
	for _, r := range zipfSequence(300, 12, 1.2) {
		seen[r]++
	}
	for r := range c {
		if seen[r] != c[r] {
			t.Errorf("sequence has rank %d %d times, want %d", r, seen[r], c[r])
		}
	}
}

// TestCheckCatchesChangedOutput: the reference check counts every result
// and fails a changed, missing or extra one.
func TestCheckCatchesChangedOutput(t *testing.T) {
	rs := []*experiments.Result{
		{ID: "Figure 1", Header: []string{"a"}, Rows: [][]string{{"1"}}},
		{ID: "Figure 2", Header: []string{"b"}, Rows: [][]string{{"2"}}},
	}
	want := render(rs)
	var ok tally
	check("same", render(rs), want, &ok)
	if ok.attempted != 2 || ok.failed != 0 {
		t.Fatalf("identical output: %+v", ok)
	}
	rs[1].Rows[0][0] = "3"
	var changed tally
	check("changed", render(rs), want, &changed)
	if changed.failed != 1 {
		t.Errorf("one changed result: %d failures", changed.failed)
	}
	var short tally
	check("short", render(rs[:1]), want, &short)
	if short.failed != 1 {
		t.Errorf("one missing result: %d failures", short.failed)
	}
}

// TestServeCheckUsesReference: a sim is checked against the committed
// cycles of its operand seed, a model hit against its warm-up response.
func TestServeCheckUsesReference(t *testing.T) {
	e := &env{seed: 9, size: sizes["tiny"]} // seed 9 maps onto shipped seed 2
	sim, _ := json.Marshal(server.SimResponse{Cycles: 500, Engine: "core-sim"})
	model := []byte(`{"net":"AlexNet","cycles":7,"elapsed_ms":3}`)
	warm, err := normalizeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{warm: map[int][]byte{1: warm}}
	calls := []call{{kind: "sim", key: 1}, {kind: "model", key: 1}}
	outs := []outcome{{status: 200, body: sim}, {status: 200, body: model}}
	for _, c := range []struct {
		cycles int64
		failed int
	}{{500, 0}, {501, 1}} {
		var tl tally
		checkLoad(e, d, calls, outs, serveRef{Sim: map[string]int64{"3": c.cycles}}, &tl)
		if tl.attempted != 2 || tl.failed != c.failed {
			t.Errorf("reference %d cycles: attempted %d failed %d, want 2 and %d", c.cycles, tl.attempted, tl.failed, c.failed)
		}
	}
	d.warm[1] = []byte("{}")
	var tl tally
	checkLoad(e, d, calls, outs, serveRef{Sim: map[string]int64{"3": 500}}, &tl)
	if tl.failed != 1 {
		t.Errorf("model hit differing from its warm-up response: %d failures, want 1", tl.failed)
	}
}

// TestCachedStatsFlagsFreshSynthesis: a stats key the Bench has not
// synthesized yet fails, the same key once cached does not.
func TestCachedStatsFlagsFreshSynthesis(t *testing.T) {
	b := newBench(1, 64, []string{"AlexNet"})
	jobs := []statsJob{{b.Networks()[0], "8b", 2}}
	var first, second tally
	a := cachedStats(b, jobs, &first)
	c := cachedStats(b, jobs, &second)
	if first.failed != 1 || second.failed != 0 {
		t.Errorf("fresh lookup %d failures (want 1), cached lookup %d (want 0)", first.failed, second.failed)
	}
	if len(a[0]) == 0 || &a[0][0] != &c[0][0] {
		t.Errorf("cached lookup did not return the Bench's stats")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// fakeClock advances only when a sender waits for a due time or a request
// takes service time, so a one-sender schedule is fully deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, d)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// TestOpenLoopAccounting overloads one sender: calls are due every 10 ms
// but each takes 30 ms, so call i goes out 20·i ms late and its latency,
// timed from its due time, includes that wait.
func TestOpenLoopAccounting(t *testing.T) {
	clk := &fakeClock{}
	calls := make([]call, 5)
	for i := range calls {
		calls[i].due = time.Duration(i) * 10 * time.Millisecond
	}
	outs := drive(calls, 1, clk, func(call) (int, []byte, error) {
		clk.advance(30 * time.Millisecond)
		return 200, nil, nil
	})
	for i, c := range calls {
		o := outs[i]
		wantLate := time.Duration(i) * 20 * time.Millisecond
		if got := o.late(c); got != wantLate {
			t.Errorf("call %d late %v, want %v", i, got, wantLate)
		}
		if got, want := o.latency(c), wantLate+30*time.Millisecond; got != want {
			t.Errorf("call %d latency %v, want %v", i, got, want)
		}
	}
}

// TestOpenLoopOnTime: a sender that keeps up is never late, and latency
// is the service time alone.
func TestOpenLoopOnTime(t *testing.T) {
	clk := &fakeClock{}
	calls := make([]call, 4)
	for i := range calls {
		calls[i].due = time.Duration(i) * 50 * time.Millisecond
	}
	outs := drive(calls, 1, clk, func(call) (int, []byte, error) {
		clk.advance(5 * time.Millisecond)
		return 200, nil, nil
	})
	for i, c := range calls {
		if outs[i].late(c) != 0 || outs[i].latency(c) != 5*time.Millisecond {
			t.Errorf("call %d: late %v latency %v", i, outs[i].late(c), outs[i].latency(c))
		}
	}
}

// TestDriveSendsEveryCallOnce runs a closed loop on two senders.
func TestDriveSendsEveryCallOnce(t *testing.T) {
	calls := make([]call, 50)
	for i := range calls {
		calls[i].key = i
	}
	var mu sync.Mutex
	seen := map[int]int{}
	outs := drive(calls, 2, newRealClock(), func(c call) (int, []byte, error) {
		mu.Lock()
		seen[c.key]++
		mu.Unlock()
		return 200, []byte{byte(c.key)}, nil
	})
	for i := range calls {
		if seen[i] != 1 || outs[i].body[0] != byte(i) || outs[i].done < outs[i].sent {
			t.Fatalf("call %d: sent %d times, outcome %+v", i, seen[i], outs[i])
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.name] = lt
	}
	if p := got["parent"]; p.total != 100 || p.self != 100-60-10 {
		t.Errorf("parent total %d self %d, want 100 and 30", p.total, p.self)
	}
	if c := got["child"]; c.count != 3 || c.self != c.total {
		t.Errorf("child %+v", c)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs one tiny workload and returns its result line.
func smoke(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"--size", "tiny", "--seconds", "1", "--workdir", t.TempDir()}, args...)
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, out.String())
	}
	return r
}

// checkNames fails unless the result reports exactly the named metrics,
// with their declared units and non-zero values where zero is impossible.
func checkNames(t *testing.T, what string, r result, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, exp []string
	for n := range r.Metrics {
		got = append(got, n)
	}
	for _, w := range want {
		exp = append(exp, w.Name)
		if m, ok := r.Metrics[w.Name]; ok && m.Unit != w.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, " ") != strings.Join(exp, " ") {
		t.Errorf("%s metrics\n got  %v\n want %v", what, got, exp)
	}
}

// TestSmoke runs every workload at the tiny size, untraced and traced,
// through the same code paths and output checks as the full benchmark.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloadNames() {
		r := smoke(t, "--workload", w, "--seed", "3")
		checkNames(t, w, r, spec.EndToEnd)
		for n, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, n, m.Value)
			}
		}
	}
	r := smoke(t, "--workload", "serve", "--seed", "3", "--trace", "1")
	checkNames(t, "traced serve", r, spec.PerLayer)
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "nope", "--workdir", t.TempDir()}, &out); err == nil {
		t.Fatal("unknown workload: want an error")
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before failing", out.String())
	}
}
