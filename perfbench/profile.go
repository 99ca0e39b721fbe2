package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/baselines/bitfusion"
	"ristretto/internal/baselines/laconic"
	"ristretto/internal/baselines/scnn"
	"ristretto/internal/baselines/snap"
	"ristretto/internal/baselines/sparten"
	"ristretto/internal/cellcache"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/ristretto"
	"ristretto/internal/safeio"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// phase is a section's main measured phase: what trace.overhead_frac of
// its workload refers to.
type phase struct {
	wall  time.Duration
	spans int
}

// profile is the traced run. Whichever workload it names, it profiles
// every layer: the sweep, the fleet and the serving daemon, plus direct
// calls into workload, quant, atom, ristretto and baselines. The named
// workload selects the phase trace.overhead_frac is measured on.
func profile(e *env) (map[string]metric, tally, error) {
	m := map[string]metric{}
	var t tally
	root := e.trace.begin(0, "perfbench.profile", e.workload)
	defer e.trace.end(root)
	phases := map[string]phase{}
	var err error
	if phases["sweep"], err = profileSweep(e, root, m, &t); err != nil {
		return nil, t, err
	}
	if phases["fleet"], err = profileFleet(e, root, m, &t); err != nil {
		return nil, t, err
	}
	if phases["serve"], err = profileServe(e, root, m, &t); err != nil {
		return nil, t, err
	}
	profileQuant(e, root, m)
	p := phases[e.workload]
	m["trace.overhead_frac"] = metric{float64(p.spans) * spanCost().Seconds() / p.wall.Seconds(), "fraction"}
	return m, t, nil
}

// spanCost measures what recording one span costs, with nproc goroutines
// recording at once as the load phases' senders and handlers do. Spans
// exist only in the benchmark's own code, so trace.overhead_frac, the cost
// of the spans a phase recorded over the phase's wall time, is a lower
// bound: it leaves out the rest of what only a traced phase does (span
// headers, the wrapping handler, and per fleet attempt a request clone and
// a re-decode of its body). A direct A/B of the whole phase would bury the
// overhead in run-to-run spread.
func spanCost() time.Duration {
	const n = 20000
	tr := newTracer()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/nproc(); i++ {
				tr.end(tr.begin(1, "probe", "key"))
			}
		}()
	}
	wg.Wait()
	return time.Since(start) * time.Duration(nproc()) / n
}

// sweepStatsKeys are the (precision, granularity) workloads the sweep
// synthesizes per network through Bench.Stats: every precision at the
// default 2-bit atoms, plus the uniform precisions at 1- and 3-bit atoms
// for the granularity study (Figure 19b).
var sweepStatsKeys = []struct {
	precision string
	gran      atom.Granularity
}{
	{"8b", 2}, {"4b", 2}, {"2b", 2}, {"mix2/4", 2},
	{"8b", 1}, {"4b", 1}, {"2b", 1},
	{"8b", 3}, {"4b", 3}, {"2b", 3},
}

// profileSweep profiles the sweep: a cold sweep (per-cell cold times and
// runner utilization from its RunStats), a warm pass re-running every cell
// on the same Bench with stats cached, rendering, the analytic models on
// cached stats, and a replay of every stats key split into operand
// synthesis and measurement.
func profileSweep(e *env, root int, m map[string]metric, t *tally) (phase, error) {
	ref, err := loadRef("sweep", e.size.name, e.benchSeed())
	if err != nil {
		return phase{}, err
	}
	first := e.trace.count()
	cold := coldSweep(e, root, t)
	p := phase{wall: cold.wall, spans: e.trace.count() - first}
	b, rs, rep := cold.bench, cold.results, cold.report
	failedResults("sweep", rs, t)
	var rendered refSet
	d := e.trace.do(root, "experiments.render", "", func(int) { rendered = render(rs) })
	m["experiments.render_ms"] = metric{ms(d), "ms"}
	check("sweep", rendered, ref, t)

	keys := experiments.CellKeys()
	if len(rep.Timings) != len(keys) {
		return p, fmt.Errorf("sweep: %d cell timings for %d cells", len(rep.Timings), len(keys))
	}
	var critical, coldSum float64
	for i, key := range keys {
		s := rep.Timings[i].Millis / 1e3
		m["cell."+key+".cold_s"] = metric{s, "s"}
		coldSum += s
		critical = max(critical, s)
	}
	m["runner.critical_path_s"] = metric{critical, "s"}
	m["runner.utilization"] = metric{rep.Work.Seconds() / (rep.Elapsed.Seconds() * float64(rep.Workers)), "fraction"}

	payloads := map[string]json.RawMessage{}
	var warmSum float64
	warmID := e.trace.begin(root, "experiments.warm", "")
	for _, key := range keys {
		var payload json.RawMessage
		var cerr error
		d := e.trace.do(warmID, "experiments.cell", key, func(int) {
			payload, cerr = b.RunCellChecked(key, experiments.RunOptions{})
		})
		if cerr != nil {
			t.fail("warm cell %s: %v", key, cerr)
		}
		payloads[key] = payload
		m["cell."+key+".warm_s"] = metric{d.Seconds(), "s"}
		warmSum += d.Seconds()
	}
	e.trace.end(warmID)
	merged, err := experiments.MergeCells(payloads)
	if err != nil {
		t.fail("warm cells: %v", err)
	}
	check("warm cells", render(merged), ref, t)
	m["experiments.synthesis_s"] = metric{coldSum - warmSum, "s"}
	m["experiments.synthesis_frac"] = metric{(coldSum - warmSum) / coldSum, "fraction"}

	profileEstimates(e, root, b, m)
	profileReplay(e, root, b, m, t)
	return p, nil
}

// timeCalls returns the median time of reps calls of fn.
func timeCalls(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2]
}

// profileEstimates times the analytic models on the cached 4-bit stats of
// every benchmark network: microseconds per network estimate.
func profileEstimates(e *env, root int, b *experiments.Bench, m map[string]metric) {
	var stats [][]workload.LayerStats
	for _, n := range b.Networks() {
		stats = append(stats, b.Stats(n, "4b", 2)) // cached by the sweep
	}
	rcfg := ristretto.Config{Tiles: 32, Tile: ristretto.TileConfig{Mults: 32, Gran: 2}, Policy: balance.WeightAct}
	models := []struct {
		name string
		fn   func(s []workload.LayerStats)
	}{
		{"ristretto", func(s []workload.LayerStats) { ristretto.EstimateNetwork(s, rcfg) }},
		{"baselines.bitfusion", func(s []workload.LayerStats) { bitfusion.EstimateNetwork(s, bitfusion.DefaultConfig()) }},
		{"baselines.laconic", func(s []workload.LayerStats) { laconic.EstimateNetwork(s, laconic.DefaultConfig()) }},
		{"baselines.sparten", func(s []workload.LayerStats) { sparten.EstimateNetwork(s, sparten.DefaultConfig()) }},
		{"baselines.scnn", func(s []workload.LayerStats) { scnn.EstimateNetwork(s, scnn.DefaultConfig()) }},
		{"baselines.snap", func(s []workload.LayerStats) { snap.EstimateNetwork(s, snap.DefaultConfig()) }},
	}
	for _, mod := range models {
		var per time.Duration
		e.trace.do(root, mod.name+".estimate", "", func(int) {
			per = timeCalls(5, func() {
				for _, s := range stats {
					mod.fn(s)
				}
			})
		})
		m[mod.name+".estimate_us"] = metric{float64(per) / 1e3 / float64(len(stats)), "us"}
	}
}

// precisionOf resolves a sweep precision name as Bench.Stats does.
func precisionOf(n *model.Network, name string, seed int64) model.Precision {
	switch name {
	case "mix2/4":
		return model.Mixed24(n, uint64(seed))
	case "2b":
		return model.Uniform(n, 2)
	case "4b":
		return model.Uniform(n, 4)
	}
	return model.Uniform(n, 8)
}

// profileReplay replays every stats key of the sweep with the seeds
// Bench.Stats derives, timing Gen.LayerOperands and StatsFromTensors per
// layer, and checks the replayed statistics equal the Bench's.
func profileReplay(e *env, root int, b *experiments.Bench, m map[string]metric, t *tally) {
	var jobs []statsJob
	for _, n := range b.Networks() {
		for _, k := range sweepStatsKeys {
			jobs = append(jobs, statsJob{n, k.precision, k.gran})
		}
	}
	want := cachedStats(b, jobs, t)
	var mu sync.Mutex
	var operands, measure time.Duration
	var values int64
	replayID := e.trace.begin(root, "workload.replay", "")
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range ch {
				j := jobs[ji]
				key := fmt.Sprintf("%s|%s|%d", j.n.Name, j.precision, j.gran)
				keyID := e.trace.begin(replayID, "workload.stats", key)
				sn := b.Scaled(j.n)
				p := precisionOf(sn, j.precision, b.Seed)
				g := workload.NewGen(workload.DeriveSeed(b.Seed, "stats", j.n.Name, j.precision, strconv.Itoa(int(j.gran)), strconv.Itoa(b.Scale)))
				got := make([]workload.LayerStats, len(sn.Layers))
				var op, me time.Duration
				var vals int64
				for i, l := range sn.Layers {
					tg := workload.EvalTargets(j.n.Name, p.WBits[i], p.ABits[i])
					var f *tensor.FeatureMap
					var k *tensor.KernelStack
					op += e.trace.do(keyID, "workload.operands", key, func(int) {
						f, k = g.LayerOperands(l, p.WBits[i], p.ABits[i], tg)
					})
					me += e.trace.do(keyID, "workload.measure", key, func(int) {
						got[i] = workload.StatsFromTensors(l, f, k, j.gran, true)
					})
					vals += int64(len(f.Data) + len(k.Data))
				}
				same := reflect.DeepEqual(got, want[ji])
				e.trace.end(keyID)
				mu.Lock()
				t.add(1)
				if !same {
					t.fail("replayed stats of %s differ from the Bench's", key)
				}
				operands += op
				measure += me
				values += vals
				mu.Unlock()
			}
		}()
	}
	for ji := range jobs {
		ch <- ji
	}
	close(ch)
	wg.Wait()
	e.trace.end(replayID)
	m["workload.operands_s"] = metric{operands.Seconds(), "s"}
	m["workload.measure_s"] = metric{measure.Seconds(), "s"}
	m["workload.values"] = metric{float64(values), "count"}
	m["workload.ns_per_value"] = metric{float64((operands + measure).Nanoseconds()) / float64(values), "ns"}
}

// statsJob is one stats key of one network.
type statsJob struct {
	n         *model.Network
	precision string
	gran      atom.Granularity
}

// freshHist prefixes the per-precision histogram to which Bench.Stats adds
// one observation per layer of every stats key it synthesizes, when the
// default telemetry registry is enabled.
const freshHist = "workload.act_value_density_pct."

// cachedStats looks up the Bench's stats of every job. A lookup that adds
// observations to freshHist synthesized its key just now, so the sweep did
// not: sweepStatsKeys is out of date, and the job fails.
func cachedStats(b *experiments.Bench, jobs []statsJob, t *tally) [][]workload.LayerStats {
	reg := telemetry.Default
	was := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(was)
	fresh := func(precision string) int64 { return reg.Snapshot().Histograms[freshHist+precision].Count }
	out := make([][]workload.LayerStats, len(jobs))
	for i, j := range jobs {
		before := fresh(j.precision)
		out[i] = b.Stats(j.n, j.precision, j.gran)
		if fresh(j.precision) != before {
			t.fail("stats key %s|%s|%d is not one the sweep synthesizes; sweepStatsKeys is out of date", j.n.Name, j.precision, j.gran)
		}
	}
	return out
}

// profileFleet profiles the fleet: a traced cold fleet sweep (attempt and
// worker spans, the coordinator's attempt histogram, steal and hedge
// counts), the in-process shared-Bench run of the same cells (the
// byte-identity reference and the CPU the fleet's per-cell re-synthesis is
// compared with), a warm rerun served from the coordinator's cell cache,
// and direct calls into the cell cache, the payload digest and the
// journal appender.
func profileFleet(e *env, root int, m map[string]metric, t *tally) (phase, error) {
	ref, err := loadRef("fleet", e.size.name, e.benchSeed())
	if err != nil {
		return phase{}, err
	}
	r, err := newRig(filepath.Join(e.workdir, "fleet-profile"), e.trace)
	if err != nil {
		return phase{}, err
	}
	defer r.stop()
	reg := telemetry.NewRegistry()
	first := e.trace.count()
	f := runFleetOnce(e, r, reg, "cold", root, t)
	p := phase{wall: f.wall, spans: e.trace.count() - first}
	failedResults("fleet", f.results, t)
	got := render(f.results)
	check("fleet", got, ref, t)

	att := reg.Snapshot().Histograms["fleet.attempt_ms"]
	m["fleet.attempt_p50_ms"] = metric{att.P50, "ms"}
	m["fleet.attempt_p95_ms"] = metric{att.P95, "ms"}
	m["fleet.steals"] = metric{float64(f.report.Steals), "count"}
	m["fleet.reassigned"] = metric{float64(f.report.Reassigned), "count"}
	m["fleet.hedges"] = metric{float64(f.report.HedgesLaunched), "count"}
	var attempts, cells time.Duration
	for _, s := range e.trace.snapshot()[first:] {
		d := time.Duration(s.End - s.Start)
		switch {
		case s.Name == "fleet.attempt":
			attempts += d
		case s.Name == "worker.cell" && s.Parent != 0:
			cells += d
		}
	}
	m["fleet.worker_cell_s"] = metric{cells.Seconds(), "s"}
	m["fleet.http_overhead_s"] = metric{(attempts - cells).Seconds(), "s"}

	var shared []*experiments.Result
	u := readUsage()
	e.trace.do(root, "experiments.shared_bench", "", func(int) {
		shared, _, err = sharedBenchRun(e.benchSeed(), e.size.fleetScale, e.size.fleetNets)
	})
	_, sharedCPU := u.since()
	t.add(1)
	if err != nil || render(shared).Output != got.Output {
		t.fail("fleet output is not byte-identical to the in-process shared-Bench run (%v)", err)
	}
	m["fleet.redundancy"] = metric{f.cpu.Seconds() / sharedCPU.Seconds(), "ratio"}

	w := runFleetOnce(e, r, telemetry.NewRegistry(), "warm", root, t)
	check("fleet warm rerun", render(w.results), ref, t)
	t.add(1)
	if w.report.CacheHitRate() != 1 {
		t.fail("fleet warm rerun: cache hit ratio %v, want 1", w.report.CacheHitRate())
	}
	m["cellcache.warm_rerun_ms"] = metric{ms(w.wall), "ms"}
	return p, profileStorage(e, root, r, m, t)
}

// profileStorage times the fleet's storage layers on the run's own cell
// payloads: the payload digest, per-entry cell cache writes and reads in a
// fresh directory, and one fsynced journal-sized append.
func profileStorage(e *env, root int, r *rig, m map[string]metric, t *tally) error {
	coord, err := cellcache.Open(filepath.Join(r.dir, "coordinator-cells"), telemetry.NewRegistry())
	if err != nil {
		return err
	}
	b := newBench(e.benchSeed(), e.size.fleetScale, e.size.fleetNets)
	keys := experiments.CellKeys()
	fps := make([]string, len(keys))
	payloads := make([][]byte, len(keys))
	for i, key := range keys {
		fps[i] = b.CellSpec(key).Fingerprint()
		var ok bool
		if payloads[i], ok = coord.Get(fps[i]); !ok {
			t.fail("coordinator cell cache lacks cell %s", key)
		}
	}
	d := e.trace.do(root, "experiments.digest", "", func(int) {
		for i := range keys {
			experiments.CellPayloadDigest(fps[i], payloads[i])
		}
	})
	m["experiments.digest_us"] = metric{float64(d) / 1e3, "us"}

	fresh, err := cellcache.Open(filepath.Join(r.dir, "probe-cells"), telemetry.NewRegistry())
	if err != nil {
		return err
	}
	var puts, gets []time.Duration
	var sizes []float64
	for i := range keys {
		puts = append(puts, e.trace.do(root, "cellcache.put", keys[i], func(int) {
			if err := fresh.Put(fps[i], payloads[i]); err != nil {
				t.fail("cell cache put %s: %v", keys[i], err)
			}
		}))
		gets = append(gets, e.trace.do(root, "cellcache.get", keys[i], func(int) {
			if got, ok := fresh.Get(fps[i]); !ok || string(got) != string(payloads[i]) {
				t.fail("cell cache get %s: entry missing or changed", keys[i])
			}
		}))
		sizes = append(sizes, float64(len(payloads[i])))
	}
	m["cellcache.put_ms"] = metric{medianDur(puts) * 1e3, "ms"}
	m["cellcache.get_ms"] = metric{medianDur(gets) * 1e3, "ms"}

	ap, err := safeio.OpenAppender(filepath.Join(r.dir, "probe.journal"), true)
	if err != nil {
		return err
	}
	record := make([]byte, int(median(sizes)))
	for i := range record {
		record[i] = 'x'
	}
	record[len(record)-1] = '\n'
	var appends []time.Duration
	for i := 0; i < 9; i++ {
		appends = append(appends, e.trace.do(root, "safeio.append", "", func(int) {
			if err := ap.Append(record); err != nil {
				t.fail("journal append: %v", err)
			}
		}))
	}
	m["safeio.append_fsync_ms"] = metric{medianDur(appends) * 1e3, "ms"}
	return ap.Close()
}

// profileServe profiles the daemon: unloaded memo-hit and sim latencies, a
// traced load phase (request spans on the generator, handler spans in the
// daemon, the daemon's own metrics), and a direct replay of every sim key.
func profileServe(e *env, root int, m map[string]metric, t *tally) (phase, error) {
	ref, err := loadServeRef(e.size.name)
	if err != nil {
		return phase{}, err
	}
	d, err := startDaemon(e.trace, func(h http.Handler) http.Handler { return spanHandler(e.trace, "server.handle", h) })
	if err != nil {
		return phase{}, err
	}
	defer d.stop()
	mix, base := e.size.serve, e.benchSeed()
	if err := d.warmModels(mix, base); err != nil {
		return phase{}, err
	}
	checkWarm(d, mix, base, ref, t)

	probe := func(path string, body []byte) func() {
		return func() {
			t.add(1)
			if status, b, err := d.post(path, body, nil); err != nil || status != http.StatusOK {
				t.fail("unloaded %s: status %d: %v %.200s", path, status, err, b)
			}
		}
	}
	m["server.model_hit_ms"] = metric{ms(timeCalls(21, probe("/v1/model", modelBody(mix, base)))), "ms"}
	// The sim's own cost dwarfs the overhead, so the HTTP and direct calls
	// alternate and the figure is the median of the paired differences:
	// drift in the machine's speed then cancels within a pair.
	var overheads []float64
	sim := probe("/v1/sim", simBody(mix, base))
	for i := 0; i < 9; i++ {
		overheads = append(overheads, ms(timeCalls(1, sim)-timeCalls(1, func() { replaySim(nil, 0, mix, base) })))
	}
	m["server.sim_overhead_ms"] = metric{median(overheads), "ms"}

	before := d.reg.Snapshot()
	first := e.trace.count()
	l := runLoad(e, d, root, e.seconds/2, minTracedCalls) // its counters need no full-length run
	p := phase{wall: l.wall, spans: e.trace.count() - first}
	after := d.reg.Snapshot()
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }

	cycles, simTime := replayKeys(e, root, ref, t, l.open, l.closed)
	checkLoad(e, d, l.open, l.openOut, ref, t)
	checkLoad(e, d, l.closed, l.closedOut, ref, t)
	_, lateMS := openLoopLatencies(l)
	late95, err := percentile(lateMS, 0.95, tailMin)
	if err != nil {
		return p, err
	}
	m["loadgen.late_p95_ms"] = metric{late95, "ms"}
	m["server.queue_wait_p95_ms"] = metric{after.Histograms["server.queue_wait_ns"].P95 / 1e6, "ms"}
	hits, misses := delta("server.cache.hits"), delta("server.cache.misses")
	m["server.cache.hit_ratio"] = metric{hits / max(hits+misses, 1), "fraction"}
	m["server.batch.coalesced"] = metric{delta("server.batch.coalesced"), "count"}
	m["server.degraded"] = metric{delta("server.degraded"), "count"}

	var total int64
	for _, c := range cycles {
		total += c
	}
	m["ristretto.sim_cycles"] = metric{float64(total), "count"}
	m["ristretto.simcore_ms"] = metric{ms(simTime) / float64(len(cycles)), "ms"}
	m["ristretto.ns_per_sim_cycle"] = metric{float64(simTime.Nanoseconds()) / float64(total), "ns"}
	return p, nil
}

// quantLayer is the fixed large layer whose weight buffer the quant and
// atom probes run on: VGG-16 conv4_2, 512×512×3×3 weights.
var quantLayer = struct{ net, layer string }{"VGG-16", "conv4_2"}

// profileQuant times quantization, pruning, measurement and the Booth term
// histogram on one fixed large layer's weights, in ns per value.
func profileQuant(e *env, root int, m map[string]metric) {
	n, _ := model.ByName(quantLayer.net) // fixed and valid
	l, _ := n.Layer(quantLayer.layer)    // likewise
	values := int(l.Weights())
	rng := rand.New(rand.NewSource(e.benchSeed()))
	x := make([]float64, values)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	cfg := quant.Config{Bits: 8, ClipSigma: quant.DefaultWeightClip(8)}
	perValue := func(name string, reps int, prep func(), fn func()) {
		ds := make([]time.Duration, reps)
		for i := range ds {
			prep()
			ds[i] = e.trace.do(root, name, quantLayer.net+"/"+quantLayer.layer, func(int) { fn() })
		}
		m[name+"_ns_per_value"] = metric{medianDur(ds) * 1e9 / float64(values), "ns"}
	}
	var q []int32
	perValue("quant.quantize", 5, func() {}, func() { q = quant.QuantizeSigned(x, 1, cfg) })
	buf := make([]int32, len(q))
	perValue("quant.prune", 5, func() { copy(buf, q) }, func() { quant.PruneToDensity(buf, 0.35) })
	perValue("quant.measure", 5, func() {}, func() { quant.Measure(buf, 8, 2) })
	perValue("atom.term_hist", 5, func() {}, func() { atom.TermHistogram(buf, true) })
	runtime.KeepAlive(q)
}
