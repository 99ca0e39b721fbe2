package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ristretto/internal/experiments"
)

// setupBatches is how many batches of set-ups a sweep or fleet run times.
// Their set-up takes about 0.06 and 1 ms, so one timing of it is mostly
// jitter: setup_s is the median, over batches, of the mean set-up time in
// a batch. Each batch starts on a freshly collected heap, so that when the
// collector last ran does not decide the figure.
const setupBatches = 15

// timeSetup times setupBatches batches of reps calls of setup and returns
// the median over batches of the mean time of one call in a batch. release,
// when non-nil, runs untimed after each batch to free what it set up.
func timeSetup(reps int, setup func() error, release func()) (float64, error) {
	means := make([]time.Duration, setupBatches)
	for i := range means {
		runtime.GC()
		start := time.Now()
		for j := 0; j < reps; j++ {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		means[i] = time.Since(start) / time.Duration(reps)
		if release != nil {
			release()
		}
	}
	return medianDur(means), nil
}

// cellTailMin is the samples-beyond rule for percentiles over sweep cells.
// A sweep has 22 cells, so its p95 is the 21st result to arrive (one
// sample beyond it): a rank statistic, not a tail estimate. The serve open
// loop, which has the samples, uses tailMin.
const cellTailMin = 1

// tailMin is the samples-beyond rule for the serve open-loop percentiles.
const tailMin = 10

// newSweepBench returns a fresh, cold Bench for the sweep workload.
func newSweepBench(e *env) *experiments.Bench {
	return newBench(e.benchSeed(), e.size.sweepScale, e.size.sweepNets)
}

// sweepOnce is one cold sweep with its resource use.
type sweepOnce struct {
	bench     *experiments.Bench // its stats stay cached
	results   []*experiments.Result
	report    experiments.RunReport
	wall, cpu time.Duration
	doneMS    []float64 // each cell's time to result since the sweep began
}

// coldSweep runs the paper's full sweep on a fresh Bench, as
// ristretto-bench does.
func coldSweep(e *env, parent int, t *tally) sweepOnce {
	var s sweepOnce
	b := newSweepBench(e)
	// The runner calls RunOptions.Fault as each cell attempt starts;
	// returning nil makes it a pure observer of the start times.
	cells := len(experiments.CellKeys())
	starts := make([]time.Time, cells)
	var mu sync.Mutex
	opts := experiments.RunOptions{Fault: func(cell, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if attempt == 0 {
			starts[cell] = time.Now()
		}
		return nil
	}}
	id := e.trace.begin(parent, "experiments.sweep", "")
	u := readUsage()
	rs, rep, err := b.AllChecked(opts)
	s.wall, s.cpu = u.since()
	e.trace.end(id)
	if err != nil {
		t.fail("sweep: %v", err)
	}
	s.bench, s.results, s.report = b, rs, rep
	if len(rep.Timings) != cells {
		t.fail("sweep: %d cell timings for %d cells", len(rep.Timings), cells)
		return s
	}
	for i, tm := range rep.Timings {
		s.doneMS = append(s.doneMS, ms(starts[i].Sub(u.wall))+tm.Millis)
	}
	return s
}

// runSweep is the sweep workload: one whole cold sweep (a sweep cannot be
// cut short, so it is the run's unit of work whatever --seconds says),
// checked against the committed reference digests of its seed.
func runSweep(e *env) (map[string]metric, tally, error) {
	var t tally
	ref, err := loadRef("sweep", e.size.name, e.benchSeed())
	if err != nil {
		return nil, t, err
	}
	setup, err := timeSetup(1000, func() error {
		if b := newSweepBench(e); len(b.Networks()) == 0 || len(experiments.CellKeys()) == 0 {
			return fmt.Errorf("sweep: empty benchmark")
		}
		return nil
	}, nil)
	if err != nil {
		return nil, t, err
	}

	s := coldSweep(e, 0, &t)
	rss := peakRSSMB()
	failedResults("sweep", s.results, &t)
	check("sweep", render(s.results), ref, &t)
	m, err := cellMetrics(s.doneMS, len(experiments.CellKeys()), s.wall)
	if err != nil {
		return nil, t, err
	}
	m["setup_s"] = metric{setup, "s"}
	m["wall_s"] = metric{s.wall.Seconds(), "s"}
	m["cpu_s"] = metric{s.cpu.Seconds(), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	fmt.Fprintf(e.out, "sweep: %d cells, bench seed %d, scale %d\n",
		len(experiments.CellKeys()), e.benchSeed(), e.size.sweepScale)
	return m, t, nil
}

// cellMetrics derives the latency and throughput metrics of a cell sweep:
// percentiles of the cells' time to result, the wait a user sees for each
// figure, and cells completed per second of wall.
func cellMetrics(doneMS []float64, cells int, wall time.Duration) (map[string]metric, error) {
	p50, err := percentile(doneMS, 0.50, cellTailMin)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(doneMS, 0.95, cellTailMin)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"p50_ms":       {p50, "ms"},
		"p95_ms":       {p95, "ms"},
		"capacity_rps": {float64(cells) / wall.Seconds(), "1/s"},
	}, nil
}
