package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ristretto/internal/cellcache"
	"ristretto/internal/experiments"
	"ristretto/internal/fleet"
	"ristretto/internal/server"
	"ristretto/internal/telemetry"
)

// fleetWorkers is the fleet's size: in-process ristretto-serve workers.
const fleetWorkers = 2

// worker is one in-process ristretto-serve worker with its cell cache.
type worker struct {
	hs   *http.Server
	done chan struct{}
	url  string
}

// rig is a fleet ready to run: workers listening on loopback, fresh
// coordinator cache and journal paths, and a client that times every
// attempt.
type rig struct {
	dir     string
	workers []*worker
	rt      *timingTransport
	client  *http.Client
}

// newRig boots the workers under dir. Traced runs record a span around
// every /v1/cell request a worker serves.
func newRig(dir string, tr *tracer) (*rig, error) {
	r := &rig{dir: dir}
	r.rt = &timingTransport{base: &http.Transport{MaxIdleConnsPerHost: nproc()}, tr: tr}
	r.client = &http.Client{Transport: r.rt}
	for i := 0; i < fleetWorkers; i++ {
		reg := telemetry.NewRegistry()
		cache, err := cellcache.Open(filepath.Join(dir, "worker"+strconv.Itoa(i)), reg)
		if err != nil {
			r.stop()
			return nil, err
		}
		h := server.New(server.Config{CellCache: cache, Registry: reg}).Handler()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.stop()
			return nil, err
		}
		w := &worker{hs: &http.Server{Handler: spanHandler(tr, "worker.cell", h)}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
		go func() {
			defer close(w.done)
			w.hs.Serve(ln) // returns http.ErrServerClosed on stop
		}()
		r.workers = append(r.workers, w)
		resp, err := http.Get(w.url + "/healthz")
		if err != nil {
			r.stop()
			return nil, err
		}
		resp.Body.Close()
	}
	return r, nil
}

// stop shuts every worker down and waits for it to exit.
func (r *rig) stop() {
	for _, w := range r.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.hs.Shutdown(ctx) // every request has completed when the fleet returns
		cancel()
		<-w.done
	}
	r.workers = nil
	if t, ok := r.rt.base.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// config is the fleet sweep of the workload, journaling under name.
func (r *rig) config(e *env, reg *telemetry.Registry, name string) fleet.Config {
	urls := make([]string, len(r.workers))
	for i, w := range r.workers {
		urls[i] = w.url
	}
	return fleet.Config{
		Workers:     urls,
		Seed:        e.benchSeed(),
		Scale:       e.size.fleetScale,
		Nets:        e.size.fleetNets,
		CacheDir:    filepath.Join(r.dir, "coordinator-cells"),
		JournalPath: filepath.Join(r.dir, name+".journal"),
		DeadlineMS:  110000, // the worker's 15 s default would time out the slowest cells
		Client:      r.client,
		Registry:    reg,
	}
}

// timingTransport notes when every fleet attempt's response body ends. In
// traced runs it also opens a span per attempt and passes its ID to the
// worker, whose span becomes the child.
type timingTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int

	mu   sync.Mutex
	ends []time.Time
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var id int
	if t.tr != nil {
		cell := cellOf(req)
		id = t.tr.begin(t.parent, "fleet.attempt", cell)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
		req.Header.Set(keyHeader, cell)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.finish(id)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, end: func() { t.finish(id) }}
	return resp, nil
}

func (t *timingTransport) finish(id int) {
	t.tr.end(id)
	t.mu.Lock()
	t.ends = append(t.ends, time.Now())
	t.mu.Unlock()
}

// take returns and clears the attempt end times recorded so far, in ms
// since start.
func (t *timingTransport) take(start time.Time) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.ends))
	for i, end := range t.ends {
		out[i] = ms(end.Sub(start))
	}
	t.ends = nil
	return out
}

// cellOf reads the cell key from a /v1/cell request body.
func cellOf(req *http.Request) string {
	if req.GetBody == nil {
		return ""
	}
	body, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var c struct {
		Cell string `json:"cell"`
	}
	json.NewDecoder(body).Decode(&c) // best effort: the key only labels the span
	return c.Cell
}

// timedBody reports the end of a response body once, on EOF or Close.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// fleetSetup boots rigs in fresh directories, timed by timeSetup in
// batches of 8; all but the last rig are stopped. It returns the last
// rig and setup_s.
func fleetSetup(e *env) (*rig, float64, error) {
	var last *rig
	var batch []*rig
	n := 0
	setup, err := timeSetup(8, func() error {
		dir := filepath.Join(e.workdir, "fleet"+strconv.Itoa(n))
		n++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		r, err := newRig(dir, e.trace)
		if err == nil {
			batch = append(batch, r)
		}
		return err
	}, func() {
		if last != nil {
			last.stop()
		}
		for _, r := range batch[:len(batch)-1] {
			r.stop()
		}
		last, batch = batch[len(batch)-1], nil
	})
	if err != nil {
		for _, r := range append(batch, last) {
			if r != nil {
				r.stop()
			}
		}
		return nil, 0, err
	}
	return last, setup, nil
}

// fleetRun is one fleet sweep with its resource use.
type fleetRun struct {
	results   []*experiments.Result
	report    fleet.Report
	wall, cpu time.Duration
	doneMS    []float64 // each attempt's time to result since the sweep began
}

func runFleetOnce(e *env, r *rig, reg *telemetry.Registry, name string, parent int, t *tally) fleetRun {
	var f fleetRun
	id := e.trace.begin(parent, "fleet.run", name)
	r.rt.parent = id
	u := readUsage()
	rs, rep, err := fleet.Run(context.Background(), r.config(e, reg, name))
	f.wall, f.cpu = u.since()
	f.doneMS = r.rt.take(u.wall)
	e.trace.end(id)
	if err != nil {
		t.fail("fleet %s: %v", name, err)
	}
	if rep.Failures > 0 {
		t.fail("fleet %s: %d cells failed", name, rep.Failures)
	}
	f.results, f.report = rs, rep
	return f
}

// runFleet is the fleet workload: one cold fleet sweep over fresh worker
// caches and a fresh coordinator cache and journal, checked against the
// in-process shared-Bench reference.
func runFleet(e *env) (map[string]metric, tally, error) {
	var t tally
	ref, err := loadRef("fleet", e.size.name, e.benchSeed())
	if err != nil {
		return nil, t, err
	}
	r, setup, err := fleetSetup(e)
	if err != nil {
		return nil, t, err
	}
	defer r.stop()
	f := runFleetOnce(e, r, telemetry.NewRegistry(), "cold", 0, &t)
	rss := peakRSSMB()
	failedResults("fleet", f.results, &t)
	check("fleet", render(f.results), ref, &t)

	cells := len(experiments.CellKeys())
	m, err := cellMetrics(f.doneMS, cells, f.wall)
	if err != nil {
		return nil, t, err
	}
	m["setup_s"] = metric{setup, "s"}
	m["wall_s"] = metric{f.wall.Seconds(), "s"}
	m["cpu_s"] = metric{f.cpu.Seconds(), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	fmt.Fprintf(e.out, "fleet: %d cells on %d workers, bench seed %d, scale %d, nets %v: %d computed, %d steals\n",
		cells, fleetWorkers, e.benchSeed(), e.size.fleetScale, e.size.fleetNets, f.report.Computed, f.report.Steals)
	return m, t, nil
}
