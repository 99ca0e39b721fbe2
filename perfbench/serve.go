package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ristretto/internal/balance"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/ristretto"
	"ristretto/internal/server"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// serveMix is the serve workload's traffic, shaped as ristretto-load's
// multi-key mix (loadtest.MultiKeyMix) restricted to its /v1/sim and
// /v1/model targets: one network, layer and precision, expanded into
// distinct request bodies that differ only in operand seed, so each body
// is a distinct cache and simulation key of the same cost.
type serveMix struct {
	net, layer, precision string
	scale                 int
	simKeys               int // sim bodies: operand seeds base .. base+simKeys-1
	modelKeys             int // the /v1/model hot set: the modelKeys hottest of those seeds
}

// loadDefaultMix is the full-size mix: ristretto-load's default target
// (-net ResNet-18 -layer conv3_2 -precision 4b -scale 16) with 12 keys.
// Every sim simulates the same layer, so the mix leaves out the spread of
// sim cost across layers (4 ms to 1.1 s over ResNet-18's layers at scale
// 16 on a 2-vCPU Xeon; this layer takes about 80 ms there).
var loadDefaultMix = serveMix{net: "ResNet-18", layer: "conv3_2", precision: "4b", scale: 16, simKeys: 12, modelKeys: 4}

// serveShape is the accelerator shape every sim request names explicitly
// (the daemon's defaults), so the direct replay needs no guessing.
var serveShape = ristretto.CoreSimConfig{
	Tiles:  8,
	Tile:   ristretto.TileConfig{Mults: 32, Gran: 2},
	Policy: balance.WeightAct,
}

const (
	serveSetupReps = 3   // each set-up warms the /v1/model hot set
	minOpenCalls   = 400 // half are sims: 200 sims leave 10 beyond the p95
	minTracedCalls = 200 // the traced run's generator-lateness p95 is over all calls
	zipfS          = 1.2 // ristretto-load's default -key-skew
)

// operandSeed is the seed of key rank k: base+k, as MultiKeyMix numbers
// its bodies. base is a shipped seed (1..8), so every body the benchmark
// can send has a committed reference.
func operandSeed(base int64, k int) int64 { return base + int64(k) }

func simBody(m serveMix, seed int64) []byte {
	b, _ := json.Marshal(map[string]any{ // a map of strings and ints always marshals
		"net": m.net, "layer": m.layer, "precision": m.precision,
		"tiles": serveShape.Tiles, "mults": serveShape.Tile.Mults, "gran": int(serveShape.Tile.Gran), "balance": "wa",
		"seed": seed, "scale": m.scale, "deadline_ms": 60000,
	})
	return b
}

func modelBody(m serveMix, seed int64) []byte {
	b, _ := json.Marshal(map[string]any{"net": m.net, "precision": m.precision, "seed": seed, "scale": m.scale})
	return b
}

// serveSchedule builds a seeded 1:1 sim:model request sequence of n calls
// that alternates sim and model. Both kinds follow a zipf(s) law over
// their key ranks with exact counts, spread evenly through the sequence
// (smooth weighted round robin); the seed rotates both cycles. So every
// seed offers the same key mix at the same spacing, and queueing in the
// open loop does not hinge on how a random draw happened to bunch the
// requests. rate > 0 spaces the calls evenly at that many per second (an
// open loop); rate 0 leaves every due time 0 (a closed loop).
func serveSchedule(phase string, rng *rand.Rand, n int, rate float64, m serveMix, base int64) []call {
	sims := zipfSequence(n-n/2, m.simKeys, zipfS)
	models := zipfSequence(n/2, m.modelKeys, zipfS)
	simAt, modelAt := rng.Intn(len(sims)), rng.Intn(max(len(models), 1))
	calls := make([]call, n)
	for i := range calls {
		c := &calls[i]
		if i%2 == 0 {
			c.kind, c.key = "sim", sims[(simAt+i/2)%len(sims)]
			c.body = simBody(m, operandSeed(base, c.key))
		} else {
			c.kind, c.key = "model", models[(modelAt+i/2)%len(models)]
			c.body = modelBody(m, operandSeed(base, c.key))
		}
		c.id = fmt.Sprintf("%s/%d", phase, i)
		if rate > 0 {
			c.due = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	return calls
}

// zipfSequence orders zipfCounts(total, k, s) draws by smooth weighted
// round robin: each rank appears exactly its count times, evenly spread.
func zipfSequence(total, k int, s float64) []int {
	counts := zipfCounts(total, k, s)
	credit := make([]int, k)
	seq := make([]int, total)
	for i := range seq {
		best := 0
		for r := range credit {
			credit[r] += counts[r]
			if credit[r] > credit[best] {
				best = r
			}
		}
		credit[best] -= total
		seq[i] = best
	}
	return seq
}

// zipfCounts splits total draws over k ranks in proportion to 1/(r+1)^s,
// rounding by largest remainders so the counts sum to total.
func zipfCounts(total, k int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		sum += w[r]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := total
	for r := range w {
		exact := float64(total) * w[r] / sum
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
		w[r] = exact - float64(counts[r])
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

// daemon is the ristretto-serve handler with its shipped defaults on a
// loopback listener.
type daemon struct {
	reg    *telemetry.Registry
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client
	tr     *tracer
	warm   map[int][]byte // model hot key → normalized warm-up response
}

// startDaemon boots a daemon; wrap, when non-nil, wraps its handler.
func startDaemon(tr *tracer, wrap func(http.Handler) http.Handler) (*daemon, error) {
	reg := telemetry.NewRegistry()
	h := server.New(server.Config{Registry: reg}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		reg:  reg,
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(),
		}},
		tr:   tr,
		warm: map[int][]byte{},
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the daemon down and waits for its serve loop to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx) // in-flight requests have all completed by now
	<-d.done
	d.client.CloseIdleConnections()
}

// post sends one request and reads the whole response.
func (d *daemon) post(path string, body []byte, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sender returns the send function of a load phase; traced runs wrap each
// request in a span whose ID travels to the handler in a header.
func (d *daemon) sender(parent int) func(c call) (int, []byte, error) {
	return func(c call) (int, []byte, error) {
		id := d.tr.begin(parent, "loadgen.request", c.id)
		defer d.tr.end(id)
		var hdr http.Header
		if id != 0 {
			hdr = http.Header{spanHeader: {strconv.Itoa(id)}, keyHeader: {c.id}}
		}
		return d.post("/v1/"+c.kind, c.body, hdr)
	}
}

// Headers that carry the caller's span across HTTP in traced runs.
const (
	spanHeader = "X-Perfbench-Span"
	keyHeader  = "X-Perfbench-Key"
)

// spanHandler records a span named name around every request, parented to
// the caller's span when the request carries one.
func spanHandler(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // absent = root span
		id := tr.begin(parent, name, r.Header.Get(keyHeader))
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// normalizeModel zeroes a model response's per-request fields (elapsed
// time, cache flag) so a memo hit can be compared byte for byte with the
// response that filled the cache.
func normalizeModel(body []byte) ([]byte, error) {
	var r server.ModelResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	r.ElapsedMS, r.Cached = 0, false
	return json.Marshal(r)
}

// warmModels fills the daemon's memo cache with the hot set of the mix,
// keeping each normalized response for the hit checks.
func (d *daemon) warmModels(m serveMix, base int64) error {
	calls := make([]call, m.modelKeys)
	for k := range calls {
		calls[k] = call{id: "warm/" + strconv.Itoa(k), kind: "model", key: k, body: modelBody(m, operandSeed(base, k))}
	}
	for k, o := range drive(calls, nproc(), newRealClock(), d.sender(0)) {
		if o.err != nil || o.status != http.StatusOK {
			return fmt.Errorf("warming /v1/model seed %d: status %d: %v %s", operandSeed(base, k), o.status, o.err, o.body)
		}
		n, err := normalizeModel(o.body)
		if err != nil {
			return err
		}
		d.warm[k] = n
	}
	return nil
}

// checkWarm compares every warm-up response with its committed reference.
func checkWarm(d *daemon, m serveMix, base int64, ref serveRef, t *tally) {
	t.add(m.modelKeys)
	for k := 0; k < m.modelKeys; k++ {
		s := strconv.FormatInt(operandSeed(base, k), 10)
		if digest(d.warm[k]) != ref.Model[s] {
			t.fail("serve model seed %s: warm-up response differs from the reference", s)
		}
	}
}

// serveSetup boots a daemon and warms it, serveSetupReps times; all but
// the last daemon are stopped. It returns the last and the median set-up
// time.
func serveSetup(e *env) (*daemon, float64, error) {
	var setups []time.Duration
	var d *daemon
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(e.trace, nil); err != nil {
			return nil, 0, err
		}
		if err := d.warmModels(e.size.serve, e.benchSeed()); err != nil {
			d.stop()
			return nil, 0, err
		}
		setups = append(setups, time.Since(start))
	}
	return d, medianDur(setups), nil
}

// replaySim computes one sim body directly, exactly as the daemon does:
// the same scaled layer, operand seed and core configuration. It returns
// the simulated cycles and the time SimulateCore took.
func replaySim(tr *tracer, parent int, m serveMix, seed int64) (cycles int64, sim time.Duration) {
	bits := map[string]int{"8b": 8, "4b": 4, "2b": 2}[m.precision]
	n, _ := model.ByName(m.net)                                               // mixes are fixed and valid
	l, _ := experiments.NewQuickBench(seed, m.scale).Scaled(n).Layer(m.layer) // likewise
	key := fmt.Sprintf("%s/%s/%s/seed%d", m.net, m.layer, m.precision, seed)
	g := workload.NewGen(workload.DeriveSeed(seed, "serve-sim", m.net, m.layer, m.precision))
	var f *tensor.FeatureMap
	var w *tensor.KernelStack
	tr.do(parent, "workload.operands", key, func(int) {
		f, w = g.LayerOperands(l, bits, bits, workload.EvalTargets(m.net, bits, bits))
	})
	sim = tr.do(parent, "ristretto.simcore", key, func(int) {
		cycles = ristretto.SimulateCore(f, w, l.Stride, l.Pad, serveShape).Cycles
	})
	return cycles, sim
}

// serveLoad is the measured phase of serve: an open loop at the frozen
// rate, then the closed-loop capacity phase.
type serveLoad struct {
	open, closed       []call
	openOut, closedOut []outcome
	wall, cpu          time.Duration
	capacity           float64 // requests/s: the median over the closed loop's chunks
}

// closedChunks is how many back-to-back chunks the closed loop is sent in.
// Capacity is the median of their rates, so a burst of load from outside
// the benchmark that slows one chunk does not move it.
const closedChunks = 5

// runLoad runs the two load phases: two thirds of seconds at the open-loop
// rate, but at least minOpen calls, then half of seconds at the seed
// commit's capacity, but at least minOpen/2 calls.
func runLoad(e *env, d *daemon, parent int, seconds float64, minOpen int) serveLoad {
	rng := rand.New(rand.NewSource(e.seed))
	nOpen := max(minOpen, int(math.Round(e.size.openRate*seconds*2/3)))
	nClosed := max(minOpen/2, int(math.Round(e.size.closedRate*seconds/2)))
	var l serveLoad
	l.open = serveSchedule("open", rng, nOpen, e.size.openRate, e.size.serve, e.benchSeed())
	l.closed = serveSchedule("closed", rng, nClosed, 0, e.size.serve, e.benchSeed())
	u := readUsage()
	id := d.tr.begin(parent, "loadgen.open", "")
	l.openOut = drive(l.open, nproc(), newRealClock(), d.sender(id))
	d.tr.end(id)
	id = d.tr.begin(parent, "loadgen.closed", "")
	var rates []float64
	for i := 0; i < closedChunks; i++ {
		chunk := l.closed[i*len(l.closed)/closedChunks : (i+1)*len(l.closed)/closedChunks]
		start := time.Now()
		l.closedOut = append(l.closedOut, drive(chunk, nproc(), newRealClock(), d.sender(id))...)
		rates = append(rates, float64(len(chunk))/time.Since(start).Seconds())
	}
	l.capacity = median(rates)
	d.tr.end(id)
	l.wall, l.cpu = u.since()
	return l
}

// checkLoad verifies every response of a load phase: a 200, a sim answered
// by the cycle simulator with the cycles of its committed reference (which
// the direct replay also gave), a model hit byte-identical to its warm-up
// response.
func checkLoad(e *env, d *daemon, calls []call, outs []outcome, ref serveRef, t *tally) {
	t.add(len(calls))
	for i, c := range calls {
		o := outs[i]
		seed := operandSeed(e.benchSeed(), c.key)
		switch {
		case o.err != nil:
			t.fail("serve %s seed %d: %v", c.kind, seed, o.err)
		case o.status != http.StatusOK:
			t.fail("serve %s seed %d: status %d: %.200s", c.kind, seed, o.status, o.body)
		case c.kind == "sim":
			var r server.SimResponse
			want := ref.Sim[strconv.FormatInt(seed, 10)]
			if err := json.Unmarshal(o.body, &r); err != nil {
				t.fail("serve sim seed %d: %v", seed, err)
			} else if r.Degraded || r.Engine != "core-sim" {
				t.fail("serve sim seed %d: degraded to %s", seed, r.Engine)
			} else if r.Cycles != want {
				t.fail("serve sim seed %d: %d cycles, the reference has %d", seed, r.Cycles, want)
			}
		default:
			n, err := normalizeModel(o.body)
			if err != nil || !bytes.Equal(n, d.warm[c.key]) {
				t.fail("serve model seed %d: response differs from its warm-up response", seed)
			}
		}
	}
}

// replayKeys replays every sim key the calls use and checks its cycles
// against the committed reference. It returns cycles per key and the
// summed simulation time.
func replayKeys(e *env, parent int, ref serveRef, t *tally, calls ...[]call) (cycles map[int]int64, sim time.Duration) {
	cycles = map[int]int64{}
	for _, cs := range calls {
		for _, c := range cs {
			if _, ok := cycles[c.key]; ok || c.kind != "sim" {
				continue
			}
			seed := operandSeed(e.benchSeed(), c.key)
			cy, si := replaySim(e.trace, parent, e.size.serve, seed)
			cycles[c.key] = cy
			sim += si
			t.add(1)
			if want := ref.Sim[strconv.FormatInt(seed, 10)]; cy != want {
				t.fail("direct replay of sim seed %d: %d cycles, the reference has %d", seed, cy, want)
			}
		}
	}
	return cycles, sim
}

// openLoopLatencies returns the sim latencies (from due time) and the
// generator lateness of every call of the open loop, in milliseconds.
func openLoopLatencies(l serveLoad) (simMS, lateMS []float64) {
	for i, c := range l.open {
		o := l.openOut[i]
		if c.kind == "sim" {
			simMS = append(simMS, ms(o.latency(c)))
		}
		lateMS = append(lateMS, ms(o.late(c)))
	}
	return simMS, lateMS
}

// runServe is the serve workload.
func runServe(e *env) (map[string]metric, tally, error) {
	var t tally
	ref, err := loadServeRef(e.size.name)
	if err != nil {
		return nil, t, err
	}
	d, setup, err := serveSetup(e)
	if err != nil {
		return nil, t, err
	}
	checkWarm(d, e.size.serve, e.benchSeed(), ref, &t)
	l := runLoad(e, d, 0, e.seconds, minOpenCalls)
	rss := peakRSSMB()
	d.stop()
	cycles, _ := replayKeys(e, 0, ref, &t, l.open, l.closed)
	checkLoad(e, d, l.open, l.openOut, ref, &t)
	checkLoad(e, d, l.closed, l.closedOut, ref, &t)

	simMS, lateMS := openLoopLatencies(l)
	p50, err := percentile(simMS, 0.50, tailMin)
	if err != nil {
		return nil, t, err
	}
	p95, err := percentile(simMS, 0.95, tailMin)
	if err != nil {
		return nil, t, err
	}
	late95, err := percentile(lateMS, 0.95, tailMin)
	if err != nil {
		return nil, t, err
	}
	var total int64
	for _, c := range cycles {
		total += c
	}
	fmt.Fprintf(e.out, "serve: open loop %d calls at %.0f/s (%d sims, generator late p95 %.2f ms), closed loop %d calls; operand seeds from %d; replayed sim cycles %d\n",
		len(l.open), e.size.openRate, len(simMS), late95, len(l.closed), e.benchSeed(), total)
	return map[string]metric{
		"setup_s":      {setup, "s"},
		"wall_s":       {l.wall.Seconds(), "s"},
		"cpu_s":        {l.cpu.Seconds(), "s"},
		"peak_rss_mb":  {rss, "MB"},
		"p50_ms":       {p50, "ms"},
		"p95_ms":       {p95, "ms"},
		"capacity_rps": {l.capacity, "1/s"},
	}, t, nil
}
