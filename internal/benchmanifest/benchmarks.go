// Package benchmanifest defines the tracked micro-benchmark suite behind the
// repo's perf trajectory (ROADMAP item 1) and the committed BENCH_*.json
// manifests that pin it.
//
// The same registry backs two consumers: `go test -bench Manifest .` (the
// bench_test.go wrapper at the repo root) and `ristretto-bench
// -bench-manifest`, which runs every entry through testing.Benchmark, writes
// a ristretto.bench-manifest/v1 JSON document, and optionally compares it
// against a committed manifest with a regression tolerance (the CI gate).
// Benchmark names are stable identifiers: a manifest diff across PRs is the
// perf trajectory, so entries may be re-implemented (the hot path they
// measure is the contract) but not renamed or dropped casually.
package benchmanifest

import (
	"math/rand"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/core"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/ristretto"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// Benchmark is one named entry of the tracked suite.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// Registry returns the tracked micro-benchmark suite. Every entry reports
// allocations; the tile/core simulator entries are the ones the ~zero
// allocs/op acceptance gate watches.
func Registry() []Benchmark {
	return []Benchmark{
		{Name: "tile/intersect_16x16", Fn: benchTileIntersect},
		{Name: "tile/intersect_contended", Fn: benchTileContended},
		{Name: "core/sim_layer_8x8x4", Fn: benchCoreSimLayer},
		{Name: "core/act_stream_16x16", Fn: benchActStream},
		{Name: "core/weight_stream_16k", Fn: benchWeightStream},
		{Name: "atom/decompose_sweep_8b", Fn: benchAtomDecompose},
		{Name: "workload/network_stats_vgg16_s4", Fn: benchNetworkStats},
		{Name: "workload/stats_from_tensors_1m", Fn: benchStatsFromTensors},
		{Name: "quant/quantize_signed_1m", Fn: benchQuantizeSigned},
		{Name: "quant/prune_to_density_1m", Fn: benchPruneToDensity},
	}
}

// benchTileIntersect is the canonical tile-simulator hot path: a 16×16 tile
// against 16 3×3 kernels at realistic density, one intersection per
// iteration, output buffer and scratch reused across iterations.
func benchTileIntersect(b *testing.B) {
	g := workload.NewGen(2)
	f := g.FeatureMapExact(1, 16, 16, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(16, 1, 3, 3, 8, 2, 0.5, 0.7)
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 16, H: 16}), 8, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	cfg := ristretto.TileConfig{Mults: 32, Gran: 2, FIFODepth: 4}
	out := tensor.NewOutputMap(16, 18, 18)
	scratch := ristretto.NewTileScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ristretto.SimulateIntersectionScratch(acts, ws, 3, 3, 16, 16, out, cfg, scratch)
	}
}

// benchTileContended forces crossbar back-pressure: a single output channel
// funnels every delivery into one accumulate bank behind shallow FIFOs, so
// the stall/conflict paths dominate.
func benchTileContended(b *testing.B) {
	g := workload.NewGen(9)
	f := g.FeatureMapExact(1, 12, 12, 2, 2, 1.0, 1.0)
	w := g.KernelsExact(1, 1, 3, 3, 8, 2, 1.0, 1.0)
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 12, H: 12}), 2, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	cfg := ristretto.TileConfig{Mults: 8, Gran: 2, FIFODepth: 2}
	out := tensor.NewOutputMap(1, 14, 14)
	scratch := ristretto.NewTileScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ristretto.SimulateIntersectionScratch(acts, ws, 3, 3, 12, 12, out, cfg, scratch)
	}
}

// benchCoreSimLayer runs the whole lockstep core simulator on a small layer,
// including stream building and balancing — the end-to-end cycle-sim cost
// the daemon's /v1/sim pays per request.
func benchCoreSimLayer(b *testing.B) {
	g := workload.NewGen(52)
	f := g.FeatureMapExact(4, 8, 8, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(4, 4, 3, 3, 8, 2, 0.5, 0.7)
	cfg := ristretto.CoreSimConfig{Tiles: 4, Tile: ristretto.TileConfig{Mults: 8, Gran: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ristretto.SimulateCore(f, w, 1, 1, cfg)
	}
}

// benchActStream measures building one tile's compressed activation atom
// stream from the feature map — now the fused bitmap-word zero-skipping
// builder (the hot path measured is the contract, not the call).
func benchActStream(b *testing.B) {
	g := workload.NewGen(4)
	f := g.FeatureMapExact(1, 16, 16, 8, 2, 0.5, 0.7)
	tl := tensor.Tile{W: 16, H: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acts := core.StreamTileActs(f, 0, tl, 2)
		if len(acts) == 0 {
			b.Fatal("empty stream")
		}
	}
}

// benchWeightStream measures building one input channel's shuffled static
// weight stream (flatten + atomize + slice-major channel-first shuffle).
func benchWeightStream(b *testing.B) {
	g := workload.NewGen(5)
	w := g.KernelsExact(64, 1, 3, 3, 8, 2, 0.6, 0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
		if len(ws) == 0 {
			b.Fatal("empty stream")
		}
	}
}

// benchAtomDecompose sweeps every 8-bit magnitude through the atomizer
// decomposition — the innermost stream-building kernel.
func benchAtomDecompose(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int32(0); v < 256; v++ {
			atom.Decompose(v, 8, 2)
		}
	}
}

// benchNetworkStats synthesizes the statistics of every VGG-16 layer at
// 4 bits and scale 4, as one stats key of the scale-4 sweep: the workload
// synthesis that dominates a cold sweep.
func benchNetworkStats(b *testing.B) {
	n := experiments.NewQuickBench(1, 4).Scaled(model.VGG16())
	p := model.Uniform(n, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.NewGen(int64(i)).NetworkStats(n, p, 2, true)
	}
}

// synthLayer is the ~1M-value layer of the synthesis micro-benchmarks:
// AlexNet conv4, 384×384×3×3 weights.
var synthLayer = model.Layer{Name: "conv4", C: 384, H: 13, W: 13, K: 384, KH: 3, KW: 3, Stride: 1, Pad: 1}

// benchStatsFromTensors measures the reference statistics walk over one
// layer's materialized 4-bit operands.
func benchStatsFromTensors(b *testing.B) {
	f, k := workload.NewGen(3).LayerOperands(synthLayer, 4, 4, workload.Targets{WDensity: 0.4, ADensity: 0.35})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.StatsFromTensors(synthLayer, f, k, 2, true)
	}
}

// synthWeights returns Gaussian stand-ins for the layer's weights.
func synthWeights() []float64 {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, synthLayer.Weights())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// benchQuantizeSigned quantizes the layer's weights to 8 bits.
func benchQuantizeSigned(b *testing.B) {
	x := synthWeights()
	cfg := quant.Config{Bits: 8, ClipSigma: quant.DefaultWeightClip(8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.QuantizeSigned(x, 1, cfg)
	}
}

// benchPruneToDensity prunes the layer's 8-bit weights to 35% density,
// restoring them from a copy each iteration (the copy is timed too).
func benchPruneToDensity(b *testing.B) {
	q := quant.QuantizeSigned(synthWeights(), 1, quant.Config{Bits: 8, ClipSigma: quant.DefaultWeightClip(8)})
	buf := make([]int32, len(q))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, q)
		quant.PruneToDensity(buf, 0.35)
	}
}
