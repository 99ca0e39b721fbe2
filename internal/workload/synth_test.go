package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/tensor"
)

// statsOracle is the original StatsFromTensors, kept verbatim as the
// definition of LayerStats: four walks (Measure twice, the per-channel and
// per-filter loop through KernelStack.At, TermHistogram twice).
func statsOracle(l model.Layer, f *tensor.FeatureMap, k *tensor.KernelStack, gran atom.Granularity, booth bool) LayerStats {
	s := LayerStats{
		Layer: l, WBits: k.Bits, ABits: f.Bits, Gran: gran,
		ActAtomsPerChan: make([]int, l.C),
		WAtomsPerChan:   make([]int, l.C),
		ActNZPerChan:    make([]int, l.C),
		WNZPerChan:      make([]int, l.C),
		WNZPerFilter:    make([]int, l.K),
		WAtomsPerFilter: make([]int, l.K),
	}
	s.A = quant.Measure(f.Data, f.Bits, gran)
	s.W = quant.Measure(k.Data, k.Bits, gran)
	for c := 0; c < l.C; c++ {
		for _, v := range f.Channel(c) {
			if v != 0 {
				s.ActNZPerChan[c]++
				s.ActAtomsPerChan[c] += atom.CountNonZero(v, f.Bits, gran)
			}
		}
	}
	for kk := 0; kk < k.K; kk++ {
		for c := 0; c < k.C; c++ {
			for y := 0; y < k.KH; y++ {
				for x := 0; x < k.KW; x++ {
					if v := k.At(kk, c, y, x); v != 0 {
						s.WNZPerChan[c]++
						na := atom.CountNonZero(v, k.Bits, gran)
						s.WAtomsPerChan[c] += na
						s.WNZPerFilter[kk]++
						s.WAtomsPerFilter[kk] += na
					}
				}
			}
		}
	}
	s.ATermHist = atom.TermHistogram(f.Data, booth)
	s.WTermHist = atom.TermHistogram(k.Data, booth)
	return s
}

// operandsOracle is the original LayerOperands: every operand drawn into a
// []float64, quantized to a fresh []int32, copied into the tensor and pruned
// there. (The quantizers and PruneToDensity are pinned to their own
// originals in package quant.)
func operandsOracle(g *Gen, l model.Layer, wbits, abits int, t Targets) (*tensor.FeatureMap, *tensor.KernelStack) {
	f := tensor.NewFeatureMap(l.C, l.H, l.W, abits)
	raw := make([]float64, l.H*l.W)
	for ch := 0; ch < l.C; ch++ {
		for i := range raw {
			raw[i] = g.rng.NormFloat64()
		}
		q := quant.QuantizeUnsigned(raw, 1, quant.Config{Bits: abits, ClipSigma: quant.DefaultActClip(abits)})
		plane := f.Channel(ch)
		copy(plane, q)
		factor := 0.4 + 1.2*float64(splitmix(uint64(ch)+0x9e37)%1024)/1023
		quant.PruneToDensity(plane, clamp01(t.ADensity*factor))
	}
	ks := tensor.NewKernelStack(l.K, l.C, l.KH, l.KW, wbits)
	raw = make([]float64, ks.Len())
	for i := range raw {
		raw[i] = g.rng.NormFloat64()
	}
	copy(ks.Data, quant.QuantizeSigned(raw, 1, quant.Config{Bits: wbits, ClipSigma: quant.DefaultWeightClip(wbits)}))
	quant.PruneToDensity(ks.Data, t.WDensity)
	return f, ks
}

// TestLayerStatsMatchesOracle pins the fused two-pass LayerStats, the
// materialized LayerOperands and the table-driven StatsFromTensors to the
// original four-walk statistics of the original operands, on random small
// layers that reach every tensor width and granularity, both term
// counters, 1×1 and odd kernels, and the pruning edge cases: densities
// 0, 0.02 and 1, keep at or above the non-zeros (no pruning), and 2-bit
// weights, whose non-zeros all tie at magnitude 1.
func TestLayerStatsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	densities := []float64{0, 0.02, 0.3, 0.5, 1}
	for i := 0; i < 400; i++ {
		l := model.Layer{
			Name: "t", C: 1 + rng.Intn(12), H: 1 + rng.Intn(9), W: 1 + rng.Intn(9),
			K: 1 + rng.Intn(12), KH: 1 + 2*rng.Intn(3), KW: 1 + 2*rng.Intn(2), Stride: 1,
		}
		wbits, abits := 2+rng.Intn(7), 1+rng.Intn(8)
		if i%10 == 0 {
			wbits, abits = 16, 16
		}
		gran := atom.Granularity(1 + i%4)
		booth := i%3 != 0
		tg := Targets{WDensity: densities[rng.Intn(len(densities))], ADensity: densities[rng.Intn(len(densities))]}
		if i%2 == 0 {
			tg.WDensity = rng.Float64()
		}
		seed := rng.Int63()
		name := fmt.Sprintf("case %d: %+v w%d a%d gran %d booth %v %+v", i, l, wbits, abits, gran, booth, tg)

		f, k := operandsOracle(NewGen(seed), l, wbits, abits, tg)
		want := statsOracle(l, f, k, gran, booth)
		gf, gk := NewGen(seed).LayerOperands(l, wbits, abits, tg)
		if !reflect.DeepEqual(gf, f) || !reflect.DeepEqual(gk, k) {
			t.Fatalf("%s: LayerOperands differ from the original operands", name)
		}
		if got := StatsFromTensors(l, f, k, gran, booth); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: StatsFromTensors\n got %+v\nwant %+v", name, got, want)
		}
		if got := NewGen(seed).LayerStats(l, wbits, abits, gran, tg, booth); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: LayerStats\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestNetworkStatsMatchesOperands checks LayerStats against
// StatsFromTensors(LayerOperands) over every layer of every benchmark
// network at a quarter of its spatial size, as the sweep synthesizes them.
// The networks rotate through the precisions (2, 3, 4 and 8 bits and the
// 2/4-bit mix), the four granularities and both term counters.
func TestNetworkStatsMatchesOperands(t *testing.T) {
	precisions := []string{"2b", "3b", "4b", "8b", "mix2/4"}
	for i, n := range model.Benchmark() {
		var p model.Precision
		switch prec := precisions[i%len(precisions)]; prec {
		case "mix2/4":
			p = model.Mixed24(n, 1)
		default:
			p = model.Uniform(n, int(prec[0]-'0'))
		}
		gran, booth := atom.Granularity(1+i%4), i%2 == 0
		seed := DeriveSeed(1, "equivalence", n.Name)
		g, ref := NewGen(seed), NewGen(seed)
		for li, l := range n.Layers {
			l.H, l.W = max(l.H/4, l.KH+l.Stride), max(l.W/4, l.KW+l.Stride)
			tg := EvalTargets(n.Name, p.WBits[li], p.ABits[li])
			got := g.LayerStats(l, p.WBits[li], p.ABits[li], gran, tg, booth)
			f, k := ref.LayerOperands(l, p.WBits[li], p.ABits[li], tg)
			if want := StatsFromTensors(l, f, k, gran, booth); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s (%s, gran %d, booth %v): LayerStats differs from StatsFromTensors(LayerOperands)",
					n.Name, l.Name, precisions[i%len(precisions)], gran, booth)
			}
		}
	}
}

// TestLayerStatsRejectsWidths checks that LayerStats panics on the bit
// widths LayerOperands rejects, rather than wrapping them in its staging
// buffers.
func TestLayerStatsRejectsWidths(t *testing.T) {
	l := model.Layer{Name: "conv", C: 2, K: 2, H: 4, W: 4, KH: 3, KW: 3, Stride: 1}
	tg := Targets{WDensity: 0.5, ADensity: 0.5}
	for _, w := range [][2]int{{8, 0}, {8, 17}, {17, 8}, {1, 8}, {0, 8}} {
		for name, run := range map[string]func(){
			"LayerStats":    func() { NewGen(1).LayerStats(l, w[0], w[1], 2, tg, false) },
			"LayerOperands": func() { NewGen(1).LayerOperands(l, w[0], w[1], tg) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted wbits=%d abits=%d", name, w[0], w[1])
					}
				}()
				run()
			}()
		}
	}
}
