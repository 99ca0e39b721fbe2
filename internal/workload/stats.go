package workload

import (
	"ristretto/internal/atom"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/tensor"
)

// LayerStats carries everything the analytic performance models need about
// one layer's operands: value/atom densities, per-input-channel atom counts
// (for load balancing and channel-wise tile mapping), and effectual-term
// histograms (for the bit-serial Laconic model).
type LayerStats struct {
	Layer        model.Layer
	WBits, ABits int
	Gran         atom.Granularity

	W quant.Stats // weights
	A quant.Stats // input activations

	// Per input channel c: non-zero atoms of the activation plane (T_c) and
	// of the kernel slice across all K output channels (S_c). These feed
	// Eq. 3/5 and the Figure 18 balancing study.
	ActAtomsPerChan []int
	WAtomsPerChan   []int
	ActNZPerChan    []int
	WNZPerChan      []int

	// Per output channel (filter) k: non-zero weights and atoms. SparTen
	// assigns filters to compute units greedily by these statistics.
	WNZPerFilter    []int
	WAtomsPerFilter []int

	// Effectual-term histograms (index = #terms, value = element count,
	// including zero values at index 0) for Laconic's ta×tw workloads.
	ATermHist []int
	WTermHist []int
}

// newLayerStats returns LayerStats with its per-channel and per-filter
// slices allocated and nothing measured.
func newLayerStats(l model.Layer, wbits, abits int, gran atom.Granularity) LayerStats {
	return LayerStats{
		Layer: l, WBits: wbits, ABits: abits, Gran: gran,
		ActAtomsPerChan: make([]int, l.C),
		WAtomsPerChan:   make([]int, l.C),
		ActNZPerChan:    make([]int, l.C),
		WNZPerChan:      make([]int, l.C),
		WNZPerFilter:    make([]int, l.K),
		WAtomsPerFilter: make([]int, l.K),
	}
}

// StatsFromTensors measures LayerStats from materialized operands. It is
// the reference the generator's fused LayerStats must equal: the same
// pass 2 with nothing left to prune.
func StatsFromTensors(l model.Layer, f *tensor.FeatureMap, k *tensor.KernelStack, gran atom.Granularity, booth bool) LayerStats {
	s := newLayerStats(l, k.Bits, f.Bits, gran)
	aHist := quant.Histogram(f.Data)
	tab := newCounts(len(aHist), f.Bits, gran)
	for c := 0; c < l.C; c++ {
		s.ActNZPerChan[c], s.ActAtomsPerChan[c] = unpack(atLeast(tab, f.Channel(c), 0))
	}
	s.A = quant.MeasureHist(aHist, f.Bits, gran)
	s.ATermHist = atom.TermHistogramOf(aHist, booth)
	measureWeights(&s, k.Data, k.K, k.C, k.KH*k.KW, quant.Histogram(k.Data), quant.Plan{}, booth)
	return s
}

// LayerStats generates a layer's operands and measures their statistics in
// one step. The booth flag selects NAF (true) or popcount term counting for
// the bit-serial histograms. It draws exactly what LayerOperands draws and
// returns exactly StatsFromTensors of those operands, without building
// them: each operand is quantized into a 2-byte staging buffer with its
// magnitude histogram (pass 1), and the pruning plan is applied while
// counting (pass 2). It panics on a bit width LayerOperands rejects.
func (g *Gen) LayerStats(l model.Layer, wbits, abits int, gran atom.Granularity, t Targets, booth bool) LayerStats {
	tensor.CheckBits(abits)
	tensor.CheckBits(wbits)
	wq := weightQuantizer(wbits) // panics below 2 bits
	s := newLayerStats(l, wbits, abits, gran)

	aq := actQuantizer(abits)
	plane := make([]uint16, l.H*l.W)
	hist := make([]int, 1<<abits)
	aHist := make([]int, len(hist))
	tab := newCounts(len(hist), abits, gran)
	for c := 0; c < l.C; c++ {
		p := synth(g, plane, aq, hist, channelDensity(t.ADensity, c))
		s.ActNZPerChan[c], s.ActAtomsPerChan[c] = unpack(kept(tab, plane, p, quant.Cut(plane, p)))
		p.PruneHist(hist)
		for m, n := range hist {
			aHist[m] += n
		}
	}
	s.A = quant.MeasureHist(aHist, abits, gran)
	s.ATermHist = atom.TermHistogramOf(aHist, booth)

	stage := make([]int16, l.K*l.C*l.KH*l.KW)
	wHist := make([]int, 1<<(wbits-1))
	p := synth(g, stage, wq, wHist, t.WDensity)
	measureWeights(&s, stage, l.K, l.C, l.KH*l.KW, wHist, p, booth)
	return s
}

// measureWeights is the weight side of pass 2: one walk over a
// k×c×(kh·kw) stack fills the per-channel and per-filter counts of the
// values p keeps, then W and WTermHist follow from the magnitude histogram
// hist that p was planned from.
func measureWeights[E quant.Int](s *LayerStats, data []E, k, c, row int, hist []int, p quant.Plan, booth bool) {
	tab := newCounts(len(hist), s.WBits, s.Gran)
	chans, filters := make([]uint64, c), make([]uint64, k)
	// Rows wholly before the cut keep magnitudes >= T, rows after it > T;
	// the row holding the cut, if any, is split.
	cut := quant.Cut(data, p)
	r := cut / row
	addRows(tab, data, row, p.T, 0, r, chans, filters)
	if cut%row != 0 {
		sum := kept(tab, data[r*row:(r+1)*row], p, cut-r*row)
		chans[r%c] += sum
		filters[r/c] += sum
		r++
	}
	addRows(tab, data, row, p.T+1, r, k*c, chans, filters)
	for cc, sum := range chans {
		s.WNZPerChan[cc], s.WAtomsPerChan[cc] = unpack(sum)
	}
	for kk, sum := range filters {
		s.WNZPerFilter[kk], s.WAtomsPerFilter[kk] = unpack(sum)
	}
	p.PruneHist(hist)
	s.W = quant.MeasureHist(hist, s.WBits, s.Gran)
	s.WTermHist = atom.TermHistogramOf(hist, booth)
}

// addRows adds the packed counts of rows [r0, r1) of data, row values
// each, to their channel (r mod len(chans)) and filter (r div len(chans)),
// counting magnitudes of at least lim.
func addRows[E quant.Int](tab counts, data []E, row, lim, r0, r1 int, chans, filters []uint64) {
	c := len(chans)
	kk, cc := r0/c, r0%c
	for r := r0; r < r1; r++ {
		sum := atLeast(tab, data[r*row:(r+1)*row], lim)
		chans[cc] += sum
		filters[kk] += sum
		if cc++; cc == c {
			cc, kk = 0, kk+1
		}
	}
}

// counts is pass 2's lookup table: entry m packs one non-zero value of
// magnitude m and its non-zero atoms as 1<<32 | atoms (0 for m = 0), so the
// sum of entries over a run of values is nz<<32 | atoms.
type counts []uint64

// newCounts returns the table over magnitudes 0..size-1 of bits-wide
// values at granularity gran.
func newCounts(size, bits int, gran atom.Granularity) counts {
	tab := make(counts, size)
	for m := 1; m < size; m++ {
		tab[m] = 1<<32 | uint64(atom.CountNonZero(int32(m), bits, gran))
	}
	return tab
}

// kept returns the packed counts of the values of data that plan p keeps,
// cut being quant.Cut's index relative to data[0] (it may lie outside).
func kept[E quant.Int](tab counts, data []E, p quant.Plan, cut int) uint64 {
	mid := min(max(cut, 0), len(data))
	return atLeast(tab, data[:mid], p.T) + atLeast(tab, data[mid:], p.T+1)
}

// unpack splits a packed count into non-zeros and non-zero atoms.
func unpack(sum uint64) (nz, atoms int) { return int(sum >> 32), int(uint32(sum)) }

// atLeast sums the table entries of the values of data with magnitude at
// least lim, branch-free.
func atLeast[E quant.Int](tab counts, data []E, lim int) uint64 {
	var sum uint64
	for _, v := range data {
		m := quant.Mag(v)
		sum += tab[m] & uint64(int64(lim-1-m)>>63)
	}
	return sum
}

// NetworkStats generates statistics for every layer of a network under a
// precision assignment.
func (g *Gen) NetworkStats(n *model.Network, p model.Precision, gran atom.Granularity, booth bool) []LayerStats {
	out := make([]LayerStats, len(n.Layers))
	for i, l := range n.Layers {
		t := EvalTargets(n.Name, p.WBits[i], p.ABits[i])
		out[i] = g.LayerStats(l, p.WBits[i], p.ABits[i], gran, t, booth)
	}
	return out
}

// TotalActAtoms returns the total non-zero activation atoms (T in Eq. 5).
func (s *LayerStats) TotalActAtoms() int { return s.A.NonZeroAtoms }

// TotalWAtoms returns the total non-zero weight atoms (S summed over chans).
func (s *LayerStats) TotalWAtoms() int { return s.W.NonZeroAtoms }
