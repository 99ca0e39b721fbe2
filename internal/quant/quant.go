// Package quant implements the uniform quantization and magnitude pruning
// used to produce the low-precision sparse operands of the study, plus the
// value/atom density statistics (αv, αa, βv, βa) that govern condensed
// streaming computation latency.
//
// The paper quantizes ImageNet-trained networks with a uniform quantizer and
// reports (Figure 1) that sparsity of both weights and activations grows as
// bit-width shrinks, reaching 47.43%/75.25% average weight/activation
// sparsity at 2 bits without pruning. We reproduce the mechanism: a uniform
// symmetric quantizer maps every value whose magnitude falls below half a
// quantization step to zero, so coarser steps (fewer bits) produce more
// zeros. The clip point (in units of the distribution's standard deviation)
// is per-bit-width calibrated the way learned-step quantization schemes
// behave: aggressive clipping at low bit-widths.
package quant

import (
	"fmt"
	"math"

	"ristretto/internal/atom"
)

// Config selects a uniform quantizer.
type Config struct {
	Bits      int     // target bit-width (2..8, or 16)
	ClipSigma float64 // clip point in standard deviations of the source data
}

// DefaultWeightClip returns a clip point (in σ) for signed weight
// quantization at the given bit-width. The values follow the trend of
// learned clipping (PACT/LSQ-style): tight clips at low precision. With
// Gaussian weights they yield zero fractions matching Figure 1's trend
// (≈47% at 2 bits, low single digits at 8 bits).
func DefaultWeightClip(bits int) float64 {
	switch {
	case bits <= 2:
		return 1.28
	case bits <= 3:
		return 1.8
	case bits <= 4:
		return 2.5
	case bits <= 6:
		return 3.2
	default:
		return 4.0
	}
}

// DefaultActClip returns a clip point (in σ of the pre-ReLU distribution)
// for unsigned activation quantization. Post-ReLU activations are half-
// Gaussian, so ~50% are already zero; the quantization dead-zone adds more
// at low bit-widths (≈75% total at 2 bits per Figure 1).
func DefaultActClip(bits int) float64 {
	switch {
	case bits <= 2:
		return 4.0
	case bits <= 3:
		return 4.0
	case bits <= 4:
		return 4.2
	case bits <= 6:
		return 4.5
	default:
		return 5.0
	}
}

// Quantizer is a uniform quantizer resolved for one Config and source
// standard deviation. Code is the one rounding/clamping formula behind
// QuantizeSigned, QuantizeUnsigned and the workload generator.
type Quantizer struct {
	scale  float64 // source units per code step (clip / qmax)
	lo, hi int32   // clamp range of the codes
}

// Signed returns the symmetric signed quantizer of QuantizeSigned: codes in
// (-(1<<(bits-1)), 1<<(bits-1)), the most negative code excluded so
// magnitudes fit bits-1 bits, as sign-magnitude atomization requires.
func Signed(std float64, cfg Config) Quantizer {
	if cfg.Bits < 2 {
		panic(fmt.Sprintf("quant: signed quantization needs >=2 bits, got %d", cfg.Bits))
	}
	qmax := int32(1)<<(cfg.Bits-1) - 1
	return Quantizer{scale: cfg.ClipSigma * std / float64(qmax), lo: -qmax, hi: qmax}
}

// Unsigned returns the ReLU-then-uniform quantizer of QuantizeUnsigned:
// codes in [0, 1<<bits), every non-positive value mapping to 0.
func Unsigned(std float64, cfg Config) Quantizer {
	qmax := int32(1)<<cfg.Bits - 1
	return Quantizer{scale: cfg.ClipSigma * std / float64(qmax), lo: 0, hi: qmax}
}

// Code quantizes one value (not NaN): round half away from zero in units
// of the step, as math.Round does, then clamp. For a positive step,
// clamping at 0 is exactly ReLU. Rounding is branch-free: truncate, then
// step away from zero when the dropped fraction f has |f| >= 0.5, which
// int32(2f) in {-1, 0, 1} is (f is exact while |v/step| < 2^30; a value
// beyond that is clamped first, which gives the same code).
func (q Quantizer) Code(v float64) int32 {
	a := v / q.scale
	if !(math.Abs(a) < 1<<30) {
		a = min(max(a, float64(q.lo)), float64(q.hi))
	}
	r := int32(a)
	r += int32(2 * (a - float64(r)))
	return min(max(r, q.lo), q.hi)
}

// quantize codes every value of x.
func (q Quantizer) quantize(x []float64) []int32 {
	out := make([]int32, len(x))
	for i, v := range x {
		out[i] = q.Code(v)
	}
	return out
}

// QuantizeSigned quantizes real-valued weights (with standard deviation std)
// to symmetric signed integers; see Signed.
func QuantizeSigned(x []float64, std float64, cfg Config) []int32 {
	return Signed(std, cfg).quantize(x)
}

// QuantizeUnsigned quantizes real-valued pre-activation values (standard
// deviation std) through ReLU and a uniform unsigned quantizer to
// [0, 1<<bits); see Unsigned.
func QuantizeUnsigned(x []float64, std float64, cfg Config) []int32 {
	return Unsigned(std, cfg).quantize(x)
}

// Int is the set of integer element types operands are staged in: int32
// tensors, and the compact int16 (signed) and uint16 (unsigned) staging
// buffers of the workload generator, wide enough for every tensor width.
type Int interface{ ~int16 | ~uint16 | ~int32 }

// Mag returns |v|, branch-free: the signs of quantized operands are random,
// so a branch on them mispredicts every other value.
func Mag[E Int](v E) int {
	x := int(v)
	s := x >> 63
	return (x ^ s) - s
}

// Keep returns how many non-zeros magnitude pruning to density leaves of n
// values at most: ceil(density*n).
func Keep(density float64, n int) int {
	if density < 0 || density > 1 {
		panic(fmt.Sprintf("quant: invalid target density %v", density))
	}
	return int(math.Ceil(density * float64(n)))
}

// Plan is a magnitude-pruning decision: keep every value of magnitude above
// T, plus the first Surplus values of magnitude exactly T in index order,
// and zero the rest. The zero Plan keeps everything.
type Plan struct {
	T       int // threshold magnitude (0: nothing is pruned)
	Surplus int // values of magnitude T kept, the first ones in index order
}

// PlanPrune picks the plan that leaves keep non-zeros of values whose
// magnitude histogram is hist (hist[m] values of magnitude m, nz of them
// non-zero): the smallest threshold t with at most keep values above it,
// topped up to exactly keep from the values at t. With nz <= keep nothing
// is pruned. This is the one threshold rule of the repository.
func PlanPrune(hist []int, nz, keep int) Plan {
	if nz <= keep {
		return Plan{}
	}
	remain := nz // values above t
	t := 1
	for ; ; t++ {
		remain -= hist[t]
		if remain <= keep {
			break
		}
	}
	return Plan{T: t, Surplus: keep - remain}
}

// Cut returns the index from which p prunes values of magnitude T: the
// position of the (Surplus+1)-th such value of data, or len(data) when p
// prunes none. Before the cut p keeps magnitudes >= T, from it on > T.
func Cut[E Int](data []E, p Plan) int {
	if p.T == 0 {
		return len(data)
	}
	left := p.Surplus // ties still kept; the scan stops when it goes negative
	for i, v := range data {
		left -= ((Mag(v) ^ p.T) - 1) >> 63 & 1 // 1 on a tie, branch-free
		if left < 0 {
			return i
		}
	}
	return len(data)
}

// Apply zeroes, in place, the values of data that p prunes.
func (p Plan) Apply(data []int32) {
	if p.T == 0 {
		return
	}
	cut := Cut(data, p)
	zeroBelow(data[:cut], p.T)
	zeroBelow(data[cut:], p.T+1)
}

// zeroBelow zeroes the values of data with magnitude below lim,
// branch-free.
func zeroBelow(data []int32, lim int) {
	for i, v := range data {
		data[i] = v & int32((lim-1-Mag(v))>>63)
	}
}

// PruneHist applies p to the magnitude histogram it was planned from: the
// counts it prunes move to magnitude 0.
func (p Plan) PruneHist(hist []int) {
	if p.T == 0 {
		return
	}
	dropped := hist[p.T] - p.Surplus
	for m := 1; m < p.T; m++ {
		dropped += hist[m]
		hist[m] = 0
	}
	hist[p.T] = p.Surplus
	hist[0] += dropped
}

// Histogram returns the magnitude histogram of data: h[m] counts the values
// of magnitude m. It has at least one entry.
func Histogram(data []int32) []int {
	h := make([]int, 1, 256)
	for _, v := range data {
		a := Mag(v)
		if a >= len(h) {
			h = append(h, make([]int, a+1-len(h))...)
		}
		h[a]++
	}
	return h
}

// PruneToDensity zeroes the smallest-magnitude values of data in place until
// at most ceil(density*len) non-zeros remain (magnitude pruning). Values
// already zero count toward the pruned set. It returns the achieved density.
func PruneToDensity(data []int32, density float64) float64 {
	keep := Keep(density, len(data))
	hist := Histogram(data)
	nz := len(data) - hist[0]
	PlanPrune(hist, nz, keep).Apply(data)
	return float64(min(nz, keep)) / float64(len(data))
}

// Stats summarizes the sparsity structure of a quantized operand at a given
// atom granularity.
type Stats struct {
	Len          int     // total values
	NonZero      int     // non-zero values
	ValueDensity float64 // αv or βv
	AtomDensity  float64 // αa or βa (among atoms of non-zero values)
	NonZeroAtoms int     // compressed stream length
	DenseAtoms   int     // stream length with sparsity disabled
}

// Measure computes Stats over data at the given bit-width and atom size.
func Measure(data []int32, bits int, n atom.Granularity) Stats {
	nz, atoms := 0, 0
	for _, v := range data {
		if v != 0 {
			nz++
			atoms += atom.CountNonZero(v, bits, n)
		}
	}
	return measured(len(data), nz, atoms, bits, n)
}

// MeasureHist is Measure over the values a magnitude histogram counts
// (hist[m] values of magnitude m), without touching the values.
func MeasureHist(hist []int, bits int, n atom.Granularity) Stats {
	total, nz, atoms := 0, 0, 0
	for m, c := range hist {
		total += c
		if m > 0 && c > 0 {
			nz += c
			atoms += c * atom.CountNonZero(int32(m), bits, n)
		}
	}
	return measured(total, nz, atoms, bits, n)
}

// measured derives Stats from its integer counts.
func measured(length, nz, atoms, bits int, n atom.Granularity) Stats {
	s := Stats{Len: length, NonZero: nz, NonZeroAtoms: atoms, DenseAtoms: length * n.Count(bits)}
	if length > 0 {
		s.ValueDensity = float64(nz) / float64(length)
	}
	if nz > 0 {
		s.AtomDensity = float64(atoms) / float64(nz*n.Count(bits))
	}
	return s
}

// Sparsity returns 1 - ValueDensity, the fraction the paper's Figure 1 plots.
func (s Stats) Sparsity() float64 { return 1 - s.ValueDensity }
