package quant

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The oracles below are the original implementations the quantizer and
// the pruning planner replaced, kept verbatim as the definition of their
// output: math.Round quantization, and pruning by three counting passes
// (non-zeros, max magnitude, histogram) then a zeroing pass that keeps the
// surplus at the threshold in index order.

func quantizeSignedOracle(x []float64, std float64, cfg Config) []int32 {
	clip := cfg.ClipSigma * std
	qmax := float64(int32(1)<<(cfg.Bits-1) - 1)
	scale := clip / qmax
	out := make([]int32, len(x))
	for i, v := range x {
		q := math.Round(v / scale)
		if q > qmax {
			q = qmax
		}
		if q < -qmax {
			q = -qmax
		}
		out[i] = int32(q)
	}
	return out
}

func quantizeUnsignedOracle(x []float64, std float64, cfg Config) []int32 {
	clip := cfg.ClipSigma * std
	qmax := float64(int32(1)<<cfg.Bits - 1)
	scale := clip / qmax
	out := make([]int32, len(x))
	for i, v := range x {
		if v <= 0 {
			continue
		}
		q := math.Round(v / scale)
		if q > qmax {
			q = qmax
		}
		out[i] = int32(q)
	}
	return out
}

func pruneOracle(data []int32, density float64) float64 {
	keep := int(math.Ceil(density * float64(len(data))))
	nz := 0
	for _, v := range data {
		if v != 0 {
			nz++
		}
	}
	if nz <= keep {
		return float64(nz) / float64(len(data))
	}
	maxAbs := 0
	for _, v := range data {
		a := int(v)
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	hist := make([]int, maxAbs+1)
	for _, v := range data {
		a := int(v)
		if a < 0 {
			a = -a
		}
		hist[a]++
	}
	remain := nz
	t := 0
	for ; t <= maxAbs; t++ {
		if t > 0 {
			remain -= hist[t]
		}
		if remain <= keep {
			break
		}
	}
	surplus := keep - remain
	kept := 0
	for i, v := range data {
		a := v
		if a < 0 {
			a = -a
		}
		switch {
		case a == 0:
		case int(a) > t:
			kept++
		case int(a) == t && surplus > 0:
			surplus--
			kept++
		default:
			data[i] = 0
		}
	}
	return float64(kept) / float64(len(data))
}

// quantInputs returns the inputs the quantizers are compared on for one
// configuration: Gaussian draws at the source deviation, the values one
// and two ulps either side of every rounding step m+0.5 (in source units)
// across the code range and past both clamps, the steps themselves, and
// the infinities and signed zeros.
func quantInputs(std float64, cfg Config, signed bool, rng *rand.Rand) []float64 {
	qmax := float64(int32(1)<<cfg.Bits - 1)
	if signed {
		qmax = float64(int32(1)<<(cfg.Bits-1) - 1)
	}
	scale := cfg.ClipSigma * std / qmax
	var x []float64
	for i := 0; i < 2000; i++ {
		x = append(x, rng.NormFloat64()*std)
	}
	step := 1.0
	if qmax > 600 {
		step = qmax / 300 // sample the steps of wide codes
	}
	for m := -qmax - 3; m <= qmax+3; m += step {
		m := math.Floor(m)
		for _, t := range []float64{(m + 0.5) * scale, (m + 0.5) / (1 / scale), m * scale} {
			lo, hi := t, t
			x = append(x, t)
			for k := 0; k < 2; k++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				x = append(x, lo, hi)
			}
		}
	}
	return append(x, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e300, -1e300)
}

func TestQuantizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for bits := 2; bits <= 16; bits++ {
		for _, std := range []float64{1, 0.37, 3} {
			for _, clip := range []float64{DefaultWeightClip(bits), DefaultActClip(bits), 0.9} {
				cfg := Config{Bits: bits, ClipSigma: clip}
				x := quantInputs(std, cfg, true, rng)
				if got, want := QuantizeSigned(x, std, cfg), quantizeSignedOracle(x, std, cfg); !slices.Equal(got, want) {
					t.Fatalf("signed bits=%d std=%v clip=%v: %s", bits, std, clip, firstDiff(x, got, want))
				}
				x = quantInputs(std, cfg, false, rng)
				if got, want := QuantizeUnsigned(x, std, cfg), quantizeUnsignedOracle(x, std, cfg); !slices.Equal(got, want) {
					t.Fatalf("unsigned bits=%d std=%v clip=%v: %s", bits, std, clip, firstDiff(x, got, want))
				}
			}
		}
	}
	// One-bit activations are the narrowest tensors accept.
	cfg := Config{Bits: 1, ClipSigma: DefaultActClip(1)}
	x := quantInputs(1, cfg, false, rng)
	if got, want := QuantizeUnsigned(x, 1, cfg), quantizeUnsignedOracle(x, 1, cfg); !slices.Equal(got, want) {
		t.Fatalf("unsigned bits=1: %s", firstDiff(x, got, want))
	}
}

func firstDiff(x []float64, got, want []int32) string {
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("x[%d]=%v (%#x) coded %d, want %d", i, x[i], math.Float64bits(x[i]), got[i], want[i])
		}
	}
	return "lengths differ"
}

func TestPruneToDensityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	check := func(name string, data []int32, density float64) {
		t.Helper()
		got, want := slices.Clone(data), slices.Clone(data)
		gd, wd := PruneToDensity(got, density), pruneOracle(want, density)
		if !slices.Equal(got, want) || (gd != wd && !(math.IsNaN(gd) && math.IsNaN(wd))) {
			t.Fatalf("%s density %v: pruned %v (%v), want %v (%v) from %v", name, density, got, gd, want, wd, data)
		}
	}
	densities := []float64{0, 0.02, 0.1, 0.35, 0.5, 0.77, 0.999, 1}
	for i := 0; i < 300; i++ {
		n := rng.Intn(300)
		span := []int{1, 2, 3, 8, 128, 1 << 15}[rng.Intn(6)]
		data := make([]int32, n)
		for j := range data {
			data[j] = int32(rng.Intn(2*span+1) - span)
		}
		for _, d := range densities {
			check("random", data, d)
		}
		check("random", data, rng.Float64())
	}
	// Adversarial: all ties, all zeros, one value, ties only at the top,
	// ties straddling the keep count, and the empty slice.
	ties := make([]int32, 100)
	for i := range ties {
		ties[i] = int32(1 - 2*(i%2))
	}
	top := []int32{5, -5, 5, 1, 2, 3, -5, 5, 0, 5}
	for _, d := range densities {
		check("ties", ties, d)
		check("zeros", make([]int32, 50), d)
		check("single", []int32{-7}, d)
		check("top ties", top, d)
		check("empty", nil, d)
	}
	for keep := 0; keep <= len(top); keep++ {
		check("top ties", top, float64(keep)/float64(len(top)))
	}
}
