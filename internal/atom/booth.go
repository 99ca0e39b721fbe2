package atom

// Bit-serial accelerators such as Laconic, Bit-Pragmatic and Bit-Tactical
// process only the "effectual terms" of an operand: a signed-power-of-two
// recoding where each term is ±2^k. Laconic uses a Booth-style encoder at the
// PE-array boundary; we implement the non-adjacent form (NAF), the canonical
// minimal signed-digit recoding Booth encoders approximate. The per-pair
// workload of a Laconic multiplier is #terms(a) × #terms(w) cycles.

// Term is one signed power-of-two component of a value.
type Term struct {
	Shift uint8 // exponent k
	Neg   bool  // true for -2^k
}

// NAFTerms returns the non-adjacent-form terms of v, least significant first.
// The NAF of v has the minimum number of non-zero signed digits of any
// base-2 signed-digit representation.
func NAFTerms(v int32) []Term {
	var terms []Term
	x := int64(v)
	neg := x < 0
	if neg {
		x = -x
	}
	shift := uint8(0)
	for x != 0 {
		if x&1 != 0 {
			d := 2 - (x & 3) // +1 if x ≡ 1 (mod 4), -1 if x ≡ 3 (mod 4)
			terms = append(terms, Term{Shift: shift, Neg: (d < 0) != neg})
			x -= d
		}
		x >>= 1
		shift++
	}
	return terms
}

// TermValue reconstructs the value from its signed power-of-two terms.
func TermValue(terms []Term) int32 {
	var v int64
	for _, t := range terms {
		p := int64(1) << t.Shift
		if t.Neg {
			v -= p
		} else {
			v += p
		}
	}
	return int32(v)
}

// TermCount returns the number of effectual (non-zero) NAF terms of v; zero
// values have zero terms. This is the bit-serial workload unit.
func TermCount(v int32) int {
	cnt := 0
	x := int64(v)
	if x < 0 {
		x = -x
	}
	for x != 0 {
		if x&1 != 0 {
			x -= 2 - (x & 3)
			cnt++
		}
		x >>= 1
	}
	return cnt
}

// OneCount returns the plain popcount of |v| — the term count of a naive
// (non-Booth) bit-serial encoder. Exposed so the Laconic model can be
// configured either way.
func OneCount(v int32) int {
	x := uint32(v)
	if v < 0 {
		x = uint32(-v)
	}
	cnt := 0
	for x != 0 {
		cnt += int(x & 1)
		x >>= 1
	}
	return cnt
}

// TermHistogram returns h where h[t] counts values in data with exactly t
// effectual terms (NAF if booth, else popcount). Used by the distribution-
// based Laconic performance model to compute expected maxima cheaply.
func TermHistogram(data []int32, booth bool) []int {
	var h []int
	for _, v := range data {
		h = addTerms(h, terms(v, booth), 1)
	}
	return h
}

// TermHistogramOf is TermHistogram over the values a magnitude histogram
// counts (mags[m] values of magnitude m): term counts depend on |v| only,
// so the result is TermHistogram of any data with that histogram.
func TermHistogramOf(mags []int, booth bool) []int {
	var h []int
	for m, c := range mags {
		if c > 0 {
			h = addTerms(h, terms(int32(m), booth), c)
		}
	}
	return h
}

func terms(v int32, booth bool) int {
	if booth {
		return TermCount(v)
	}
	return OneCount(v)
}

// addTerms adds c values of t terms to h, growing it as needed.
func addTerms(h []int, t, c int) []int {
	for len(h) <= t {
		h = append(h, 0)
	}
	h[t] += c
	return h
}
