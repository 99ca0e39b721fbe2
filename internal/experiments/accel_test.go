package experiments

import (
	"slices"
	"sort"
	"testing"

	"ristretto/internal/atom"
)

// TestEstimateAccel: every listed accelerator prices a network, only the
// Ristretto variants report per-layer perf, and an unknown name is an
// error rather than a silent zero estimate.
func TestEstimateAccel(t *testing.T) {
	b := NewQuickBench(1, 32)
	b.Nets = []string{"AlexNet"}
	n := b.Networks()[0]
	stats := b.Stats(n, "4b", atom.Granularity(2))
	for _, accel := range Accelerators {
		perf, _, err := EstimateAccel(stats, accel, 8, 32, 2, Balances["wa"])
		if err != nil {
			t.Fatalf("%s: %v", accel, err)
		}
		if perf.Cycles <= 0 || perf.Counters.DRAMBytes <= 0 {
			t.Errorf("%s: cycles=%d dram=%d, want both positive", accel, perf.Cycles, perf.Counters.DRAMBytes)
		}
		if ristrettoVariant := accel == "ristretto" || accel == "ristretto-ns"; ristrettoVariant != (len(perf.Layers) == len(stats)) {
			t.Errorf("%s: %d per-layer entries for %d layers", accel, len(perf.Layers), len(stats))
		}
	}
	if _, _, err := EstimateAccel(stats, "tpu", 8, 32, 2, Balances["wa"]); err == nil {
		t.Error("unknown accelerator accepted")
	}
}

// TestBalanceNamesMatchBalances keeps the ordered name list and the policy
// map from drifting apart.
func TestBalanceNamesMatchBalances(t *testing.T) {
	var keys []string
	for k := range Balances {
		keys = append(keys, k)
	}
	names := slices.Clone(BalanceNames)
	sort.Strings(keys)
	sort.Strings(names)
	if !slices.Equal(keys, names) {
		t.Fatalf("BalanceNames %v != Balances keys %v", BalanceNames, keys)
	}
}
