package experiments

import (
	"fmt"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/baselines/bitfusion"
	"ristretto/internal/baselines/laconic"
	"ristretto/internal/baselines/scnn"
	"ristretto/internal/baselines/snap"
	"ristretto/internal/baselines/sparten"
	"ristretto/internal/energy"
	"ristretto/internal/ristretto"
	"ristretto/internal/workload"
)

// Accelerators names every accelerator EstimateAccel can price: Ristretto
// with and without sparsity, and the baselines at their evaluation
// configurations.
var Accelerators = []string{"ristretto", "ristretto-ns", "bitfusion", "laconic", "laconic-mod", "sparten", "sparten-mp", "scnn", "snap"}

// Balances maps each load-balancing name (the -balance flag and the
// server's "balance" field) to its policy.
var Balances = map[string]balance.Policy{"wa": balance.WeightAct, "w": balance.WeightOnly, "none": balance.None}

// BalanceNames lists the Balances keys in the order help and error
// messages show them.
var BalanceNames = []string{"wa", "w", "none"}

// EstimateAccel runs the named accelerator's analytic model over a
// network's layer statistics. The returned perf always carries cycles and
// counters; its per-layer breakdown is filled for the Ristretto variants
// only, which are the ones tiles, mults, gran and bal configure. model is
// the energy model that prices the counters. An unknown name is an error.
func EstimateAccel(stats []workload.LayerStats, accel string, tiles, mults, gran int, bal balance.Policy) (perf ristretto.NetworkPerf, model energy.Model, err error) {
	model = energy.Default()
	switch accel {
	case "ristretto", "ristretto-ns":
		perf = ristretto.EstimateNetwork(stats, ristretto.Config{
			Tiles:  tiles,
			Tile:   ristretto.TileConfig{Mults: mults, Gran: atom.Granularity(gran)},
			Policy: bal,
			Dense:  accel == "ristretto-ns",
		})
		model = energy.ModelForGranularity(gran)
	case "bitfusion":
		perf.Cycles, perf.Counters = bitfusion.EstimateNetwork(stats, bitfusion.DefaultConfig())
	case "laconic":
		perf.Cycles, perf.Counters = laconic.EstimateNetwork(stats, laconic.DefaultConfig())
	case "laconic-mod":
		perf.Cycles, perf.Counters = laconic.EstimateNetworkModified(stats, laconic.DefaultConfig())
	case "sparten":
		perf.Cycles, perf.Counters = sparten.EstimateNetwork(stats, sparten.DefaultConfig())
	case "sparten-mp":
		perf.Cycles, perf.Counters = sparten.EstimateNetwork(stats, sparten.Config{CUs: 32, MP: true})
	case "scnn":
		perf.Cycles, perf.Counters = scnn.EstimateNetwork(stats, scnn.DefaultConfig())
	case "snap":
		perf.Cycles, perf.Counters = snap.EstimateNetwork(stats, snap.DefaultConfig())
	default:
		return perf, model, fmt.Errorf("experiments: unknown accelerator %q", accel)
	}
	return perf, model, nil
}
