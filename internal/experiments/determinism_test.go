package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/telemetry"
)

// renderAll runs the full suite at the given worker count and returns the
// concatenated rendered results. Any experiment error fails the test.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	b := NewQuickBench(1, 8)
	b.Nets = []string{"AlexNet", "ResNet-18"}
	b.Workers = workers
	var sb strings.Builder
	results, rep, _ := b.AllChecked(RunOptions{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("workers=%d: %s failed: %v", workers, r.ID, r.Err)
		}
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	// The IDs MatchCells selects each cell by are the IDs of the Results
	// it returns.
	for i, j := range b.jobs() {
		if !slices.Equal(rep.Timings[i].IDs, j.ids) {
			t.Fatalf("cell %s returned %q, jobs lists %q", j.key, rep.Timings[i].IDs, j.ids)
		}
	}
	return sb.String()
}

func TestMatchCells(t *testing.T) {
	for pattern, want := range map[string][]string{
		"Figure 12":    {"figure12"},
		"figure 1":     {"figure1", "figure12", "figure13", "figure14", "figure15", "figure16", "figure17", "figure18", "figure19a", "figure19b"},
		"table i":      {"taxonomy", "table4", "ext-tablei"},
		"(formats)":    {"ext-formats"},
		"no such cell": nil,
	} {
		if got := MatchCells(pattern); !slices.Equal(got, want) {
			t.Errorf("MatchCells(%q) = %q, want %q", pattern, got, want)
		}
	}
	if _, _, err := NewQuickBench(1, 8).CellsChecked([]string{"no-such-cell"}, RunOptions{}); err == nil {
		t.Error("CellsChecked accepted an unknown cell")
	}
}

// TestAllDeterministicAcrossWorkers is the bit-identity guarantee behind the
// -parallel flag: every experiment derives its own seed per cell and results
// are collected in index order, so the rendered output must not depend on the
// worker count. It runs with telemetry enabled, pinning the second guarantee
// the -telemetry flag relies on: instrumentation must not perturb a single
// byte either (TestTelemetryBitInvisible covers on-vs-off equality).
//
// TestAllDeterministicAcrossWorkersMultiProcess (determinism_fleet_test.go)
// extends this guarantee across real OS processes via the fleet coordinator.
func TestAllDeterministicAcrossWorkers(t *testing.T) {
	telemetry.Default.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.Default.SetEnabled(false)
		telemetry.Default.Reset()
	})
	serial := renderAll(t, 1)
	if serial == "" {
		t.Fatal("serial run produced no output")
	}
	for _, workers := range []int{2, 8} {
		if got := renderAll(t, workers); got != serial {
			d := diffLine(serial, got)
			t.Errorf("workers=%d output differs from serial run (first diverging line: %q)", workers, d)
		}
	}
}

// diffLine returns the first line where a and b diverge, for a readable
// failure message instead of two multi-kilobyte dumps.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) {
			return al[i] + " (missing in parallel run)"
		}
		if al[i] != bl[i] {
			return al[i] + " != " + bl[i]
		}
	}
	if len(bl) > len(al) {
		return bl[len(al)] + " (extra in parallel run)"
	}
	return ""
}

// TestStatsSingleFlight: concurrent Stats calls for the same key must
// synthesize the workload exactly once and hand every caller the same backing
// array — the single-flight behaviour the parallel figures rely on.
func TestStatsSingleFlight(t *testing.T) {
	b := NewQuickBench(1, 8)
	b.Nets = []string{"AlexNet"}
	n := b.Networks()[0]

	const callers = 8
	out := make([]*int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := b.Stats(n, "4b", atom.Granularity(2))
			if len(s) == 0 {
				return
			}
			out[i] = &s[0].WBits
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if out[i] == nil || out[0] == nil {
			t.Fatal("Stats returned empty layer stats")
		}
		if out[i] != out[0] {
			t.Fatalf("caller %d got a different backing array: Stats is not single-flight", i)
		}
	}
}
