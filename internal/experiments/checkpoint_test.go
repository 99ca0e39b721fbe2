package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointFormatV1Resumes pins the on-disk format: a
// ristretto.checkpoint/v1 file written by an earlier build (one cell
// record byte-flipped and a torn tail appended afterwards) must still
// resume, with the intact cells served — the later of two duplicates
// winning — and both damaged lines counted as corrupt.
func TestCheckpointFormatV1Resumes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, "ristretto-bench", "seed=1,scale=8,nets=AlexNet", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Resumable() || j.Cells() != 3 || j.CorruptRecords() != 2 {
		t.Fatalf("resumable=%v cells=%d corrupt=%d, want true 3 2", j.Resumable(), j.Cells(), j.CorruptRecords())
	}
	if _, ok := j.Lookup("figure1"); ok {
		t.Error("byte-flipped cell figure1 served")
	}
	raw, ok := j.Lookup("table4")
	if !ok {
		t.Fatal("cell table4 not resumed")
	}
	rs, err := decodeResults(raw)
	if err != nil || len(rs) != 1 || rs[0].Title != "Table IV (re-run)" {
		t.Errorf("table4 resumed as %+v (%v), want the later duplicate", rs, err)
	}
	raw, ok = j.Lookup("figure12")
	if !ok {
		t.Fatal("cell figure12 not resumed")
	}
	if rs, err := decodeResults(raw); err != nil || len(rs) != 1 || rs[0].Err == nil || rs[0].Err.Error() != "boom" {
		t.Errorf("figure12 resumed as %+v (%v), want its error preserved", rs, err)
	}
	if raw, ok := j.Lookup("g2-t32-m32"); !ok || string(raw) != `{"cycles":12345}` {
		t.Errorf("DSE cell g2-t32-m32 resumed as %s (%v)", raw, ok)
	}
}
