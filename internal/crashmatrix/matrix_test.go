package crashmatrix_test

// The cell-cache and checkpoint-journal crash matrices: every byte
// truncation point of an entry file or journal is replayed and the reader
// must serve the old value or the new value — never a hybrid, never
// corrupt bytes. The fleet journal's matrix lives in internal/fleet
// (its reader is unexported).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ristretto/internal/cellcache"
	"ristretto/internal/crashmatrix"
	"ristretto/internal/experiments"
	"ristretto/internal/telemetry"
)

const fp = "aabbccddeeff00112233445566778899aabbccddeeff00112233445566778899"

func openCache(t *testing.T, dir string) *cellcache.Cache {
	t.Helper()
	r := telemetry.NewRegistry()
	r.SetEnabled(true)
	c, err := cellcache.Open(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encodedEntry captures the exact on-disk bytes the cache writes for a
// payload, by putting it in a scratch cache and reading the file back.
func encodedEntry(t *testing.T, payload []byte) []byte {
	t.Helper()
	c := openCache(t, filepath.Join(t.TempDir(), "scratch"))
	if err := c.Put(fp, payload); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.EntryPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCellEntryTruncationMatrix plants every prefix of an encoded cache
// entry at the entry's path — the state a lying disk or a torn in-place
// write would leave — and asserts Get serves exactly the full payload
// (complete prefix) or detects corruption and misses (every other prefix).
// No prefix may ever be served as a payload.
func TestCellEntryTruncationMatrix(t *testing.T) {
	payload := []byte("rows\nwith\nnewlines\nand binary \x00\xff tail")
	encoded := encodedEntry(t, payload)
	c := openCache(t, filepath.Join(t.TempDir(), "cells"))
	p := c.EntryPath(fp)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	err := crashmatrix.Replay(encoded, func(n int, prefix []byte) error {
		if err := os.WriteFile(p, prefix, 0o644); err != nil {
			return err
		}
		got, ok := c.Get(fp)
		if ok && !bytes.Equal(got, payload) {
			return fmt.Errorf("served a hybrid: %q", got)
		}
		if n == len(encoded) && !ok {
			return fmt.Errorf("complete entry missed")
		}
		if n < len(encoded) && ok {
			return fmt.Errorf("truncated entry served as a hit")
		}
		// A detected-corrupt entry must also have been deleted, so it can
		// never be served by a later reader either.
		if !ok && n > 0 {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				return fmt.Errorf("corrupt entry left on disk (stat err %v)", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTornTempLeavesOldEntryServed models the crash window of
// safeio.WriteFile's rename discipline: the new entry's temp file holds
// only a prefix and the rename never happened. The old entry at the real
// path must keep serving, bit for bit, for every torn-temp prefix.
func TestTornTempLeavesOldEntryServed(t *testing.T) {
	oldPayload := []byte(`[{"id":"old","rows":[["1","2"]]}]`)
	newPayload := []byte(`[{"id":"new","rows":[["3","4"]]}]`)
	encodedNew := encodedEntry(t, newPayload)

	c := openCache(t, filepath.Join(t.TempDir(), "cells"))
	if err := c.Put(fp, oldPayload); err != nil {
		t.Fatal(err)
	}
	entry := c.EntryPath(fp)
	tmp := filepath.Join(filepath.Dir(entry), "."+fp+".tmp123456")
	err := crashmatrix.Replay(encodedNew, func(n int, prefix []byte) error {
		if err := os.WriteFile(tmp, prefix, 0o600); err != nil {
			return err
		}
		got, ok := c.Get(fp)
		if !ok {
			return fmt.Errorf("old entry missed with torn temp present")
		}
		if !bytes.Equal(got, oldPayload) {
			return fmt.Errorf("old entry corrupted by torn temp: %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointJournalTruncationMatrix replays every byte truncation of a
// three-cell checkpoint journal: a resume over any prefix must see each
// cell either absent (re-run it) or byte-identical to what was journaled —
// and cells must disappear from the tail only, never from the middle
// (earlier fsynced records stay durable).
func TestCheckpointJournalTruncationMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.journal")
	j, err := experiments.OpenJournal(path, "crashmatrix", "fp-1", false)
	if err != nil {
		t.Fatal(err)
	}
	cells := []string{"cell-a", "cell-b", "cell-c"}
	want := map[string]json.RawMessage{}
	for i, cell := range cells {
		payload := map[string]any{"cell": cell, "rows": []int{i, i + 1}}
		if err := j.Append(cell, payload); err != nil {
			t.Fatal(err)
		}
		raw, ok := j.Lookup(cell)
		if !ok {
			t.Fatalf("%s not visible after Append", cell)
		}
		want[cell] = raw
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	replayPath := filepath.Join(dir, "replay.journal")
	err = crashmatrix.Replay(data, func(n int, prefix []byte) error {
		if err := os.WriteFile(replayPath, prefix, 0o644); err != nil {
			return err
		}
		j2, err := experiments.OpenJournal(replayPath, "crashmatrix", "fp-1", true)
		if err != nil {
			return fmt.Errorf("resume failed: %w", err)
		}
		defer j2.Close()
		seenPresent, missing := false, 0
		for i := len(cells) - 1; i >= 0; i-- { // newest first: absences must be a suffix
			cell := cells[i]
			raw, ok := j2.Lookup(cell)
			if !ok {
				// A missing newer cell with older cells present is the
				// expected tail truncation; a missing OLDER cell while a
				// newer one survived would mean a fsynced record vanished.
				if seenPresent {
					return fmt.Errorf("%s missing while a newer cell survived", cell)
				}
				missing++
				continue
			}
			seenPresent = true
			if !bytes.Equal(raw, want[cell]) {
				return fmt.Errorf("%s resumed as a hybrid: %s", cell, raw)
			}
		}
		if n == len(data) && missing > 0 {
			return fmt.Errorf("intact journal lost %d cells", missing)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointJournalDurabilityIsPrefixMonotone asserts the stronger
// tail-only property directly: once a truncation point is past cell K's
// record, every replay at or beyond that point must still serve cell K.
func TestCheckpointJournalDurabilityIsPrefixMonotone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.journal")
	j, err := experiments.OpenJournal(path, "crashmatrix", "fp-1", false)
	if err != nil {
		t.Fatal(err)
	}
	cells := []string{"cell-a", "cell-b", "cell-c"}
	durableAt := map[string]int{} // journal size after each cell's fsynced Append
	for i, cell := range cells {
		if err := j.Append(cell, map[string]any{"cell": cell, "rows": []int{i}}); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		durableAt[cell] = int(info.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayPath := filepath.Join(dir, "replay.journal")
	err = crashmatrix.Replay(data, func(n int, prefix []byte) error {
		if err := os.WriteFile(replayPath, prefix, 0o644); err != nil {
			return err
		}
		j2, err := experiments.OpenJournal(replayPath, "crashmatrix", "fp-1", true)
		if err != nil {
			return fmt.Errorf("resume failed: %w", err)
		}
		defer j2.Close()
		for _, cell := range cells {
			if _, ok := j2.Lookup(cell); !ok && n >= durableAt[cell] {
				return fmt.Errorf("%s durable at %d bytes but missing", cell, durableAt[cell])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointJournalResumeThenAppend replays every byte truncation of a
// three-cell checkpoint journal, resumes it, journals one more cell and
// resumes again: the new cell must replay byte-identical, and every cell
// the first resume saw must survive. A torn tail line must not swallow
// the record appended after it.
func TestCheckpointJournalResumeThenAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.journal")
	j, err := experiments.OpenJournal(path, "crashmatrix", "fp-1", false)
	if err != nil {
		t.Fatal(err)
	}
	cells := []string{"cell-a", "cell-b", "cell-c"}
	for i, cell := range cells {
		if err := j.Append(cell, map[string]any{"cell": cell, "rows": []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayPath := filepath.Join(dir, "replay.journal")
	err = crashmatrix.Replay(data, func(n int, prefix []byte) error {
		if err := os.WriteFile(replayPath, prefix, 0o644); err != nil {
			return err
		}
		j1, err := experiments.OpenJournal(replayPath, "crashmatrix", "fp-1", true)
		if err != nil {
			return fmt.Errorf("resume failed: %w", err)
		}
		seen := map[string]json.RawMessage{}
		for _, cell := range cells {
			if raw, ok := j1.Lookup(cell); ok {
				seen[cell] = raw
			}
		}
		err = j1.Append("cell-new", map[string]any{"cell": "cell-new", "rows": []int{9}})
		j1.Close()
		if err != nil {
			return err
		}
		want, _ := j1.Lookup("cell-new")
		j2, err := experiments.OpenJournal(replayPath, "crashmatrix", "fp-1", true)
		if err != nil {
			return fmt.Errorf("second resume failed: %w", err)
		}
		defer j2.Close()
		if raw, ok := j2.Lookup("cell-new"); !ok || !bytes.Equal(raw, want) {
			return fmt.Errorf("cell appended after the resume lost (present %v)", ok)
		}
		for cell, raw := range seen {
			if got, ok := j2.Lookup(cell); !ok || !bytes.Equal(got, raw) {
				return fmt.Errorf("%s lost by the append after resume", cell)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
