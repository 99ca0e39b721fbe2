package experiments

import (
	"encoding/json"
	"errors"
	"sync"

	"ristretto/internal/safeio"
)

// CheckpointSchema identifies the journal file format. Bump on incompatible
// change.
const CheckpointSchema = "ristretto.checkpoint/v1"

// journalLine is a cell record of the checkpoint, a safeio record log
// whose header carries the schema, the writing tool and the workload
// fingerprint: a completed cell keyed by a stable string with an opaque
// JSON payload.
type journalLine struct {
	Kind    string          `json:"kind"` // "cell"
	Cell    string          `json:"cell,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Journal is an append-only, crc-guarded checkpoint file recording completed
// sweep cells, kept as a safeio.Log: every record is fsynced before Append
// returns, so a SIGKILL between records loses at most the record being
// written, and a torn final line is skipped on resume instead of poisoning
// the run.
type Journal struct {
	log  *safeio.Log
	mu   sync.Mutex
	done map[string]json.RawMessage
}

// OpenJournal opens (or creates) the checkpoint file at path for the given
// tool and workload fingerprint. With resume false any existing file is
// truncated and a fresh header written. With resume true an existing file is
// validated — schema, tool and fingerprint must match or an error tells the
// user to rerun without -resume — and its valid cell records become
// available through Lookup; corrupt or truncated lines are skipped and
// counted. A missing file with resume true degrades to a fresh journal.
func OpenJournal(path, tool, fingerprint string, resume bool) (*Journal, error) {
	j := &Journal{done: map[string]json.RawMessage{}}
	hdr := safeio.LogHeader{Schema: CheckpointSchema, Tool: tool, Fingerprint: fingerprint}
	log, err := safeio.OpenLog(nil, path, hdr, resume, func(body []byte) bool {
		var rec journalLine
		if json.Unmarshal(body, &rec) != nil || rec.Kind != "cell" {
			return false
		}
		// Later valid duplicates win: a cell re-journaled after a
		// partially-applied resume supersedes the earlier record.
		j.done[rec.Cell] = rec.Payload
		return true
	})
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// Append journals a completed cell under its stable key. The payload is
// marshalled to JSON; the record is durable (fsynced) when Append returns.
func (j *Journal) Append(cell string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if err := j.log.Write(journalLine{Kind: "cell", Cell: cell, Payload: raw}); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[cell] = raw
	return nil
}

// Lookup returns the journaled payload for a cell key, if present.
func (j *Journal) Lookup(cell string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.done[cell]
	return raw, ok
}

// Resumable reports whether the journal was loaded from an existing,
// header-valid file (i.e. this run is a resume).
func (j *Journal) Resumable() bool { return j.log.Resumed }

// Cells reports how many distinct completed cells the journal holds.
func (j *Journal) Cells() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// CorruptRecords reports how many lines were skipped as torn or corrupt
// while loading.
func (j *Journal) CorruptRecords() int { return j.log.Corrupt }

// Close closes the journal file; later Appends fail. Records appended
// before Close are already durable; Close exists to release the descriptor.
func (j *Journal) Close() error { return j.log.Close() }

// resultJSON is the journal payload for a []*Result job: the Result struct
// with its error flattened to a string so it round-trips through JSON and
// renders identically ("error: <msg>") after resume.
type resultJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  string     `json:"notes,omitempty"`
	Err    string     `json:"err,omitempty"`
}

// encodeResults converts a job's results into their journal payload.
func encodeResults(rs []*Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{ID: r.ID, Title: r.Title, Header: r.Header, Rows: r.Rows, Notes: r.Notes}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	return out
}

// decodeResults reverses encodeResults.
func decodeResults(raw json.RawMessage) ([]*Result, error) {
	var enc []resultJSON
	if err := json.Unmarshal(raw, &enc); err != nil {
		return nil, err
	}
	out := make([]*Result, len(enc))
	for i, e := range enc {
		r := &Result{ID: e.ID, Title: e.Title, Header: e.Header, Rows: e.Rows, Notes: e.Notes}
		if e.Err != "" {
			r.Err = errors.New(e.Err)
		}
		out[i] = r
	}
	return out, nil
}
