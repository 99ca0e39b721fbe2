package fleet

// Coordinator crash-resume: the fleet journals assignment and completion
// state through a crc-guarded append-only file (a safeio.Log, like the
// checkpoint journal, fsynced per record), so a coordinator
// SIGKILLed mid-sweep resumes without re-dispatching completed cells.
// Completion records carry the cell's payload bytes AND its
// fingerprint-bound digest: resume re-verifies every record end to end,
// so a journal corrupted on disk degrades to recomputing the affected
// cells, never to merging bad bytes. Resume is deliberately
// cache-independent — cache hits journal a completion too — so a sweep
// resumes correctly even with the cell cache disabled or wiped.

import (
	"encoding/json"
	"sync"

	"ristretto/internal/experiments"
	"ristretto/internal/safeio"
	"ristretto/internal/telemetry"
)

// JournalSchema identifies the fleet journal file format. Bump on
// incompatible change; resume then refuses with a clear error.
const JournalSchema = "ristretto.fleet-journal/v1"

// journalTool names the writer in the header record, so a fleet journal
// and an experiment checkpoint can never be confused for one another.
const journalTool = "ristretto-fleet"

// journalRec is one record of the journal, a safeio record log whose
// header carries the schema, journalTool and the workload fingerprint.
// Kinds: "assign" (cell handed to a worker — audit trail, ignored on
// resume) and "complete" (cell finished, with its payload and
// fingerprint-bound digest).
type journalRec struct {
	Kind        string          `json:"kind"`
	Fingerprint string          `json:"fingerprint,omitempty"` // complete: the cell's
	Cell        string          `json:"cell,omitempty"`
	Worker      int             `json:"worker,omitempty"`
	Digest      string          `json:"digest,omitempty"`
	Payload     json.RawMessage `json:"payload,omitempty"`
}

// journalCell is one resumable completion: the cell's fingerprint and the
// verified payload bytes.
type journalCell struct {
	fp      string
	payload json.RawMessage
}

// journal is the coordinator's crash-resume record. Safe for concurrent
// use by the worker loops.
type journal struct {
	log *safeio.Log

	mu   sync.Mutex
	done map[string]journalCell

	records *telemetry.Counter
}

// openJournal opens (or creates) the journal at path for a sweep whose
// workload fingerprint is benchFP. With resume false any existing file is
// truncated and a fresh header written. With resume true an existing file
// is validated — schema, tool and workload fingerprint must match or the
// error says to rerun without -resume — and every digest-verified
// completion becomes available through lookup; torn, corrupt or
// digest-mismatched records are skipped and counted, never served.
func openJournal(fsys safeio.FS, path, benchFP string, resume bool, r *telemetry.Registry) (*journal, error) {
	j := &journal{done: map[string]journalCell{}, records: r.Counter("fleet.journal.records")}
	loaded, corrupt := r.Counter("fleet.journal.resumed_cells"), r.Counter("fleet.journal.corrupt")
	hdr := safeio.LogHeader{Schema: JournalSchema, Tool: journalTool, Fingerprint: benchFP}
	log, err := safeio.OpenLog(fsys, path, hdr, resume, func(body []byte) bool {
		var rec journalRec
		if json.Unmarshal(body, &rec) != nil {
			return false
		}
		switch rec.Kind {
		case "assign":
			// Audit trail only: an assignment without a completion means the
			// cell was in flight at the kill and must be re-dispatched.
			return true
		case "complete":
			// End-to-end verification against the record's own fingerprint:
			// the crc catches torn lines, the digest catches everything else
			// (a record spliced from another journal, a corrupted payload
			// with a recomputed crc).
			if rec.Digest != experiments.CellPayloadDigest(rec.Fingerprint, rec.Payload) {
				return false
			}
			// Later valid duplicates win, like the checkpoint journal.
			j.done[rec.Cell] = journalCell{fp: rec.Fingerprint, payload: rec.Payload}
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	j.log = log
	if log.Resumed {
		loaded.Add(int64(len(j.done)))
		corrupt.Add(int64(log.Corrupt))
	}
	return j, nil
}

// append durably writes one record.
func (j *journal) append(rec journalRec) error {
	if err := j.log.Write(rec); err != nil {
		return err
	}
	j.records.Inc()
	return nil
}

// assign journals a dispatch intent. Best effort: the record is an audit
// trail, not resume state, so a failed append degrades to a log line.
func (j *journal) assign(cell string, worker int) error {
	return j.append(journalRec{Kind: "assign", Cell: cell, Worker: worker})
}

// complete journals a finished cell with its verified payload. The record
// is durable when complete returns — the cell will not be re-dispatched
// by a resumed coordinator.
func (j *journal) complete(cell, cellFP string, payload json.RawMessage) error {
	if err := j.append(journalRec{
		Kind: "complete", Cell: cell, Fingerprint: cellFP,
		Digest: experiments.CellPayloadDigest(cellFP, payload), Payload: payload,
	}); err != nil {
		return err
	}
	j.mu.Lock()
	j.done[cell] = journalCell{fp: cellFP, payload: payload}
	j.mu.Unlock()
	return nil
}

// lookup returns the journaled fingerprint and payload for a cell, if a
// verified completion exists.
func (j *journal) lookup(cell string) (fp string, payload json.RawMessage, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jc, ok := j.done[cell]
	return jc.fp, jc.payload, ok
}

// close releases the journal file descriptor.
func (j *journal) close() error { return j.log.Close() }
