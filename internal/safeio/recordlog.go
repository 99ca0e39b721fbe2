package safeio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
)

// LogHeader is the first record of every record log: the schema of the
// records that follow, the tool that wrote them and the fingerprint of the
// workload they belong to. Resume refuses a log whose header differs in any
// of the three.
type LogHeader struct {
	Schema      string `json:"schema,omitempty"`
	Tool        string `json:"tool,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// headerRecord is the header's on-disk form: a record of kind "header".
type headerRecord struct {
	Kind string `json:"kind"`
	LogHeader
}

// Log is an append-only record log over an Appender. Every record is one
// line, "%08x %s\n": the IEEE CRC-32 of the record's JSON body in hex, a
// space, then the body. The first record is a header (see LogHeader). Each
// Write is fsynced before it returns, so a crash loses at most the record
// being written, and the torn line it leaves fails its CRC and is skipped on
// replay. The experiment checkpoint and the fleet journal are schemas on
// top of it.
type Log struct {
	*Appender

	// Resumed reports whether OpenLog continued an existing, header-valid
	// file rather than starting a fresh one.
	Resumed bool
	// Corrupt counts the lines replay skipped: torn or CRC-failed lines,
	// bodies that are not JSON objects, and records the replay callback
	// refused.
	Corrupt int

	// torn records that the resumed file's last line has no newline.
	torn bool
}

// OpenLog opens (or creates) the record log at path through fsys (nil =
// OS). With resume false any existing file is truncated and hdr written as
// its first record. With resume true an existing file is replayed: its
// header must match hdr field for field or OpenLog fails telling the user to
// rerun without -resume, and every other CRC-valid record's body is handed
// to replay, which returns false to have the record counted as corrupt.
// Appends then continue the file. A missing file, or one with neither a
// valid header nor any accepted record, starts fresh; one with accepted
// records but no valid header is refused.
//
// replay runs before OpenLog returns and must copy any body bytes it keeps.
func OpenLog(fsys FS, path string, hdr LogHeader, resume bool, replay func(body []byte) bool) (*Log, error) {
	if fsys == nil {
		fsys = OS
	}
	l := &Log{}
	if resume {
		if err := l.replay(fsys, path, hdr, replay); err != nil {
			return nil, err
		}
	}
	ap, err := OpenAppenderFS(fsys, path, !l.Resumed)
	if err != nil {
		return nil, err
	}
	l.Appender = ap
	if l.Resumed && l.torn {
		// The file ends in a torn line: start the next record on a line
		// of its own, or it would join the torn bytes and fail its CRC on
		// the next resume. The newline goes out with that record's write.
		ap.w.WriteByte('\n')
	}
	if !l.Resumed {
		if err := l.Write(headerRecord{Kind: "header", LogHeader: hdr}); err != nil {
			ap.Close()
			return nil, err
		}
	}
	return l, nil
}

// replay reads an existing log for resume, validating its header and
// feeding every other record to fn.
func (l *Log) replay(fsys FS, path string, want LogHeader, fn func(body []byte) bool) error {
	f, err := fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil // nothing to resume; start fresh
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, line, err := bufio.ScanLines(data, atEOF)
		if line != nil {
			l.torn = data[adv-1] != '\n'
		}
		return adv, line, err
	})
	sawHeader, accepted := false, 0
	for sc.Scan() {
		body, ok := DecodeRecord(sc.Bytes())
		var rec headerRecord
		if !ok || json.Unmarshal(body, &rec) != nil {
			l.Corrupt++
			continue
		}
		if rec.Kind != "header" {
			if fn(body) {
				accepted++
			} else {
				l.Corrupt++
			}
			continue
		}
		switch got := rec.LogHeader; {
		case got.Schema != want.Schema:
			return fmt.Errorf("safeio: %s has schema %q, want %q — rerun without -resume", path, got.Schema, want.Schema)
		case got.Tool != want.Tool:
			return fmt.Errorf("safeio: %s was written by tool %q, not %q — rerun without -resume", path, got.Tool, want.Tool)
		case got.Fingerprint != want.Fingerprint:
			return fmt.Errorf("safeio: %s fingerprint %q does not match this run (%q) — rerun without -resume", path, got.Fingerprint, want.Fingerprint)
		}
		sawHeader = true
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("safeio: reading %s: %w", path, err)
	}
	if !sawHeader {
		if accepted > 0 {
			return fmt.Errorf("safeio: %s has records but no valid header — rerun without -resume", path)
		}
		return nil // empty or fully corrupt file: start fresh
	}
	l.Resumed = true
	return nil
}

// Write encodes rec as JSON and appends it as one framed record, durable
// (flushed and fsynced) when Write returns.
func (l *Log) Write(rec any) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return l.Append(fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(body), body))
}

// DecodeRecord checks one log line (without its newline) and returns the
// record's JSON body. ok is false for a torn or bit-flipped line. The body
// aliases line.
func DecodeRecord(line []byte) (body []byte, ok bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil || crc32.ChecksumIEEE(line[9:]) != uint32(sum) {
		return nil, false
	}
	return line[9:], true
}
