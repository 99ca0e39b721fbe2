package safeio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var testHeader = LogHeader{Schema: "test.log/v1", Tool: "recordlog-test", Fingerprint: "fp-1"}

type testRec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

// writeTestLog writes a fresh log with the given header and one "rec"
// record per n, returning the file's bytes.
func writeTestLog(t *testing.T, path string, hdr LogHeader, ns ...int) []byte {
	t.Helper()
	l, err := OpenLog(nil, path, hdr, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if err := l.Write(testRec{Kind: "rec", N: n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecordLogContract drives OpenLog's resume rules over damaged,
// mismatched, headerless and missing files.
func TestRecordLogContract(t *testing.T) {
	cases := []struct {
		name string
		// setup prepares the file at path; nil leaves it missing.
		setup func(t *testing.T, path string)
		// reject makes the replay callback refuse this record number.
		reject int
		// wantErr lists substrings the open error must contain; empty
		// means the open must succeed.
		wantErr     []string
		wantResumed bool
		wantCorrupt int
		wantReplay  []int
	}{
		{
			name: "torn tail",
			setup: func(t *testing.T, path string) {
				data := writeTestLog(t, path, testHeader, 1, 2, 3)
				os.WriteFile(path, data[:len(data)-5], 0o644)
			},
			wantResumed: true, wantCorrupt: 1, wantReplay: []int{1, 2},
		},
		{
			name: "bit-flipped body",
			setup: func(t *testing.T, path string) {
				data := writeTestLog(t, path, testHeader, 1, 2, 3)
				os.WriteFile(path, bytes.Replace(data, []byte(`"n":2`), []byte(`"n":7`), 1), 0o644)
			},
			wantResumed: true, wantCorrupt: 1, wantReplay: []int{1, 3},
		},
		{
			name: "schema mismatch",
			setup: func(t *testing.T, path string) {
				hdr := testHeader
				hdr.Schema = "test.log/v0"
				writeTestLog(t, path, hdr, 1)
			},
			wantErr: []string{"schema", `"test.log/v0"`, "-resume"},
		},
		{
			name: "tool mismatch",
			setup: func(t *testing.T, path string) {
				hdr := testHeader
				hdr.Tool = "other-tool"
				writeTestLog(t, path, hdr, 1)
			},
			wantErr: []string{"tool", `"other-tool"`, "-resume"},
		},
		{
			name: "fingerprint mismatch",
			setup: func(t *testing.T, path string) {
				hdr := testHeader
				hdr.Fingerprint = "fp-2"
				writeTestLog(t, path, hdr, 1)
			},
			wantErr: []string{"fingerprint", `"fp-2"`, "-resume"},
		},
		{
			name: "headerless with accepted records",
			setup: func(t *testing.T, path string) {
				data := writeTestLog(t, path, testHeader, 1, 2)
				os.WriteFile(path, data[bytes.IndexByte(data, '\n')+1:], 0o644)
			},
			wantErr: []string{"no valid header", "-resume"},
		},
		{
			name: "headerless with none accepted",
			setup: func(t *testing.T, path string) {
				os.WriteFile(path, []byte("deadbeef {\"kind\":\"rec\"}\ntorn"), 0o644)
			},
			wantCorrupt: 2,
		},
		{
			name:  "missing file",
			setup: nil,
		},
		{
			name: "callback refuses a record",
			setup: func(t *testing.T, path string) {
				writeTestLog(t, path, testHeader, 1, 2, 3)
			},
			reject:      2,
			wantResumed: true, wantCorrupt: 1, wantReplay: []int{1, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.log")
			if tc.setup != nil {
				tc.setup(t, path)
			}
			var replayed []int
			l, err := OpenLog(nil, path, testHeader, true, func(body []byte) bool {
				var rec testRec
				if json.Unmarshal(body, &rec) != nil || rec.Kind != "rec" || rec.N == tc.reject {
					return false
				}
				replayed = append(replayed, rec.N)
				return true
			})
			if len(tc.wantErr) > 0 {
				if err == nil {
					l.Close()
					t.Fatalf("open succeeded, want error mentioning %q", tc.wantErr)
				}
				for _, s := range tc.wantErr {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not mention %q", err, s)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if l.Resumed != tc.wantResumed || l.Corrupt != tc.wantCorrupt {
				t.Errorf("Resumed=%v Corrupt=%d, want %v %d", l.Resumed, l.Corrupt, tc.wantResumed, tc.wantCorrupt)
			}
			if !slices.Equal(replayed, tc.wantReplay) {
				t.Errorf("replayed %v, want %v", replayed, tc.wantReplay)
			}
			// A fresh start leaves exactly a new header behind.
			if !tc.wantResumed {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				body, ok := DecodeRecord(bytes.TrimSuffix(data, []byte("\n")))
				if !ok || !strings.Contains(string(body), `"kind":"header"`) {
					t.Errorf("fresh log holds %q, want one header record", data)
				}
			}
		})
	}
}

// TestRecordLogAppendsAfterResume: records written after a resume land
// after the existing ones and replay on the next open.
func TestRecordLogAppendsAfterResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	writeTestLog(t, path, testHeader, 1)
	l, err := OpenLog(nil, path, testHeader, true, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Write(testRec{Kind: "rec", N: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	n := 0
	if _, err := OpenLog(nil, path, testHeader, true, func([]byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records after resume-and-append, want 2", n)
	}
}

// TestRecordLogAppendsAfterTornTailResume: a resume over a torn last line
// starts the next record on a fresh line, so every record fsynced after
// the resume replays on the next one; resuming an intact file adds no
// bytes.
func TestRecordLogAppendsAfterTornTailResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	data := writeTestLog(t, path, testHeader, 1, 2)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	resume := func() (*Log, []int) {
		t.Helper()
		var replayed []int
		l, err := OpenLog(nil, path, testHeader, true, func(body []byte) bool {
			var rec testRec
			if json.Unmarshal(body, &rec) != nil {
				return false
			}
			replayed = append(replayed, rec.N)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, replayed
	}
	l, _ := resume()
	for _, n := range []int{3, 4} {
		if err := l.Write(testRec{Kind: "rec", N: n}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	before, _ := os.ReadFile(path)
	l, replayed := resume()
	l.Close()
	if want := []int{1, 3, 4}; !slices.Equal(replayed, want) || l.Corrupt != 1 {
		t.Fatalf("replayed %v with %d corrupt, want %v with 1 (the torn record)", replayed, l.Corrupt, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatalf("resuming an intact log changed it:\n%q\nto\n%q", before, after)
	}
}

// TestDecodeRecord pins the line framing: "%08x <json>" with the IEEE
// CRC-32 of the body.
func TestDecodeRecord(t *testing.T) {
	body := `{"kind":"header","schema":"s"}`
	path := filepath.Join(t.TempDir(), "frame.log")
	l, err := OpenLog(nil, path, LogHeader{Schema: "s"}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, _ := os.ReadFile(path)
	if got := string(data); !strings.HasSuffix(got, " "+body+"\n") || len(got) != 9+len(body)+1 {
		t.Fatalf("framed header = %q", got)
	}
	line := bytes.TrimSuffix(data, []byte("\n"))
	if got, ok := DecodeRecord(line); !ok || string(got) != body {
		t.Fatalf("DecodeRecord = %q, %v", got, ok)
	}
	for _, bad := range []string{"", "0000", string(line[:9]), "zzzzzzzz " + body, strings.Replace(string(line), " ", "_", 1)} {
		if _, ok := DecodeRecord([]byte(bad)); ok {
			t.Errorf("DecodeRecord(%q) accepted", bad)
		}
	}
}
