package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzAuditRecords feeds arbitrary bytes to both audit input forms. Each
// must yield records or an *auditInputError, never a panic, and records
// decoded from one form must tally exactly as the same records written
// in the other form: a JSONL stream and its {"flight": [...]} document
// are one report.
func FuzzAuditRecords(f *testing.F) {
	var jsonl bytes.Buffer
	writeJSONL(f, &jsonl, auditFixture(true))
	f.Add(jsonl.Bytes())
	doc, err := json.Marshal(flightDoc{Flight: auditFixture(false)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add([]byte(`{"method":"shadow","verdict":"diverge","pi_delta":1e300}` + "\n\n" + `{"method":"compute","latency_seconds":-1,"solve_path":"x-fallback"}`))
	f.Add([]byte(`{"flight":null,"shadow":{"sampled":1}}`))
	f.Add([]byte(`{"flight":[{"method":"compute"},{"method":"compute"}]}`))
	f.Add([]byte(`{"time":"0000-01-01T00:00:00+01:00","method":"compute"}`))
	f.Add([]byte(`{"time":"not a time"}`))
	f.Add([]byte(`{"status":1e30}`))
	f.Add([]byte("null\n[1,2]\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, flight := range []bool{false, true} {
			recs, err := decodeAuditRecords(bytes.NewReader(data), "fuzz", flight)
			if err != nil {
				var ie *auditInputError
				if !errors.As(err, &ie) || recs != nil || !strings.HasPrefix(err.Error(), "fuzz") {
					t.Fatalf("flight=%v: error %T %v with %d records", flight, err, err, len(recs))
				}
				continue
			}
			var other bytes.Buffer
			if flight {
				enc := json.NewEncoder(&other)
				for _, e := range recs {
					if err = enc.Encode(e); err != nil {
						break
					}
				}
			} else {
				err = json.NewEncoder(&other).Encode(flightDoc{Flight: recs})
			}
			if err != nil {
				// A time outside years 0-9999 decodes but cannot be
				// re-encoded, so these records have no other form.
				if !strings.Contains(err.Error(), "Time.MarshalJSON") {
					t.Fatalf("flight=%v: records do not re-encode: %v", flight, err)
				}
				continue
			}
			again, err := decodeAuditRecords(&other, "again", !flight)
			if errors.Is(err, bufio.ErrTooLong) {
				continue // one record longer than a JSONL line may be
			}
			if err != nil {
				t.Fatalf("flight=%v: other form does not decode: %v\n%s", flight, err, other.Bytes())
			}
			if want, got := tallyAudit(recs), tallyAudit(again); !reflect.DeepEqual(want, got) {
				t.Fatalf("flight=%v: reports differ:\n%+v\n%+v", flight, want, got)
			}
		}
	})
}

// TestAuditLongLineNamesLine: a JSONL line past the 1 MiB bound fails
// with the file and line, like a line that is not JSON.
func TestAuditLongLineNamesLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	data := `{"method":"solve"}` + "\n" + `{"error":"` + strings.Repeat("x", maxAuditLine) + `"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := cmdAudit([]string{"-event-log", path}, &out)
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), path+":2: ") {
		t.Fatalf("over-long line: err = %v, want %s:2 wrapping bufio.ErrTooLong", err, path)
	}
}
