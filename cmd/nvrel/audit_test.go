package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvrel/internal/obs"
	"nvrel/internal/shadow"
)

// auditFixture is one small run's records: four requests, three compute
// records (one recovered by a fallback, one general-MRGP solve with no
// path) and two shadow verdicts, the first a divergence when asked.
func auditFixture(diverge bool) []obs.Event {
	at := func(s int) time.Time { return time.Date(2026, 8, 8, 10, 0, s, 0, time.UTC) }
	recs := []obs.Event{
		{Time: at(0), Method: "solve", Key: "k1", Cache: "miss", Status: 200, LatencySeconds: 0.02, Path: "sparse", TraceID: "t1"},
		{Time: at(0), Method: "compute", Source: "serve", Arch: "4v", Key: "k1", LatencySeconds: 0.02, Path: "sparse", Residual: 3e-15, TraceID: "t1"},
		{Time: at(1), Method: "solve", Key: "k1", Cache: "hit", Status: 200, LatencySeconds: 0.0001, Path: "sparse", TraceID: "t2"},
		{Time: at(2), Method: "solve", Key: "k2", Cache: "miss", Status: 200, LatencySeconds: 0.05, Path: "sparse-fallback-dense", TraceID: "t3"},
		{Time: at(2), Method: "compute", Source: "serve", Arch: "4v", Key: "k2", LatencySeconds: 0.05, Path: "sparse-fallback-dense", Fallback: "gs stalled", TraceID: "t3"},
		{Time: at(3), Method: "batch", Status: 200, LatencySeconds: 0.1, Items: 3, TraceID: "t4"},
		{Time: at(3), Method: "compute", Source: "serve", Arch: "6v", Key: "k3", LatencySeconds: 0.01, Solver: "mrgp-general", TraceID: "t4"},
		{Time: at(4), Method: "shadow", Source: "serve", Arch: "4v", Key: "k1", Path: "sparse", Rung: "gth", Verdict: shadow.VerdictAgree, PiDelta: 2e-14, TraceID: "t1"},
		{Time: at(4), Method: "shadow", Source: "serve", Arch: "4v", Key: "k2", Path: "sparse-fallback-dense", Rung: "power", Verdict: shadow.VerdictAgree, PiDelta: 8e-13, TraceID: "t3"},
	}
	if diverge {
		recs[7].Verdict, recs[7].PiDelta, recs[7].RelDelta = shadow.VerdictDiverge, 3.1e-5, 2e-6
	}
	return recs
}

// writeJSONL renders records the way serve -event-log streams them.
func writeJSONL(t testing.TB, w io.Writer, recs []obs.Event) {
	t.Helper()
	enc := json.NewEncoder(w)
	for _, e := range recs {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
}

// writeAuditFixtures writes the fixture as an event log (every record)
// and a /debug/flight dump (its compute and verdict records).
func writeAuditFixtures(t *testing.T, diverge bool) (eventLog, flightDump string) {
	t.Helper()
	dir := t.TempDir()
	recs := auditFixture(diverge)
	var buf bytes.Buffer
	writeJSONL(t, &buf, recs)
	eventLog = filepath.Join(dir, "events.jsonl")
	if err := os.WriteFile(eventLog, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var doc flightDoc
	for _, e := range recs {
		if e.Method == "compute" || e.Method == "shadow" {
			doc.Flight = append(doc.Flight, e)
		}
	}
	flightDump = filepath.Join(dir, "flight.json")
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flightDump, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return eventLog, flightDump
}

func TestAuditCleanRunPassesGates(t *testing.T) {
	eventLog, flightDump := writeAuditFixtures(t, false)
	outFile := filepath.Join(t.TempDir(), "audit.json")
	var out bytes.Buffer
	err := cmdAudit([]string{
		"-event-log", eventLog, "-flight", flightDump,
		"-max-diverge-rate", "0", "-max-residual", "1e-10", "-max-fallback-rate", "0.5",
		"-o", outFile,
	}, &out)
	if err != nil {
		t.Fatalf("clean audit failed: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep auditReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	// The dump's records are also in the event log; each counts once.
	if rep.Records != 9 || rep.Requests != 4 || rep.CacheHits != 1 || rep.Diverge != 0 {
		t.Errorf("requests = %+v", rep.auditTally)
	}
	if rep.Solves != 3 || rep.Comparisons != 2 || rep.Fallbacks != 1 {
		t.Errorf("solves = %+v", rep.auditTally)
	}
	if rep.WorstResidual != 3e-15 {
		t.Errorf("worst residual = %g", rep.WorstResidual)
	}
	if rep.DivergeRate != 0 {
		t.Errorf("diverge rate = %g", rep.DivergeRate)
	}
	// 1 fallback of 3 compute records.
	if rep.FallbackRate != 1.0/3 {
		t.Errorf("fallback rate = %g", rep.FallbackRate)
	}
	if p := rep.Paths["sparse"]; p == nil || p.Count != 1 || p.ShadowAgree != 1 || p.WorstResidual != 3e-15 {
		t.Errorf("sparse path stats = %+v", p)
	}
	if p := rep.Paths["mrgp-general"]; p == nil || p.Count != 1 {
		t.Errorf("mrgp-general path stats = %+v", p)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestAuditDivergenceTripsGate(t *testing.T) {
	eventLog, flightDump := writeAuditFixtures(t, true)
	var out bytes.Buffer
	err := cmdAudit([]string{
		"-event-log", eventLog, "-flight", flightDump,
		"-max-diverge-rate", "0",
	}, &out)
	if err == nil {
		t.Fatalf("divergent audit passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "diverge rate") {
		t.Errorf("gate error = %v", err)
	}
	if !strings.Contains(out.String(), "1 diverge") {
		t.Errorf("summary missing divergence:\n%s", out.String())
	}
}

func TestAuditGatesOffByDefault(t *testing.T) {
	eventLog, flightDump := writeAuditFixtures(t, true)
	var out bytes.Buffer
	if err := cmdAudit([]string{"-event-log", eventLog, "-flight", flightDump}, &out); err != nil {
		t.Fatalf("ungated audit failed: %v", err)
	}
}

// TestAuditEventLogOnly: the event log alone carries every verdict, so
// the rate is diverge / (agree + diverge) = 1/2 — not 1 of 4 requests.
func TestAuditEventLogOnly(t *testing.T) {
	eventLog, _ := writeAuditFixtures(t, true)
	outFile := filepath.Join(t.TempDir(), "audit.json")
	var out bytes.Buffer
	err := cmdAudit([]string{"-event-log", eventLog, "-max-diverge-rate", "0", "-o", outFile}, &out)
	if err == nil {
		t.Fatal("event-log divergence not gated")
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep auditReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DivergeRate != 0.5 || rep.Comparisons != 2 || rep.WorstPiDelta != 3.1e-5 {
		t.Errorf("diverge rate = %g over %d comparisons (worst |dpi| %g), want 0.5 over 2",
			rep.DivergeRate, rep.Comparisons, rep.WorstPiDelta)
	}
}

func TestAuditRequiresInput(t *testing.T) {
	var out bytes.Buffer
	if err := cmdAudit(nil, &out); err == nil {
		t.Fatal("audit with no inputs succeeded")
	}
}
