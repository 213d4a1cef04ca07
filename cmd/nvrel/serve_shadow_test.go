package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvrel/internal/faultinject"
	"nvrel/internal/obs"
	"nvrel/internal/shadow"
)

// TestServeContentTypeHeaders pins the exposition content types: the
// Prometheus text endpoint must advertise exposition-format 0.0.4 (some
// scrapers refuse to parse without it) and every structured endpoint
// must say application/json.
func TestServeContentTypeHeaders(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path string
		want string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", "application/json"},
		{"/healthz", "application/json"},
		{"/events", "application/json"},
		{"/traces", "application/json"},
		{"/slo", "application/json"},
		{"/debug/flight", "application/json"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != c.want {
			t.Errorf("%s Content-Type = %q, want %q", c.path, got, c.want)
		}
	}
}

func solveN24(t *testing.T, ts string) {
	t.Helper()
	resp, err := http.Post(ts+"/solve", "application/json",
		strings.NewReader(`{"arch":"4v","n":24}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve = %d: %s", resp.StatusCode, body)
	}
}

func getFlight(t *testing.T, ts string) flightDoc {
	t.Helper()
	resp, err := http.Get(ts + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc flightDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/flight: %v", err)
	}
	return doc
}

// lastRecord returns the newest record of the given method, and with
// key != "" the newest for that params_key_hash.
func lastRecord(t *testing.T, recs []obs.Event, method, key string) obs.Event {
	t.Helper()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Method == method && (key == "" || recs[i].Key == key) {
			return recs[i]
		}
	}
	t.Fatalf("no %q record for key %q in %+v", method, key, recs)
	return obs.Event{}
}

func getHealth(t *testing.T, ts string) healthDoc {
	t.Helper()
	resp, err := http.Get(ts + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	return doc
}

// TestServeShadowAgreesOnCleanSolves drives a sparse-path solve through
// the daemon at shadow-rate 1 and expects the independent GTH re-solve
// to agree: numerics ok, and /debug/flight holding the solve's compute
// record and its agree verdict, both carrying the request's trace id.
func TestServeShadowAgreesOnCleanSolves(t *testing.T) {
	s, ts := newTestServerCfg(t, serveConfig{
		maxConcurrent: 2, solveTimeout: 30 * time.Second, shadowRate: 1,
	})
	solveN24(t, ts.URL)
	doc := getFlight(t, ts.URL) // flushes the verifier
	if doc.Shadow.Sampled < 1 || doc.Shadow.Agree < 1 || doc.Shadow.Diverge != 0 {
		t.Fatalf("shadow stats = %+v, want >=1 sampled+agree, 0 diverge", doc.Shadow)
	}
	if len(doc.Flight) == 0 {
		t.Fatal("/debug/flight empty after solve")
	}
	rec := lastRecord(t, doc.Flight, "compute", "")
	if rec.Source != "serve" || rec.Arch != "4v" || rec.Path != "sparse" {
		t.Fatalf("compute record = %+v", rec)
	}
	if rec.TraceID == "" {
		t.Fatal("compute record has no trace id")
	}
	if rec.Residual <= 0 || rec.Residual > 1e-12 {
		t.Fatalf("GS acceptance residual = %g, want (0, 1e-12]", rec.Residual)
	}
	v := lastRecord(t, doc.Flight, "shadow", rec.Key)
	if v.Verdict != shadow.VerdictAgree || v.Rung != "gth" || v.TraceID != rec.TraceID || v.Path != rec.Path {
		t.Fatalf("verdict record = %+v for compute record %+v", v, rec)
	}
	h := getHealth(t, ts.URL)
	if h.Status != "ok" || h.Numerics.Status != "ok" || h.Numerics.Agree < 1 {
		t.Fatalf("healthz = %+v", h)
	}
	_ = s
}

// TestServeShadowDetectsDrift is the daemon-level acceptance test: a
// drifted (converged-but-wrong) GS solve served to a client must flip
// /healthz to diverging, raise shadow.diverge, and leave a structured
// divergence event behind.
func TestServeShadowDetectsDrift(t *testing.T) {
	divergeBase := obs.CounterFor("shadow.diverge").Value()
	s, ts := newTestServerCfg(t, serveConfig{
		maxConcurrent: 2, solveTimeout: 30 * time.Second, shadowRate: 1,
	})
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	if err := faultinject.Arm(faultinject.Fault{Site: "linalg.gs.drift", Count: 1}, 1); err != nil {
		t.Fatal(err)
	}
	solveN24(t, ts.URL)
	faultinject.Disable()

	doc := getFlight(t, ts.URL)
	if doc.Shadow.Diverge != 1 {
		t.Fatalf("shadow stats = %+v, want 1 diverge", doc.Shadow)
	}
	if got := obs.CounterFor("shadow.diverge").Value() - divergeBase; got != 1 {
		t.Fatalf("shadow.diverge counter delta = %d, want 1", got)
	}
	rec := lastRecord(t, doc.Flight, "compute", "")
	if v := lastRecord(t, doc.Flight, "shadow", rec.Key); v.Verdict != shadow.VerdictDiverge {
		t.Fatalf("verdict record = %+v", v)
	}
	h := getHealth(t, ts.URL)
	if h.Status != "diverging" || h.Numerics.Status != "diverging" {
		t.Fatalf("healthz after drift = %+v", h)
	}
	var found bool
	for _, ev := range obs.EventsSnapshot() {
		if ev.Method == "shadow" && ev.Verdict == shadow.VerdictDiverge {
			found = true
			if ev.TraceID == "" {
				t.Error("divergence record missing trace id")
			}
		}
	}
	if !found {
		t.Fatal("no shadow divergence record in /events")
	}
	_ = s
}

// TestServeShadowOffByDefault: without -shadow-rate the daemon reports
// numerics off and samples nothing, but compute records still land.
func TestServeShadowOffByDefault(t *testing.T) {
	s, ts := newTestServer(t)
	if s.shadow != nil {
		t.Fatal("verifier built at rate 0")
	}
	solveN24(t, ts.URL)
	h := getHealth(t, ts.URL)
	if h.Numerics.Status != "off" || h.Numerics.Sampled != 0 {
		t.Fatalf("numerics = %+v, want off", h.Numerics)
	}
	if doc := getFlight(t, ts.URL); len(doc.Flight) == 0 {
		t.Fatal("no compute records without shadowing")
	}
}

// TestServeMRGPFallbackPathReported: a sparse MRGP solve that stalls and
// is recovered on the dense rung must say so everywhere the evidence
// goes — the reply's diag, the compute record, and the audit report.
func TestServeMRGPFallbackPathReported(t *testing.T) {
	_, ts := newTestServer(t)
	faultinject.Reset()
	if err := faultinject.Arm(faultinject.Fault{Site: "mrgp.power.stall"}, 1); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v","n":10}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	faultinject.Disable()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve = %d: %v", resp.StatusCode, err)
	}
	if sr.Solver != "mrgp" || sr.Diag == nil || sr.Diag.Path != "sparse-fallback-dense" || sr.Diag.Fallback == "" {
		t.Fatalf("reply solver=%q diag=%+v, want mrgp with path sparse-fallback-dense and a fallback", sr.Solver, sr.Diag)
	}

	doc := getFlight(t, ts.URL)
	if len(doc.Flight) != 1 {
		t.Fatalf("/debug/flight has %d records, want 1", len(doc.Flight))
	}
	rec := doc.Flight[0]
	if rec.Path != "sparse-fallback-dense" || rec.Fallback == "" {
		t.Fatalf("compute record path=%q fallback=%q", rec.Path, rec.Fallback)
	}

	dir := t.TempDir()
	dump, out := filepath.Join(dir, "flight.json"), filepath.Join(dir, "audit.json")
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dump, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdAudit([]string{"-flight", dump, "-o", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep auditReport
	if data, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.FallbackRate <= 0 {
		t.Fatalf("audit fallback_rate = %g, want > 0", rep.FallbackRate)
	}
}

// TestServeSolveLeavesThreeRecords: at shadow-rate 1 each /solve miss
// leaves a request, a compute and a verdict record, in /events and in
// the event log alike, joined by params_key_hash and trace_id. One solve
// drifts and one does not, so nvrel audit must read a diverge rate of
// 1/2 from the event log alone and from the /debug/flight dump alone.
func TestServeSolveLeavesThreeRecords(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerCfg(t, serveConfig{
		maxConcurrent: 2, solveTimeout: 30 * time.Second, shadowRate: 1,
	})
	obs.SetEventSink(logFile)
	t.Cleanup(func() {
		obs.SetEventSink(nil)
		logFile.Close()
	})
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	if err := faultinject.Arm(faultinject.Fault{Site: "linalg.gs.drift", Count: 1}, 1); err != nil {
		t.Fatal(err)
	}
	solveN24(t, ts.URL) // drifted: the GTH shadow diverges
	faultinject.Disable()
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v","n":25}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	flight := getFlight(t, ts.URL) // flushes the verifier
	obs.SetEventSink(nil)

	resp, err = http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var ring struct {
		Events []obs.Event `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	logged, err := readAuditFile(logPath, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, recs := range map[string][]obs.Event{"/events": ring.Events, "event log": logged} {
		byKey := map[string][]obs.Event{}
		for _, ev := range recs {
			byKey[ev.Key] = append(byKey[ev.Key], ev)
		}
		if len(byKey) != 2 || len(recs) != 6 {
			t.Fatalf("%s: %d records over %d keys, want 6 over 2: %+v", name, len(recs), len(byKey), recs)
		}
		for key, group := range byKey {
			methods := map[string]int{}
			for _, ev := range group {
				methods[ev.Method]++
				if ev.TraceID == "" || ev.TraceID != group[0].TraceID {
					t.Errorf("%s: key %s: trace ids differ: %+v", name, key, group)
				}
			}
			if len(group) != 3 || methods["solve"] != 1 || methods["compute"] != 1 || methods["shadow"] != 1 {
				t.Errorf("%s: key %s: records %+v, want one solve, compute and shadow", name, key, group)
			}
		}
	}

	dump := filepath.Join(dir, "flight.json")
	data, err := json.Marshal(flight)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dump, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-event-log", logPath}, {"-flight", dump}} {
		out := filepath.Join(dir, "audit.json")
		if err := cmdAudit(append(args, "-o", out), io.Discard); err != nil {
			t.Fatal(err)
		}
		var rep auditReport
		if data, err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.DivergeRate != 0.5 || rep.Comparisons != 2 || rep.Solves != 2 {
			t.Errorf("audit %v: diverge rate %g over %d comparisons, %d solves; want 0.5 over 2, 2 solves",
				args, rep.DivergeRate, rep.Comparisons, rep.Solves)
		}
	}
}
