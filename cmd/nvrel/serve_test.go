package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nvrel"
	"nvrel/internal/obs"
)

// newTestServer builds a daemon with telemetry forced on (restored at
// test end) and returns it with an httptest front end.
func newTestServer(t *testing.T) (*server, *httptest.Server) {
	return newTestServerCfg(t, serveConfig{maxConcurrent: 2, solveTimeout: 30 * time.Second})
}

func newTestServerCfg(t *testing.T, cfg serveConfig) (*server, *httptest.Server) {
	t.Helper()
	prevObs := obs.Enable()
	prevTrace := obs.TraceEnable()
	obs.TraceReset()
	prevEvents := obs.EventsEnable()
	obs.EventsReset()
	t.Cleanup(func() {
		obs.SetEnabled(prevObs)
		obs.SetTraceEnabled(prevTrace)
		obs.SetEventsEnabled(prevEvents)
	})
	s := newServer(cfg)
	t.Cleanup(s.shadow.Close)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestServeHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before warm-up = %d, want 503", resp.StatusCode)
	}

	s.warmUp(io.Discard)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after warm-up = %d, want 200", resp.StatusCode)
	}
}

// TestServeSolveMatchesBatchCLI is the acceptance criterion: a /solve
// round-trip must match the batch solver bit-for-bit. The response float
// survives its JSON round trip exactly (encoding/json emits the shortest
// representation that parses back to the same float64).
func TestServeSolveMatchesBatchCLI(t *testing.T) {
	_, ts := newTestServer(t)
	for _, arch := range []string{"4v", "6v"} {
		resp, err := http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"arch":%q}`, arch)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/solve %s = %d: %s", arch, resp.StatusCode, body)
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("/solve %s response: %v", arch, err)
		}

		var model *nvrel.Model
		if arch == "4v" {
			model, err = nvrel.BuildFourVersion(nvrel.DefaultFourVersion())
		} else {
			model, err = nvrel.BuildSixVersion(nvrel.DefaultSixVersion())
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.ExpectedPaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Reliability != want {
			t.Errorf("/solve %s reliability = %.17g, batch CLI computes %.17g", arch, sr.Reliability, want)
		}
		if sr.States != model.Graph.NumStates() {
			t.Errorf("/solve %s states = %d, want %d", arch, sr.States, model.Graph.NumStates())
		}
		if sr.Diag == nil {
			t.Errorf("/solve %s missing diag", arch)
		}
	}
}

func TestServeSolveDefaultsMirrorSolveCommand(t *testing.T) {
	req := solveRequest{Arch: "4v"}
	p, arch, err := req.params()
	if err != nil {
		t.Fatal(err)
	}
	if arch != "4v" || p.N != 4 || p.R != 0 {
		t.Errorf("4v defaults = N=%d R=%d, want N=4 R=0", p.N, p.R)
	}
	n := 8
	req = solveRequest{Arch: "4v", N: &n}
	if p, _, _ = req.params(); p.N != 8 || p.R != 0 {
		t.Errorf("4v with n=8 = N=%d R=%d, want N=8 R=0", p.N, p.R)
	}
	req = solveRequest{}
	if p, arch, _ = req.params(); arch != "6v" || p.N != 6 || p.R != 1 {
		t.Errorf("empty request = %s N=%d R=%d, want 6v N=6 R=1", arch, p.N, p.R)
	}
	req = solveRequest{Arch: "9v"}
	if _, _, err = req.params(); err == nil {
		t.Error("unknown arch accepted")
	}
}

// TestServeSolveTimeoutBounds: timeout_seconds can only shorten the
// server's deadline. Negative, sub-nanosecond and time.Duration-overflowing
// values are rejected (the old conversion wrapped 1e10 s to a negative
// duration, which ran the solve with no deadline at all).
func TestServeSolveTimeoutBounds(t *testing.T) {
	const limit = 30 * time.Second
	cases := []struct {
		seconds float64
		want    time.Duration // 0: params() must reject the request
	}{
		{0, limit},
		{2, 2 * time.Second},
		{0.25, 250 * time.Millisecond},
		{1e-9, time.Nanosecond},
		{30, limit},
		{3600, limit},
		{9e9, limit},
		{-1, 0},
		{-1e-300, 0},
		{1e-12, 0},
		{9.3e9, 0},
		{1e10, 0},
		{math.MaxFloat64, 0},
	}
	for _, c := range cases {
		req := solveRequest{TimeoutSeconds: c.seconds}
		_, _, err := req.params()
		if c.want == 0 {
			if err == nil {
				t.Errorf("timeout_seconds %g accepted", c.seconds)
			}
			continue
		}
		if err != nil {
			t.Errorf("timeout_seconds %g rejected: %v", c.seconds, err)
		} else if got := req.timeout(limit); got != c.want {
			t.Errorf("timeout_seconds %g resolves to %v, want %v", c.seconds, got, c.want)
		}
	}
}

func TestServeSolveTraceNesting(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Trace) == 0 {
		t.Fatal("solve response carries no trace")
	}
	depth := map[string]int{}
	parent := map[string]string{}
	for _, row := range sr.Trace {
		depth[row.Name] = row.Depth
		parent[row.Name] = row.Parent
	}
	if depth["serve.solve"] != 0 {
		t.Errorf("serve.solve depth = %d, want 0 (rows: %+v)", depth["serve.solve"], sr.Trace)
	}
	if parent["parallel.item"] != "serve.solve" {
		t.Errorf("parallel.item parent = %q, want serve.solve", parent["parallel.item"])
	}
	if parent["nvp.solve"] != "parallel.item" {
		t.Errorf("nvp.solve parent = %q, want parallel.item", parent["nvp.solve"])
	}
	if _, ok := parent["mrgp.solve"]; !ok {
		t.Errorf("trace missing mrgp.solve rows: %+v", sr.Trace)
	}
}

func TestServeMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	// A solve and its cache hit before scraping so serve.request and
	// serve.solve.seconds are nonzero.
	for range 2 {
		if resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v"}`)); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", got)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE serve_request counter") {
		t.Errorf("/metrics missing serve_request family:\n%.400s", text)
	}
	if !strings.Contains(text, "# TYPE serve_solve_seconds histogram") {
		t.Errorf("/metrics missing serve_solve_seconds histogram:\n%.400s", text)
	}
	var serveReq, solveCount, subMilli int64
	for _, line := range strings.Split(text, "\n") {
		fmt.Sscanf(line, "serve_request %d", &serveReq)
		fmt.Sscanf(line, "serve_solve_seconds_count %d", &solveCount)
		fmt.Sscanf(line, `serve_solve_seconds_bucket{le="0.0005"} %d`, &subMilli)
	}
	if serveReq < 1 || solveCount < 1 {
		t.Errorf("serve_request = %d, serve_solve_seconds_count = %d, want both >= 1", serveReq, solveCount)
	}
	// The hit resolves below the 1 ms bucket.
	if subMilli < 1 {
		t.Errorf(`serve_solve_seconds_bucket{le="0.0005"} = %d, want >= 1 after a cache hit`, subMilli)
	}

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if doc.Manifest.Command != "serve" || doc.Manifest.GoVersion == "" {
		t.Errorf("/metrics.json manifest = %+v", doc.Manifest)
	}
	if _, ok := doc.Metrics.Counters["serve.request"]; !ok {
		t.Error("/metrics.json missing serve.request counter")
	}
}

func TestServeTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v"}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/traces is not trace-event JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "serve.solve" {
			found = true
		}
	}
	if !found {
		t.Errorf("/traces missing serve.solve span among %d events", len(doc.TraceEvents))
	}
}

func TestServeSolveRejectsWhenBusy(t *testing.T) {
	s, ts := newTestServer(t)
	// Fill the admission semaphore so the next request sees a full house.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("/solve while busy = %d, want 429", resp.StatusCode)
	}
}

func TestServeSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"arch":"42v"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"arch":"4v","n":-3}`, http.StatusUnprocessableEntity},
		{`{"timeout_seconds":-1}`, http.StatusBadRequest},
		{`{"timeout_seconds":1e10}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("/solve %q = %d, want %d", c.body, resp.StatusCode, c.want)
		}
		if e.Error == "" {
			t.Errorf("/solve %q returned no error message", c.body)
		}
	}
}

func TestServeUsageListsCommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	if !strings.Contains(buf.String(), "serve") {
		t.Error("usage does not mention serve")
	}
}

func TestServeSolveReturnsTraceID(t *testing.T) {
	_, ts := newTestServer(t)
	solve := func() (*http.Response, solveResponse) {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v"}`))
		if err != nil {
			t.Fatal(err)
		}
		var sr solveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, sr
	}
	resp, miss := solve()
	if miss.TraceID == "" {
		t.Fatal("miss response has no trace_id")
	}
	if got := resp.Header.Get(traceHeader); got != miss.TraceID {
		t.Errorf("%s header = %q, envelope trace_id = %q", traceHeader, got, miss.TraceID)
	}
	// The cache hit never enters the solver, but still gets its own
	// request trace ID (satellite: trace_id for hits and coalesced
	// waiters too, not just flight leaders).
	resp2, hit := solve()
	if hit.Cache != "hit" {
		t.Fatalf("second solve cache = %q, want hit", hit.Cache)
	}
	if hit.TraceID == "" || hit.TraceID == miss.TraceID {
		t.Errorf("hit trace_id = %q (miss was %q); want fresh nonempty ID", hit.TraceID, miss.TraceID)
	}
	if got := resp2.Header.Get(traceHeader); got != hit.TraceID {
		t.Errorf("hit %s header = %q, want %q", traceHeader, got, hit.TraceID)
	}
}

func TestServeBatchReturnsTraceID(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json",
		strings.NewReader(`{"requests":[{"arch":"6v"},{"arch":"4v"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.TraceID == "" {
		t.Fatal("batch envelope has no trace_id")
	}
	if got := resp.Header.Get(traceHeader); got != br.TraceID {
		t.Errorf("%s header = %q, envelope = %q", traceHeader, got, br.TraceID)
	}
}

func TestServeEventsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	obs.EventsReset()
	// 4v routes through the ctmc solver, whose diag carries a solve path.
	if resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v"}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if resp, err := http.Post(ts.URL+"/solve/batch", "application/json",
		strings.NewReader(`{"requests":[{"arch":"6v"}]}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []obs.Event `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/events: %v", err)
	}
	// Each request is a miss: one request record plus one compute record.
	var reqs, computes []obs.Event
	for _, ev := range doc.Events {
		if ev.Method == "compute" {
			computes = append(computes, ev)
		} else {
			reqs = append(reqs, ev)
		}
	}
	if len(reqs) != 2 || len(computes) != 2 {
		t.Fatalf("/events has %d request and %d compute records, want 2 and 2: %+v", len(reqs), len(computes), doc.Events)
	}
	solveEv, batchEv := reqs[0], reqs[1]
	if solveEv.Method != "solve" || batchEv.Method != "batch" {
		t.Fatalf("event methods = %q,%q", solveEv.Method, batchEv.Method)
	}
	for i, want := range []struct {
		req    obs.Event
		solver string
	}{{solveEv, "ctmc"}, {batchEv, "mrgp"}} {
		c := computes[i]
		if c.Source != "serve" || c.Solver != want.solver || c.States <= 0 || c.Key == "" || c.TraceID != want.req.TraceID {
			t.Errorf("compute record %d = %+v, want source serve, solver %s, states, key and trace %s",
				i, c, want.solver, want.req.TraceID)
		}
	}
	if c := computes[0]; c.Key != solveEv.Key || c.Path != solveEv.Path || c.Status != 0 {
		t.Errorf("solve compute record = %+v, want key %s and path %s of %+v", c, solveEv.Key, solveEv.Path, solveEv)
	}
	if solveEv.Cache != "miss" || solveEv.Key == "" || solveEv.TraceID == "" {
		t.Errorf("solve event = %+v, want cache=miss with key hash and trace", solveEv)
	}
	if solveEv.Status != http.StatusOK || solveEv.LatencySeconds <= 0 {
		t.Errorf("solve event status/latency = %d/%v", solveEv.Status, solveEv.LatencySeconds)
	}
	if solveEv.Path == "" {
		t.Errorf("solve event missing SolveDiag path: %+v", solveEv)
	}
	if batchEv.Items != 1 || batchEv.TraceID == "" {
		t.Errorf("batch event = %+v", batchEv)
	}
}

func TestServeReadyzDrainingWins(t *testing.T) {
	s, ts := newTestServer(t)
	s.warmUp(io.Discard)
	s.beginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("/readyz drain body = %q, want \"draining\"", body)
	}
}

// TestServeHealthzSingleDaemon: /healthz is always the JSON health doc;
// with shadow verification off its numerics block says so.
func TestServeHealthzSingleDaemon(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hd healthDoc
	err = json.NewDecoder(resp.Body).Decode(&hd)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if hd.Status != "ok" || hd.Draining {
		t.Errorf("healthz status=%q draining=%v, want ok/false", hd.Status, hd.Draining)
	}
	if hd.Numerics.Status != "off" {
		t.Errorf("healthz numerics.status = %q, want off with -shadow-rate 0", hd.Numerics.Status)
	}
}

// TestServeRejuvenateAfterNRequests: the request-count trigger fires
// exactly at the budget and the latch is idempotent.
func TestServeRejuvenateAfterNRequests(t *testing.T) {
	s := newServer(serveConfig{maxConcurrent: 1, solveTimeout: time.Second, rejuvenateRequests: 3})
	for i := 0; i < 2; i++ {
		s.noteSolveRequest()
		select {
		case <-s.rejuvenateC:
			t.Fatalf("rejuvenation fired after %d requests, budget is 3", i+1)
		default:
		}
	}
	s.noteSolveRequest()
	select {
	case <-s.rejuvenateC:
	default:
		t.Fatal("rejuvenation did not fire at the request budget")
	}
	first := s.rejuvenateReason
	if first == "" {
		t.Error("no rejuvenation reason recorded")
	}
	// Later triggers (more requests, the timer) must not re-close the
	// channel or overwrite the reason.
	s.noteSolveRequest()
	s.triggerRejuvenate("second trigger")
	if s.rejuvenateReason != first {
		t.Errorf("reason overwritten: %q -> %q", first, s.rejuvenateReason)
	}
}

// TestServeRejuvenateAfterTimer: a spent -rejuvenate-after budget closes
// the latch with a "ran for" reason.
func TestServeRejuvenateAfterTimer(t *testing.T) {
	s := newServer(serveConfig{maxConcurrent: 1, rejuvenateAfter: 10 * time.Millisecond})
	defer s.rejuvenateTimer()()
	select {
	case <-s.rejuvenateC:
	case <-time.After(10 * time.Second):
		t.Fatal("rejuvenation timer never fired")
	}
	if !strings.HasPrefix(s.rejuvenateReason, "ran for ") {
		t.Errorf("reason = %q, want \"ran for ...\"", s.rejuvenateReason)
	}
}

// TestServeRejuvenateTimerStops: the stop function cmdServe defers on a
// normal shutdown cancels a timer that has not fired yet.
func TestServeRejuvenateTimerStops(t *testing.T) {
	s := newServer(serveConfig{maxConcurrent: 1, rejuvenateAfter: 50 * time.Millisecond})
	s.rejuvenateTimer()()
	select {
	case <-s.rejuvenateC:
		t.Fatalf("stopped timer fired: %s", s.rejuvenateReason)
	case <-time.After(200 * time.Millisecond):
	}
}
