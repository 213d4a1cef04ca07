package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nvrel"
	"nvrel/internal/obs"
	"nvrel/internal/servecache"
)

// postSolve fires one request and returns status code, decoded response,
// and the raw body bytes (for bit-for-bit comparisons).
func postSolve(t *testing.T, url, body string) (int, solveResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sr solveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("bad solve response: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, sr, raw
}

// TestServeSolveConcurrentCoalesces is the singleflight acceptance
// criterion: M concurrent identical requests trigger exactly ONE solver
// entry (counter evidence), every response carries the same bit-identical
// reliability as the batch CLI, and subsequent identical requests are
// answered from cache without touching the solver at all.
func TestServeSolveConcurrentCoalesces(t *testing.T) {
	_, ts := newTestServer(t)
	const workers = 16

	computeBefore := obs.CounterFor("serve.solve.compute").Value()
	fillBefore := obs.CounterFor("servecache.fill").Value()

	var wg sync.WaitGroup
	statuses := make([]string, workers)
	rels := make([]float64, workers)
	codes := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, sr, _ := postSolve(t, ts.URL, `{"arch":"6v"}`)
			codes[i], statuses[i], rels[i] = code, sr.Cache, sr.Reliability
		}(i)
	}
	wg.Wait()

	model, err := nvrel.BuildSixVersion(nvrel.DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i := 0; i < workers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, codes[i])
		}
		if rels[i] != want {
			t.Fatalf("request %d reliability %.17g, batch CLI computes %.17g", i, rels[i], want)
		}
		switch statuses[i] {
		case "miss":
			misses++
		case "coalesced", "hit":
		default:
			t.Fatalf("request %d cache status %q", i, statuses[i])
		}
	}
	if misses != 1 {
		t.Errorf("%d leaders among %d identical requests, want exactly 1", misses, workers)
	}
	if got := obs.CounterFor("serve.solve.compute").Value() - computeBefore; got != 1 {
		t.Errorf("serve.solve.compute advanced by %d for %d identical requests, want 1", got, workers)
	}
	if got := obs.CounterFor("servecache.fill").Value() - fillBefore; got != 1 {
		t.Errorf("servecache.fill advanced by %d, want 1", got)
	}

	// The now-cached key must be served without entering the solver: the
	// compute counter stays put and the response carries no solver trace.
	code, sr, _ := postSolve(t, ts.URL, `{"arch":"6v"}`)
	if code != http.StatusOK || sr.Cache != "hit" {
		t.Fatalf("follow-up = %d cache %q, want 200/hit", code, sr.Cache)
	}
	if sr.Reliability != want {
		t.Errorf("hit reliability %.17g != %.17g", sr.Reliability, want)
	}
	if len(sr.Trace) != 0 {
		t.Errorf("cache hit carries %d solver trace spans, want none", len(sr.Trace))
	}
	if got := obs.CounterFor("serve.solve.compute").Value() - computeBefore; got != 1 {
		t.Errorf("hit advanced serve.solve.compute to %d, want still 1", got)
	}
}

// TestServeSolveConcurrentDistinct: concurrent requests for DIFFERENT
// parameter points each solve exactly once — coalescing collapses
// duplicates, never distinct work.
func TestServeSolveConcurrentDistinct(t *testing.T) {
	prevObs := obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prevObs) })
	// Enough admission slots that every distinct point can lead its own
	// flight at once (the default test server only admits 2).
	s := newServer(serveConfig{maxConcurrent: 4, solveTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	points := []string{
		`{"arch":"4v"}`,
		`{"arch":"4v","n":7}`,
		`{"arch":"4v","n":10}`,
	}
	fillBefore := obs.CounterFor("servecache.fill").Value()
	var wg sync.WaitGroup
	for _, body := range points {
		for rep := 0; rep < 4; rep++ {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				code, _, raw := postSolve(t, ts.URL, body)
				if code != http.StatusOK {
					t.Errorf("%s = %d: %s", body, code, raw)
				}
			}(body)
		}
	}
	wg.Wait()
	if got := obs.CounterFor("servecache.fill").Value() - fillBefore; got != int64(len(points)) {
		t.Errorf("servecache.fill advanced by %d for %d distinct points, want %d", got, len(points), len(points))
	}
}

// TestServeReadyzFlipsAtDrainStart: the readiness probe must go
// not-ready the moment the drain begins, before the listener closes, so
// load balancers stop routing to an instance that is about to go away.
func TestServeReadyzFlipsAtDrainStart(t *testing.T) {
	s, ts := newTestServer(t)
	s.warmUp(io.Discard)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz warm = %d, want 200", resp.StatusCode)
	}

	s.beginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz draining = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("/readyz draining body = %q, want to mention draining", body)
	}
	// Liveness and in-flight solves keep working during the drain.
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz during drain = %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if code, _, _ := postSolve(t, ts.URL, `{"arch":"4v"}`); code != http.StatusOK {
		t.Errorf("/solve during drain = %d, want 200", code)
	}
}

func postBatchJSON(t *testing.T, url, body string) (int, batchResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("bad batch response: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, br, raw
}

// TestServeBatchMatchesBatchCLI: batch results must be bit-for-bit what
// the batch CLI computes, duplicates must collapse onto one solve, and a
// second identical batch must be answered entirely from cache.
func TestServeBatchMatchesBatchCLI(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"requests":[{"arch":"6v"},{"arch":"4v"},{"arch":"6v"}]}`

	fillBefore := obs.CounterFor("servecache.fill").Value()
	code, br, raw := postBatchJSON(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("/solve/batch = %d: %s", code, raw)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(br.Results))
	}
	if br.UniqueSolves != 2 {
		t.Errorf("unique_solves = %d for 3 items with one duplicate, want 2", br.UniqueSolves)
	}
	if br.Groups < 1 {
		t.Errorf("groups = %d, want >= 1", br.Groups)
	}
	if got := obs.CounterFor("servecache.fill").Value() - fillBefore; got != 2 {
		t.Errorf("servecache.fill advanced by %d, want 2", got)
	}

	m6, _ := nvrel.BuildSixVersion(nvrel.DefaultSixVersion())
	want6, err := m6.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	m4, _ := nvrel.BuildFourVersion(nvrel.DefaultFourVersion())
	want4, err := m4.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{want6, want4, want6} {
		r := br.Results[i]
		if r.Error != "" || r.Solver == "" {
			t.Fatalf("item %d errored or empty: %q", i, r.Error)
		}
		if r.Reliability != want {
			t.Errorf("item %d reliability %.17g, batch CLI computes %.17g", i, r.Reliability, want)
		}
	}
	// The duplicate pair must be bit-identical as serialized too.
	a, _ := json.Marshal(br.Results[0])
	b, _ := json.Marshal(br.Results[2])
	if !bytes.Equal(a, b) {
		t.Errorf("duplicate items differ:\n%s\n%s", a, b)
	}

	// Identical batch again: all hits, no new fills.
	code, br2, _ := postBatchJSON(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("second batch = %d", code)
	}
	for i, r := range br2.Results {
		if r.Cache != "hit" {
			t.Errorf("second-batch item %d cache = %q, want hit", i, r.Cache)
		}
		if r.Reliability != br.Results[i].Reliability {
			t.Errorf("second-batch item %d reliability drifted", i)
		}
	}
	if br2.UniqueSolves != 0 {
		t.Errorf("second-batch unique_solves = %d, want 0", br2.UniqueSolves)
	}
	if got := obs.CounterFor("servecache.fill").Value() - fillBefore; got != 2 {
		t.Errorf("second batch added fills: total delta %d, want still 2", got)
	}
}

// TestServeBatchPerItemErrors: one bad item fails alone; the envelope and
// its siblings still succeed.
func TestServeBatchPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t)
	code, br, raw := postBatchJSON(t, ts.URL,
		`{"requests":[{"arch":"4v"},{"arch":"42v"},{"arch":"4v","n":-1}]}`)
	if code != http.StatusOK {
		t.Fatalf("/solve/batch = %d: %s", code, raw)
	}
	if br.Results[0].Error != "" || br.Results[0].Solver == "" {
		t.Errorf("good item failed: %q", br.Results[0].Error)
	}
	if br.Results[1].Error == "" || br.Results[2].Error == "" {
		t.Errorf("bad items did not surface errors: %+v", br.Results)
	}

	for _, bad := range []struct{ body, why string }{
		{`{"requests":[]}`, "empty"},
		{`not json`, "malformed"},
	} {
		code, _, _ := postBatchJSON(t, ts.URL, bad.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s batch = %d, want 400", bad.why, code)
		}
	}
}

// TestServeCacheStatusValues pins the wire vocabulary that the load
// generator and smoke test grep for.
func TestServeCacheStatusValues(t *testing.T) {
	for st, want := range map[servecache.Status]string{
		servecache.StatusMiss:      "miss",
		servecache.StatusHit:       "hit",
		servecache.StatusCoalesced: "coalesced",
	} {
		if st.String() != want {
			t.Errorf("status %d = %q, want %q", st, st.String(), want)
		}
	}
	if fmt.Sprintf("%v", servecache.StatusMiss) != "miss" {
		t.Error("Status does not format as its wire string")
	}
}
