package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	r, n, c, err := parseMix("0.8,0.15,0.05")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.8) > 1e-12 || math.Abs(n-0.15) > 1e-12 || math.Abs(c-0.05) > 1e-12 {
		t.Fatalf("mix = %v %v %v", r, n, c)
	}
	// Renormalization: absolute weights work too.
	r, n, c, err = parseMix("8, 1, 1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.8) > 1e-12 || math.Abs(n-0.1) > 1e-12 || math.Abs(c-0.1) > 1e-12 {
		t.Fatalf("renormalized mix = %v %v %v", r, n, c)
	}
	for _, bad := range []string{"", "1,2", "1,2,3,4", "a,b,c", "-1,1,1", "0,0,0"} {
		if _, _, _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q): want error", bad)
		}
	}
}

func TestLoadgenRequestClasses(t *testing.T) {
	cfg := &loadgenConfig{arch: "6v", n: 12, neighbors: 4}
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	neighborMTTCs := map[float64]bool{}
	coldMTTCs := map[float64]bool{}
	for i := 0; i < 4000; i++ {
		class, body := lgRequestFor(rng, cfg, 0.5, 0.25)
		counts[class]++
		var req solveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if req.Arch != "6v" || req.N == nil || *req.N != 12 {
			t.Fatalf("class %s: arch/N not carried: %s", class, body)
		}
		switch class {
		case "repeat":
			if req.MTTC != nil {
				t.Fatalf("repeat request must be the identical base point, got MTTC %v", *req.MTTC)
			}
		case "neighbor":
			neighborMTTCs[*req.MTTC] = true
		case "cold":
			coldMTTCs[*req.MTTC] = true
		}
	}
	for _, class := range []string{"repeat", "neighbor", "cold"} {
		if counts[class] == 0 {
			t.Fatalf("class %s never drawn: %v", class, counts)
		}
	}
	// Neighbors are confined to a finite grid (they warm up and then hit);
	// cold points are effectively unique (they never hit).
	if len(neighborMTTCs) > cfg.neighbors {
		t.Fatalf("%d distinct neighbor points exceeds the -neighbors %d grid", len(neighborMTTCs), cfg.neighbors)
	}
	if len(coldMTTCs) < counts["cold"]*9/10 {
		t.Fatalf("cold points collide too much: %d distinct of %d", len(coldMTTCs), counts["cold"])
	}
}

func TestLoadgenGates(t *testing.T) {
	r := &lgReport{
		ErrorRate:     0.01,
		CacheHitRate:  0.9,
		HitSpeedupP50: 20,
	}
	r.Latency.P99 = 0.5

	pass := &loadgenConfig{maxP99: time.Second, maxErrorRate: 0.05, minHitRate: 0.5, minSpeedup: 10}
	if err := checkGates(pass, r); err != nil {
		t.Fatalf("gates should pass: %v", err)
	}
	// Disabled gates never fire.
	if err := checkGates(&loadgenConfig{maxErrorRate: -1, minHitRate: -1}, r); err != nil {
		t.Fatalf("disabled gates fired: %v", err)
	}
	cases := []struct {
		cfg  loadgenConfig
		want string
	}{
		{loadgenConfig{maxP99: 100 * time.Millisecond, maxErrorRate: -1, minHitRate: -1}, "max-p99"},
		{loadgenConfig{maxErrorRate: 0, minHitRate: -1}, "max-error-rate"},
		{loadgenConfig{maxErrorRate: -1, minHitRate: 0.95}, "min-hit-rate"},
		{loadgenConfig{maxErrorRate: -1, minHitRate: -1, minSpeedup: 50}, "min-p50-speedup"},
	}
	for _, c := range cases {
		err := checkGates(&c.cfg, r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("gate %s: err = %v", c.want, err)
		}
	}
	// No hit/miss split at all: the speedup gate fails loudly instead of
	// vacuously passing.
	empty := &lgReport{}
	err := checkGates(&loadgenConfig{minSpeedup: 10, maxErrorRate: -1, minHitRate: -1}, empty)
	if err == nil || !strings.Contains(err.Error(), "min-p50-speedup") {
		t.Fatalf("speedup gate on empty split: %v", err)
	}
}

// TestLoadgenEndToEnd drives the full generator against a stub daemon and
// checks the report accounting: totals, cache-status split, hit rate, and
// the JSON artifact round trip.
func TestLoadgenEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var hits, misses int
	seen := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		cache := "hit"
		if !seen[string(body)] {
			seen[string(body)] = true
			cache = "miss"
			misses++
		} else {
			hits++
		}
		mu.Unlock()
		if cache == "miss" {
			time.Sleep(20 * time.Millisecond) // miss = solver work
		}
		json.NewEncoder(w).Encode(map[string]any{"cache": cache, "reliability": 0.9})
	}))
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "loadgen.json")
	err := cmdLoadgen([]string{
		"-url", srv.URL,
		"-duration", "300ms",
		"-concurrency", "2",
		"-mix", "0.9,0.05,0.05",
		"-seed", "99",
		"-o", out,
		"-max-error-rate", "0",
		"-min-hit-rate", "0.2",
		"-min-p50-speedup", "1", // stub miss sleeps 20ms, hits are instant
	}, io.Discard)
	if err != nil {
		t.Fatalf("cmdLoadgen: %v", err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep lgReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if rep.TotalRequests == 0 || rep.Errors != 0 {
		t.Fatalf("total %d errors %d", rep.TotalRequests, rep.Errors)
	}
	if rep.CacheStatus["hit"] != hits || rep.CacheStatus["miss"] != misses {
		t.Fatalf("cache split %v vs server hits=%d misses=%d", rep.CacheStatus, hits, misses)
	}
	if rep.CacheHitRate <= 0 || rep.CacheHitRate >= 1 {
		t.Fatalf("hit rate %v", rep.CacheHitRate)
	}
	if rep.HitSpeedupP50 < 1 {
		t.Fatalf("speedup %v with a 20ms sleeping miss path", rep.HitSpeedupP50)
	}
	if rep.Latency.Count != rep.TotalRequests {
		t.Fatalf("latency count %d != total %d", rep.Latency.Count, rep.TotalRequests)
	}
	if rep.AchievedRPS <= 0 {
		t.Fatalf("achieved rps %v", rep.AchievedRPS)
	}
	if got := rep.ClassCounts["repeat"] + rep.ClassCounts["neighbor"] + rep.ClassCounts["cold"]; got != rep.TotalRequests {
		t.Fatalf("class counts %v don't add up to %d", rep.ClassCounts, rep.TotalRequests)
	}
	if rep.Manifest.Command != "loadgen" {
		t.Fatalf("manifest command %q", rep.Manifest.Command)
	}
}

// TestLoadgenGateFailureExits verifies a violated gate surfaces as an
// error (the CLI turns it into a non-zero exit for check.sh).
func TestLoadgenGateFailureExits(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(map[string]any{"cache": "miss", "reliability": 0.9})
	}))
	defer srv.Close()
	err := cmdLoadgen([]string{
		"-url", srv.URL,
		"-duration", "100ms",
		"-concurrency", "2",
		"-min-hit-rate", "0.5", // stub never reports a hit
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "min-hit-rate") {
		t.Fatalf("want min-hit-rate gate failure, got %v", err)
	}
}

func TestLoadgenRejectsBadFlags(t *testing.T) {
	if err := cmdLoadgen([]string{"-mix", "1,2"}, io.Discard); err == nil {
		t.Fatal("bad -mix accepted")
	}
	if err := cmdLoadgen([]string{}, io.Discard); err == nil {
		t.Fatal("missing -url accepted")
	}
	if err := cmdLoadgen([]string{"-url", "http://x", "-self-serve"}, io.Discard); err == nil {
		t.Fatal("-url with -self-serve accepted")
	}
}

func TestLoadgenSLOGates(t *testing.T) {
	samples := make([]lgSample, 100)
	for i := range samples {
		samples[i] = lgSample{seconds: 0.010, status: http.StatusOK, cache: "hit", class: "repeat"}
	}
	// 2 errors and 3 slow requests out of 100.
	samples[0].status = http.StatusInternalServerError
	samples[1].status = 0
	for i := 2; i < 5; i++ {
		samples[i].seconds = 2.0
	}

	// Budget-respecting objectives pass: 2% errors vs a 10% budget,
	// 3% slow is under... no wait, 3% slow vs a 1% budget always burns.
	cfg := &loadgenConfig{sloAvailability: 0.9, maxErrorRate: -1, minHitRate: -1}
	r := buildReport(cfg, samples, time.Second)
	if r.SLO == nil {
		t.Fatal("SLO gates configured but report has no slo block")
	}
	if burn := r.SLO.AvailabilityBurnRate; burn < 0.19 || burn > 0.21 {
		t.Errorf("availability burn = %v, want ~0.2 (2%% errors / 10%% budget)", burn)
	}
	if err := checkGates(cfg, r); err != nil {
		t.Errorf("0.2x availability burn failed the gate: %v", err)
	}

	// A 0.999 objective cannot absorb 2% errors: burn 20x, gate fails.
	cfg = &loadgenConfig{sloAvailability: 0.999, maxErrorRate: -1, minHitRate: -1}
	r = buildReport(cfg, samples, time.Second)
	err := checkGates(cfg, r)
	if err == nil || !strings.Contains(err.Error(), "availability error budget") {
		t.Errorf("availability burn 20x: err = %v", err)
	}

	// Latency gate: 3% of requests over 1s against a p99 objective burns
	// at 3x; against a generous 10s objective nothing is slow.
	cfg = &loadgenConfig{sloP99: time.Second, maxErrorRate: -1, minHitRate: -1}
	r = buildReport(cfg, samples, time.Second)
	if r.SLO.SlowFraction != 0.03 {
		t.Errorf("slow fraction = %v, want 0.03", r.SLO.SlowFraction)
	}
	err = checkGates(cfg, r)
	if err == nil || !strings.Contains(err.Error(), "latency error budget") {
		t.Errorf("latency burn 3x: err = %v", err)
	}
	cfg = &loadgenConfig{sloP99: 10 * time.Second, maxErrorRate: -1, minHitRate: -1}
	r = buildReport(cfg, samples, time.Second)
	if err := checkGates(cfg, r); err != nil {
		t.Errorf("10s objective with 2s worst case failed: %v", err)
	}

	// Gates off: no SLO block in the artifact.
	cfg = &loadgenConfig{maxErrorRate: -1, minHitRate: -1}
	if r := buildReport(cfg, samples, time.Second); r.SLO != nil {
		t.Error("slo block present with gates off")
	}
}
