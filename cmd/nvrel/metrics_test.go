package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestGlobalMetricsFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if _, err := capture(t, "-metrics", path, "solve", "-arch", "4v"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if doc.Manifest.GoVersion == "" || doc.Manifest.GOARCH == "" || doc.Manifest.NumCPU <= 0 {
		t.Errorf("manifest missing toolchain/machine fields: %+v", doc.Manifest)
	}
	if doc.Manifest.Command != "solve" {
		t.Errorf("manifest command = %q, want solve", doc.Manifest.Command)
	}
	if doc.Manifest.ParamsHash == "" || doc.Manifest.WallSeconds <= 0 {
		t.Errorf("manifest missing run fields: %+v", doc.Manifest)
	}
	if doc.Metrics.Counters["petri.solve.dense"] == 0 {
		t.Errorf("solve left petri.solve.dense at zero: %v", doc.Metrics.Counters)
	}
	if doc.Metrics.Counters["petri.explore.states"] == 0 {
		t.Errorf("solve left petri.explore.states at zero: %v", doc.Metrics.Counters)
	}
}

// TestCmdSolveMetricsMrgpRouting pins the routing/recovery distinction of
// the Markov-regenerative counters: at a 3000 s rejuvenation interval the
// default six-version model's series would run ~2300 terms, so the cost
// model routes a clean solve dense *by cost* and the failure-recovery
// counters stay at zero. The chaos test asserts the complementary case
// (routed_sparse plus recovered_dense after an injected failure).
func TestCmdSolveMetricsMrgpRouting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if _, err := capture(t, "-metrics", path, "solve", "-arch", "6v", "-interval", "3000"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	c := doc.Metrics.Counters
	if c["mrgp.solve.routed_dense"] == 0 {
		t.Errorf("clean long-interval solve left mrgp.solve.routed_dense at zero: %v", c)
	}
	if c["mrgp.solve.routed_sparse"] != 0 {
		t.Errorf("long-interval solve routed sparse: %v", c)
	}
	if c["mrgp.solve.recovered_dense"] != 0 || c["mrgp.solve.fallback_dense"] != 0 {
		t.Errorf("clean solve reported a failure recovery: %v", c)
	}
}

func TestGlobalFlagValidation(t *testing.T) {
	if _, err := capture(t, "-metrics"); err == nil {
		t.Error("-metrics without value accepted")
	}
	if _, err := capture(t, "-cpuprofile="); err == nil {
		t.Error("empty -cpuprofile= accepted")
	}
}

func TestGlobalProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, err := capture(t, "-cpuprofile", cpu, "-memprofile", mem, "solve", "-arch", "4v"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestCmdBenchEmbedsSolverMetrics drives the gs-sparse probe (the one
// bench entry sized past linalg.SparseThreshold) and checks the report
// embeds the solver counters the probe must light up: Gauss-Seidel sweeps,
// graph restamps, and plan memo hits.
func TestCmdBenchEmbedsSolverMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, err := capture(t, "bench", "-reps", "1", "-only", "gs-sparse", "-o", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bench report is not valid JSON: %v", err)
	}
	if len(report.Results) == 0 {
		t.Fatal("bench report has no results")
	}
	for _, name := range []string{
		"linalg.gs.sweeps",
		"petri.solve.sparse",
		"petri.restamp",
		"petri.plan.memo_hit",
		"nvp.cache.hit",
	} {
		if report.Metrics.Counters[name] == 0 {
			t.Errorf("bench metrics left %s at zero: %v", name, report.Metrics.Counters)
		}
	}
	if report.Manifest.Command != "bench" {
		t.Errorf("manifest command = %q, want bench", report.Manifest.Command)
	}
	if report.Manifest.Phases["gs-sparse"] <= 0 {
		t.Errorf("manifest phases missing gs-sparse: %v", report.Manifest.Phases)
	}
}

func TestCmdBenchOnlyValidation(t *testing.T) {
	if _, err := capture(t, "bench", "-reps", "1", "-only", "nope"); err == nil {
		t.Error("unknown -only experiment accepted")
	}
}

func TestParamsHash(t *testing.T) {
	a := paramsHash([]string{"solve", "-arch", "4v"})
	b := paramsHash([]string{"solve", "-arch", "6v"})
	if a == b {
		t.Errorf("different argument vectors hash alike: %s", a)
	}
	if a != paramsHash([]string{"solve", "-arch", "4v"}) {
		t.Error("hash is not deterministic")
	}
	// The NUL joiner keeps boundaries distinct: ["ab",""] vs ["a","b"].
	if paramsHash([]string{"ab", ""}) == paramsHash([]string{"a", "b"}) {
		t.Error("argument boundaries are not hashed")
	}
}
