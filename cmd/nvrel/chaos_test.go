package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// chaosGate holds the outputs of one `nvrel -metrics … chaos -steps 2`
// run, the same invocation scripts/check.sh makes. TestCmdChaos reads its
// report and TestCmdBenchEmbedsSolverMetrics its -metrics artifact, so the
// plan runs once however many of the two are selected.
var chaosGate struct {
	once            sync.Once
	out             string
	err             error
	report, metrics []byte
}

func runChaosGate(t *testing.T) (out string, report, metrics []byte) {
	t.Helper()
	chaosGate.once.Do(func() {
		dir, err := os.MkdirTemp("", "nvrel-chaos-")
		if err != nil {
			chaosGate.err = err
			return
		}
		defer os.RemoveAll(dir)
		path, metricsPath := filepath.Join(dir, "chaos.json"), filepath.Join(dir, "metrics.json")
		chaosGate.out, chaosGate.err = capture(t, "-metrics", metricsPath, "chaos", "-steps", "2", "-timeout", "2m", "-o", path)
		if chaosGate.err != nil {
			return
		}
		if chaosGate.report, chaosGate.err = os.ReadFile(path); chaosGate.err != nil {
			return
		}
		chaosGate.metrics, chaosGate.err = os.ReadFile(metricsPath)
	})
	if chaosGate.err != nil {
		t.Fatalf("chaos gate failed: %v\n%s", chaosGate.err, chaosGate.out)
	}
	return chaosGate.out, chaosGate.report, chaosGate.metrics
}

// TestCmdChaos is the acceptance gate of the fault-injection harness: the
// full built-in plan (every registered site, silent-corruption modes
// included) over the standard sweep workloads must report zero silent
// wrong answers, with every fault either recovered or surfaced typed.
func TestCmdChaos(t *testing.T) {
	out, data, _ := runChaosGate(t)
	if !strings.Contains(out, "0 silent wrong answers") {
		t.Errorf("summary line missing:\n%s", out)
	}
	var report ChaosReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("chaos report is not valid JSON: %v", err)
	}
	if len(report.Results) < 8 {
		t.Fatalf("plan exercised only %d faults, want >= 8", len(report.Results))
	}
	sites := make(map[string]bool)
	for _, r := range report.Results {
		sites[r.Site] = true
		if r.Fired == 0 {
			t.Errorf("fault %s (%s) never fired", r.Site, r.Mode)
		}
		switch r.Class {
		case "recovered_identical", "recovered_fallback", "typed_error":
		default:
			t.Errorf("fault %s (%s) escaped containment: %s", r.Site, r.Mode, r.Class)
		}
	}
	if len(sites) < 8 {
		t.Errorf("plan covers only %d distinct sites, want >= 8", len(sites))
	}
	if report.SilentWrong != 0 {
		t.Errorf("silent_wrong = %d", report.SilentWrong)
	}
	// The baseline grid is shadow-verified at the default -shadow-rate 1.0:
	// every clean solve is cross-checked on an independent rung and none
	// may diverge.
	if report.Shadow == nil {
		t.Fatal("report missing baseline shadow stats")
	}
	if report.Shadow.Sampled == 0 {
		t.Error("baseline shadow check sampled nothing")
	}
	if report.Shadow.Diverge != 0 {
		t.Errorf("baseline shadow divergences = %d", report.Shadow.Diverge)
	}
	// The aggregate snapshot proves the recovery counters are the ones that
	// certified the fallbacks: the mrgp workload routes sparse by cost and
	// recovers on the dense path only after an injected failure.
	for _, name := range []string{
		"mrgp.solve.routed_sparse",
		"mrgp.solve.recovered_dense",
		"mrgp.solve.fallback_dense",
		"petri.solve.recovered",
		"faultinject.fired",
	} {
		if report.Metrics.Counters[name] == 0 {
			t.Errorf("chaos metrics left %s at zero", name)
		}
	}
}

// TestCmdBenchEmbedsSolverMetrics checks that a gate run's metrics
// artifact carries the solver counters the removed `nvrel bench` report
// used to embed. The -metrics artifact of the chaos gate run sees the
// sparse routes at work: Gauss-Seidel sweeps, graph restamps and plan memo
// hits through the model cache, registry seeds accepted by the kernels,
// and a pool utilization reading. scripts/check.sh greps the same names.
func TestCmdBenchEmbedsSolverMetrics(t *testing.T) {
	_, _, data := runChaosGate(t)
	var doc metricsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	for _, name := range []string{
		"linalg.gs.sweeps", "petri.solve.sparse", "petri.restamp", "petri.plan.memo_hit",
		"nvp.cache.hit", "warmstart.lookup.hit", "warmstart.insert", "linalg.seed.warm",
	} {
		if doc.Metrics.Counters[name] == 0 {
			t.Errorf("-metrics artifact left %s at zero", name)
		}
	}
	if doc.Metrics.Gauges["parallel.pool.utilization"] == 0 {
		t.Error("-metrics artifact left parallel.pool.utilization at zero")
	}
	if doc.Manifest.Command != "chaos" {
		t.Errorf("manifest command = %q, want chaos", doc.Manifest.Command)
	}
}

// TestCmdChaosPlanFile: a custom plan file replaces the built-in plan and
// its single fault is classified on its own.
func TestCmdChaosPlanFile(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	plan := `{"seed": 7, "faults": [{"site": "linalg.gs.stall"}]}`
	if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "chaos.json")
	out, err := capture(t, "chaos", "-steps", "2", "-timeout", "2m", "-plan", planPath, "-o", outPath)
	if err != nil {
		t.Fatalf("chaos: %v\n%s", err, out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var report ChaosReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Seed != 7 || len(report.Results) != 1 {
		t.Fatalf("plan not honored: seed=%d results=%d", report.Seed, len(report.Results))
	}
	r := report.Results[0]
	if r.Site != "linalg.gs.stall" || r.Class != "recovered_fallback" || r.Fired == 0 {
		t.Errorf("gs stall not recovered via fallback: %+v", r)
	}
	if r.Evidence["petri.solve.recovered"] == 0 {
		t.Errorf("recovery evidence missing: %+v", r.Evidence)
	}
}

func TestCmdChaosValidation(t *testing.T) {
	if _, err := capture(t, "chaos", "-steps", "1"); err == nil {
		t.Error("single-step grid accepted")
	}
	if _, err := capture(t, "chaos", "-plan", "/nonexistent/plan.json"); err == nil {
		t.Error("missing plan file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"faults": [{"mode": "nan"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "chaos", "-plan", bad); err == nil {
		t.Error("plan with siteless fault accepted")
	}
}
