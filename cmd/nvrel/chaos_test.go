package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdChaos is the acceptance gate of the fault-injection harness: the
// full built-in plan (every registered site, silent-corruption modes
// included) over the standard sweep workloads must report zero silent
// wrong answers, with every fault either recovered or surfaced typed.
func TestCmdChaos(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	out, err := capture(t, "chaos", "-steps", "2", "-timeout", "2m", "-o", path)
	if err != nil {
		t.Fatalf("chaos gate failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 silent wrong answers") {
		t.Errorf("summary line missing:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
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
