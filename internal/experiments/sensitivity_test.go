package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRunSensitivity(t *testing.T) {
	es, err := RunSensitivity()
	if err != nil {
		t.Fatalf("RunSensitivity: %v", err)
	}
	if len(es) != 8 {
		t.Fatalf("elasticities = %d, want 8", len(es))
	}
	byName := make(map[string]Elasticity, len(es))
	for _, e := range es {
		byName[e.Parameter] = e
	}
	// Signs at the defaults: error probabilities hurt, slower compromise
	// helps, more frequent rejuvenation (smaller 1/gamma) helps.
	for _, name := range []string{"p", "p'", "alpha"} {
		if byName[name].SixVersion >= 0 {
			t.Errorf("elasticity of %s should be negative, got %+f", name, byName[name].SixVersion)
		}
	}
	if byName["1/lambda_c"].SixVersion <= 0 {
		t.Errorf("elasticity of 1/lambda_c should be positive, got %+f", byName["1/lambda_c"].SixVersion)
	}
	if byName["1/gamma"].SixVersion >= 0 {
		t.Errorf("elasticity of 1/gamma should be negative (frequent rejuvenation helps), got %+f",
			byName["1/gamma"].SixVersion)
	}
	// The headline robustness finding: rejuvenation slashes the p'
	// sensitivity by an order of magnitude.
	pp := byName["p'"]
	if math.Abs(pp.FourVersion) < 5*math.Abs(pp.SixVersion) {
		t.Errorf("4v p' elasticity %f should dwarf 6v %f", pp.FourVersion, pp.SixVersion)
	}
	// Rejuvenation-only parameters carry no four-version value.
	if !math.IsNaN(byName["1/gamma"].FourVersion) || !math.IsNaN(byName["1/mu_r"].FourVersion) {
		t.Error("rejuvenation-only parameters should have NaN 4v elasticity")
	}
	// Sorted by six-version magnitude.
	for i := 1; i < len(es); i++ {
		if math.Abs(es[i].SixVersion) > math.Abs(es[i-1].SixVersion)+1e-15 {
			t.Errorf("not sorted at %d: %v", i, es)
		}
	}
}

func TestReportSensitivity(t *testing.T) {
	var sb strings.Builder
	if err := ReportSensitivity(&sb); err != nil {
		t.Fatalf("ReportSensitivity: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"E15", "alpha", "1/gamma", "elasticity"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunOutageSmall(t *testing.T) {
	res, err := RunOutage(4, 11)
	if err != nil {
		t.Fatalf("RunOutage: %v", err)
	}
	if res.FourVersionExact < 3.2e6 || res.FourVersionExact > 3.5e6 {
		t.Errorf("exact MTTO = %g", res.FourVersionExact)
	}
	if res.SixVersionExact < 2.74e9 || res.SixVersionExact > 2.75e9 {
		t.Errorf("six-version exact MTTO = %g, want ~2.7466e9", res.SixVersionExact)
	}
	// The four-version simulation should rarely censor with a 100x
	// horizon; allow at most one unlucky replication.
	if res.FourVersionSim.Censored > 1 {
		t.Errorf("four-version censored = %d", res.FourVersionSim.Censored)
	}
}
