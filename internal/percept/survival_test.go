package percept

import (
	"testing"

	"nvrel/internal/nvp"
	"nvrel/internal/reliability"
)

func TestEstimateSurvivalValidation(t *testing.T) {
	cfg := fourVersionConfig()
	if _, err := EstimateSurvival(cfg, 0, 1); err == nil {
		t.Error("zero replications accepted")
	}
	cfg.RequestInterval = 0
	if _, err := EstimateSurvival(cfg, 4, 1); err == nil {
		t.Error("missing request stream accepted")
	}
	cfg = fourVersionConfig()
	cfg.Horizon = -1
	if _, err := EstimateSurvival(cfg, 4, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestSurvivalMatchesAnalyticFourVersion cross-validates the defective-
// generator computation end to end: the analytic survival probability
// (with the generative error model, which is exactly what the simulator
// samples) must land in the simulated binomial confidence interval.
func TestSurvivalMatchesAnalyticFourVersion(t *testing.T) {
	const (
		window   = 3 * 3600.0
		interval = 120.0
	)
	model, err := nvp.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := reliability.Generative(model.Params.Reliability(), model.Params.Scheme())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := model.SurvivalProbability(rf, 1/interval, []float64{window})
	if err != nil {
		t.Fatal(err)
	}
	want := ps[0]
	est, err := EstimateSurvival(Config{
		Params:          nvp.DefaultFourVersion(),
		Horizon:         window,
		RequestInterval: interval,
	}, 400, 31337)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Contains(want) {
		t.Errorf("analytic survival %.4f outside simulated CI [%.4f, %.4f] (point %.4f)",
			want, est.Lo, est.Hi, est.Probability)
	}
}

func TestSurvivalMatchesAnalyticSixVersion(t *testing.T) {
	const (
		// ~20 requests at a 5.5% per-request error probability keeps the
		// survival probability in a statistically testable band (~0.3).
		window   = 2400.0
		interval = 120.0
	)
	model, err := nvp.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := reliability.Generative(model.Params.Reliability(), model.Params.Scheme())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := model.SurvivalProbability(rf, 1/interval, []float64{window})
	if err != nil {
		t.Fatal(err)
	}
	want := ps[0]
	est, err := EstimateSurvival(Config{
		Params:          nvp.DefaultSixVersion(),
		Rejuvenation:    true,
		Horizon:         window,
		RequestInterval: interval,
	}, 300, 271828)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Contains(want) {
		t.Errorf("analytic survival %.4f outside simulated CI [%.4f, %.4f] (point %.4f)",
			want, est.Lo, est.Hi, est.Probability)
	}
}
