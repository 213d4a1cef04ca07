package percept

import (
	"math"
	"testing"

	"nvrel/internal/des"
	"nvrel/internal/nvp"
)

func TestRunUntilOutageValidation(t *testing.T) {
	sys, err := New(fourVersionConfig(), des.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunUntilOutage(0); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestRunUntilOutageCensoring(t *testing.T) {
	// A short horizon against a ~39-day MTTO: the run must censor.
	sys, err := New(fourVersionConfig(), des.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	tOut, err := sys.RunUntilOutage(1000)
	if err != nil {
		t.Fatal(err)
	}
	if tOut >= 0 {
		t.Errorf("outage at %g within 1000 s is wildly improbable", tOut)
	}
}

// TestEstimateOutageMatchesExact is the simulation/analysis cross-check
// for the first-passage solver.
func TestEstimateOutageMatchesExact(t *testing.T) {
	model, err := nvp.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := model.MeanTimeToVoterOutage()
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateOutage(fourVersionConfig(), 48, 4242, 100*exact)
	if err != nil {
		t.Fatal(err)
	}
	if est.Censored != 0 {
		t.Errorf("censored = %d with a 100x horizon", est.Censored)
	}
	if !est.MeanTime.Contains(exact) {
		t.Errorf("exact %.0f outside simulated CI %v", exact, est.MeanTime)
	}
}

func TestEstimateOutageValidation(t *testing.T) {
	if _, err := EstimateOutage(fourVersionConfig(), 0, 1, 1e6); err == nil {
		t.Error("zero replications accepted")
	}
	bad := fourVersionConfig()
	bad.Horizon = -1
	if _, err := EstimateOutage(bad, 2, 1, 1e6); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestOutageRejuvenationExtendsAvailability(t *testing.T) {
	// Compare censoring at a fixed horizon: the six-version system with
	// rejuvenation must survive far more often than the four-version one.
	const horizon = 2e7
	four, err := EstimateOutage(fourVersionConfig(), 10, 99, horizon)
	if err != nil {
		t.Fatal(err)
	}
	six, err := EstimateOutage(Config{
		Params:       nvp.DefaultSixVersion(),
		Rejuvenation: true,
		Horizon:      1,
	}, 10, 99, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if six.Censored <= four.Censored {
		t.Errorf("six-version censored %d should exceed four-version %d at horizon %g",
			six.Censored, four.Censored, horizon)
	}
}

// TestOutageExactMatchesDES cross-checks the exact MRGP first-passage
// value of the clocked architecture against the simulator at stressed
// parameters, where outages arrive within a few thousand seconds instead
// of ~10^9. The band is 4 standard errors of the replicated mean; no run
// may be censored at a 100x horizon.
func TestOutageExactMatchesDES(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		compromise, fail, repair, tau float64
	}{
		{name: "fast attack", compromise: 20, fail: 40},
		{name: "fast attack, short clock", compromise: 30, fail: 60, tau: 300},
		{name: "fast attack, slow repair", compromise: 15, fail: 30, repair: 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := nvp.DefaultSixVersion()
			p.MeanTimeToCompromise, p.MeanTimeToFailure = tc.compromise, tc.fail
			if tc.repair > 0 {
				p.MeanTimeToRepair = tc.repair
			}
			if tc.tau > 0 {
				p.RejuvenationInterval = tc.tau
			}
			model, err := nvp.BuildWithRejuvenation(p)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := model.MeanTimeToVoterOutage()
			if err != nil {
				t.Fatal(err)
			}
			est, err := EstimateOutage(Config{Params: p, Rejuvenation: true, Horizon: 1}, 2000, 11, 100*exact)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("exact %.1f s, DES %.1f ± %.1f (SE)", exact, est.MeanTime.Mean, est.MeanTime.StdErr)
			if est.Censored != 0 {
				t.Errorf("censored = %d with a 100x horizon", est.Censored)
			}
			if d := math.Abs(est.MeanTime.Mean - exact); d > 4*est.MeanTime.StdErr {
				t.Errorf("DES mean %.1f ± %.1f (SE) vs exact %.1f: off by %.1f SE",
					est.MeanTime.Mean, est.MeanTime.StdErr, exact, d/est.MeanTime.StdErr)
			}
		})
	}
}
