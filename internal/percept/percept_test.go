package percept

import (
	"math"
	"testing"

	"nvrel/internal/des"
	"nvrel/internal/mlsim"
	"nvrel/internal/nvp"
	"nvrel/internal/voter"
)

func fourVersionConfig() Config {
	return Config{
		Params:          nvp.DefaultFourVersion(),
		Horizon:         2e6,
		WarmUp:          5e4,
		RequestInterval: 400,
	}
}

func sixVersionConfig() Config {
	return Config{
		Params:          nvp.DefaultSixVersion(),
		Rejuvenation:    true,
		Horizon:         2e6,
		WarmUp:          5e4,
		RequestInterval: 400,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{name: "valid", mutate: func(c *Config) {}},
		{name: "zero horizon", mutate: func(c *Config) { c.Horizon = 0 }, wantErr: true},
		{name: "warmup beyond horizon", mutate: func(c *Config) { c.WarmUp = c.Horizon }, wantErr: true},
		{name: "negative warmup", mutate: func(c *Config) { c.WarmUp = -1 }, wantErr: true},
		{name: "negative request interval", mutate: func(c *Config) { c.RequestInterval = -1 }, wantErr: true},
		{name: "bad params", mutate: func(c *Config) { c.Params.P = 5 }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fourVersionConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	// Rejuvenation architecture demands R > 0.
	cfg := fourVersionConfig()
	cfg.Rejuvenation = true
	if err := cfg.Validate(); err == nil {
		t.Error("rejuvenation with R = 0 accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := fourVersionConfig()
	if _, err := New(cfg, nil); err == nil {
		t.Error("nil rng accepted")
	}
	cfg.Horizon = -1
	if _, err := New(cfg, des.NewRNG(1)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := fourVersionConfig()
	cfg.Horizon = 2e5
	run := func() *Result {
		sys, err := New(cfg, des.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AnalyticReward != b.AnalyticReward || a.Requests != b.Requests || a.Tally != b.Tally {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestOccupancySumsToOne(t *testing.T) {
	for _, cfg := range []Config{fourVersionConfig(), sixVersionConfig()} {
		cfg.Horizon = 3e5
		sys, err := New(cfg, des.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for state, frac := range res.Occupancy {
			if state[0]+state[1]+state[2] != cfg.Params.N {
				t.Errorf("occupancy state %v does not sum to N", state)
			}
			if frac < 0 {
				t.Errorf("negative occupancy %v: %g", state, frac)
			}
			total += frac
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("occupancy sums to %g", total)
		}
	}
}

// TestFourVersionMatchesAnalytic is the headline cross-validation: the
// simulator's time-weighted reward must agree with the exact CTMC solution.
func TestFourVersionMatchesAnalytic(t *testing.T) {
	model, err := nvp.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fourVersionConfig()
	cfg.RequestInterval = 0 // occupancy only: faster
	est, err := Replicate(cfg, 24, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if !est.AnalyticReward.Contains(want) {
		t.Errorf("analytic %v outside simulation CI %v", want, est.AnalyticReward)
	}
}

// TestSixVersionMatchesAnalytic cross-validates the MRGP solver through
// the full rejuvenation dynamics.
func TestSixVersionMatchesAnalytic(t *testing.T) {
	model, err := nvp.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sixVersionConfig()
	cfg.RequestInterval = 0
	est, err := Replicate(cfg, 24, 2002)
	if err != nil {
		t.Fatal(err)
	}
	if !est.AnalyticReward.Contains(want) {
		t.Errorf("analytic %v outside simulation CI %v", want, est.AnalyticReward)
	}
}

// TestBatchRejuvenationMatchesAnalytic cross-validates the r=2 wave
// semantics (w5/w6 batch arcs, wave parking under guard g2) on an
// eight-version design: the simulator and the MRGP solver must agree.
func TestBatchRejuvenationMatchesAnalytic(t *testing.T) {
	params := nvp.DefaultSixVersion()
	params.N, params.F, params.R = 8, 1, 2
	model, err := nvp.BuildWithRejuvenation(params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params:       params,
		Rejuvenation: true,
		Horizon:      2e6,
		WarmUp:       5e4,
	}
	est, err := Replicate(cfg, 24, 717)
	if err != nil {
		t.Fatal(err)
	}
	if !est.AnalyticReward.Contains(want) {
		t.Errorf("analytic %v outside simulation CI %v", want, est.AnalyticReward)
	}
}

// TestWaitsPolicyMatchesGeneralSolver cross-validates the general
// Markov-regenerative solver: under the waits-for-wave clock policy the
// simulator and mrgp.SolveGeneral must agree.
func TestWaitsPolicyMatchesGeneralSolver(t *testing.T) {
	params := nvp.DefaultSixVersion()
	params.Clock = nvp.ClockWaitsForWave
	model, err := nvp.BuildWithRejuvenation(params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params:       params,
		Rejuvenation: true,
		Horizon:      2e6,
		WarmUp:       5e4,
	}
	est, err := Replicate(cfg, 24, 5005)
	if err != nil {
		t.Fatal(err)
	}
	if !est.AnalyticReward.Contains(want) {
		t.Errorf("analytic %v outside simulation CI %v", want, est.AnalyticReward)
	}
}

func TestRequestTallyPlausible(t *testing.T) {
	// The generative error model is a proper distribution while the
	// paper's closed forms are approximations, so request-level
	// reliability lands near—but not exactly on—the analytic value.
	cfg := sixVersionConfig()
	cfg.Horizon = 1e6
	est, err := Replicate(cfg, 8, 3003)
	if err != nil {
		t.Fatal(err)
	}
	if est.RequestReliability.Mean < 0.85 || est.RequestReliability.Mean > 1 {
		t.Errorf("request reliability = %v implausible", est.RequestReliability)
	}
	if est.RequestErrorRate.Mean < 0 || est.RequestErrorRate.Mean > 0.1 {
		t.Errorf("request error rate = %v implausible", est.RequestErrorRate)
	}
	if got := est.RequestSafety.Mean + est.RequestErrorRate.Mean; math.Abs(got-1) > 1e-9 {
		t.Errorf("safety + error rate = %g, want 1", got)
	}
	// The generative-model safety should land within a few percent of the
	// analytic R = 1 - P(error).
	model, err := nvp.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := model.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.RequestSafety.Mean-analytic) > 0.05 {
		t.Errorf("generative safety %.4f far from analytic %.4f", est.RequestSafety.Mean, analytic)
	}
}

func TestRejuvenationKeepsSystemHealthier(t *testing.T) {
	// Compare a six-version system with and without its rejuvenation
	// clock: the clocked variant must spend more time fully healthy.
	healthyFraction := func(rejuvenation bool) float64 {
		p := nvp.DefaultSixVersion()
		if !rejuvenation {
			p.R = 1 // scheme stays valid; the clock is simply absent
		}
		cfg := Config{
			Params:       p,
			Rejuvenation: rejuvenation,
			Horizon:      1.5e6,
			WarmUp:       5e4,
		}
		sys, err := New(cfg, des.NewRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		var frac float64
		for state, f := range res.Occupancy {
			if state[0] >= 5 {
				frac += f
			}
		}
		return frac
	}
	with := healthyFraction(true)
	without := healthyFraction(false)
	if with <= without {
		t.Errorf("P(>=5 healthy): with rejuvenation %g, without %g", with, without)
	}
}

func TestAtMostRRejuvenating(t *testing.T) {
	cfg := sixVersionConfig()
	cfg.Horizon = 5e5
	sys, err := New(cfg, des.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The invariant is structural: rejuvenating+failed can exceed r only
	// through failures (failures are not gated), but rejuvenating alone
	// never exceeds r. Check through the occupancy states: k counts
	// failed + rejuvenating, so bound it by r + N (sanity) and verify no
	// state has more down modules than the module count.
	for state := range res.Occupancy {
		if state[2] < 0 || state[2] > cfg.Params.N {
			t.Errorf("impossible down count in state %v", state)
		}
	}
	if sys.rejuvenating > cfg.Params.R {
		t.Errorf("rejuvenating = %d exceeds r", sys.rejuvenating)
	}
}

func TestLabelVoting(t *testing.T) {
	cfg := sixVersionConfig()
	cfg.Horizon = 5e5
	cfg.Classes = 10
	est, err := Replicate(cfg, 4, 909)
	if err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	if est.LabelReliability[0].Mean <= 0 || est.LabelReliability[0].Mean > 1 {
		t.Errorf("label reliability = %v", est.LabelReliability[0])
	}
	if est.LabelSafety[0].Mean < est.LabelReliability[0].Mean {
		t.Errorf("label safety %v below reliability %v", est.LabelSafety[0], est.LabelReliability[0])
	}
	// The count tally is maintained from the same samples.
	if est.RequestReliability.Mean <= 0 {
		t.Errorf("count-rule tally missing under label voting: %v", est.RequestReliability)
	}
}

// TestMultiSchemeMatchesSingleSchemeRuns: deciding draws no random
// numbers, so under both wrong-label policies one run deciding with four
// schemes gives each scheme, field for field, the tally of a run with that
// scheme alone on the same stream, and one multi-scheme Replicate gives
// each the estimate of its single-scheme Replicate.
func TestMultiSchemeMatchesSingleSchemeRuns(t *testing.T) {
	schemes := []voter.LabelScheme{voter.Threshold{K: 4}, voter.Majority{}, voter.Plurality{}, voter.Unanimity{}}
	for _, policy := range []mlsim.WrongLabelPolicy{mlsim.CommonWrongLabel, mlsim.IndependentWrongLabels} {
		cfg := sixVersionConfig()
		cfg.Horizon = 2e5
		cfg.Classes = 43
		cfg.RequestInterval = 120
		cfg.WrongLabels = policy
		run := func(schemes []voter.LabelScheme) *Result {
			c := cfg
			c.LabelSchemes = schemes
			sys, err := New(c, des.NewRNG(77))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		replicate := func(schemes []voter.LabelScheme) *Estimate {
			c := cfg
			c.LabelSchemes = schemes
			est, err := Replicate(c, 3, 78)
			if err != nil {
				t.Fatal(err)
			}
			return est
		}
		all, allEst := run(schemes), replicate(schemes)
		if len(all.LabelTallies) != len(schemes) || len(allEst.LabelReliability) != len(schemes) {
			t.Fatalf("%s: %d tallies and %d estimates for %d schemes",
				policy, len(all.LabelTallies), len(allEst.LabelReliability), len(schemes))
		}
		for k, scheme := range schemes {
			one, oneEst := run(schemes[k:k+1]), replicate(schemes[k:k+1])
			if all.LabelTallies[k] != one.LabelTallies[0] {
				t.Errorf("%s %s: shared-run tally %+v, single-scheme run %+v",
					policy, scheme.Name(), all.LabelTallies[k], one.LabelTallies[0])
			}
			if all.Tally != one.Tally || all.Requests != one.Requests || all.AnalyticReward != one.AnalyticReward {
				t.Errorf("%s %s: count-rule view differs between the shared and the single-scheme run", policy, scheme.Name())
			}
			if allEst.LabelReliability[k] != oneEst.LabelReliability[0] || allEst.LabelSafety[k] != oneEst.LabelSafety[0] {
				t.Errorf("%s %s: shared Replicate %v / %v, single-scheme %v / %v", policy, scheme.Name(),
					allEst.LabelReliability[k], allEst.LabelSafety[k], oneEst.LabelReliability[0], oneEst.LabelSafety[0])
			}
		}
	}
}

func TestLabelVotingBenignErrorsAreSafe(t *testing.T) {
	cfg := sixVersionConfig()
	cfg.Horizon = 5e5
	cfg.Classes = 43
	cfg.WrongLabels = mlsim.IndependentWrongLabels
	est, err := Replicate(cfg, 4, 910)
	if err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	// Four independently-wrong modules agreeing on one of 42 wrong labels
	// is essentially impossible.
	if est.LabelSafety[0].Mean < 0.999 {
		t.Errorf("benign label safety = %v, want ~1", est.LabelSafety[0])
	}
}

func TestConfigValidateLabelFields(t *testing.T) {
	cfg := fourVersionConfig()
	cfg.Classes = 1
	if err := cfg.Validate(); err == nil {
		t.Error("classes = 1 accepted")
	}
	cfg = fourVersionConfig()
	cfg.Classes = -3
	if err := cfg.Validate(); err == nil {
		t.Error("negative classes accepted")
	}
	cfg = fourVersionConfig()
	cfg.WrongLabels = mlsim.WrongLabelPolicy(42)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown wrong-label policy accepted")
	}
	cfg = fourVersionConfig()
	cfg.Classes = 10
	cfg.LabelSchemes = []voter.LabelScheme{voter.Majority{}, nil}
	if err := cfg.Validate(); err == nil {
		t.Error("nil label scheme accepted")
	}
}

// TestAttackedSimulationMatchesAnalytic cross-validates the Markov-
// modulated attacker: the simulator's time-weighted reward must match the
// attacked DSPN's exact solution.
func TestAttackedSimulationMatchesAnalytic(t *testing.T) {
	attacker, err := nvp.BurstyAttacker(1.0/1523, 0.1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nvp.BuildWithRejuvenationAttacked(nvp.DefaultSixVersion(), attacker)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sixVersionConfig()
	cfg.RequestInterval = 0
	cfg.Attacker = &attacker
	est, err := Replicate(cfg, 24, 606)
	if err != nil {
		t.Fatal(err)
	}
	if !est.AnalyticReward.Contains(want) {
		t.Errorf("analytic %v outside simulation CI %v", want, est.AnalyticReward)
	}
}

func TestAttackedConfigValidation(t *testing.T) {
	cfg := fourVersionConfig()
	cfg.Attacker = &nvp.AttackerParams{} // zero rates in both phases
	if err := cfg.Validate(); err == nil {
		t.Error("invalid attacker accepted")
	}
}

func TestReplicateValidation(t *testing.T) {
	cfg := fourVersionConfig()
	if _, err := Replicate(cfg, 0, 1); err == nil {
		t.Error("zero replications accepted")
	}
	cfg.Horizon = -1
	if _, err := Replicate(cfg, 2, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStateTripleTracksCounts(t *testing.T) {
	cfg := sixVersionConfig()
	sys, err := New(cfg, des.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.stateTriple(); got != [3]int{6, 0, 0} {
		t.Errorf("initial state = %v", got)
	}
}

// TestReplicationAllocsIndependentOfHorizon: a replication allocates a
// fixed amount up front (New, the bound actions, the buffers, the result)
// and nothing per event, so quadrupling the horizon must not change its
// allocation count.
func TestReplicationAllocsIndependentOfHorizon(t *testing.T) {
	allocs := func(horizon float64) float64 {
		cfg := Config{
			Params:          nvp.DefaultSixVersion(),
			Rejuvenation:    true,
			Horizon:         horizon,
			WarmUp:          horizon / 20,
			RequestInterval: 300,
			Classes:         43,
		}
		return testing.AllocsPerRun(5, func() {
			sys, err := New(cfg, des.NewRNG(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const h = 2e5
	if short, long := allocs(h), allocs(4*h); short != long {
		t.Errorf("allocs per replication: %g at horizon %g, %g at %g", short, h, long, 4*h)
	}
}
