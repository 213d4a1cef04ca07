package nvp

import (
	"math"
	"math/rand"
	"testing"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
)

// nudgeFour returns the sparse-routed four-version parameters with its
// solver-visible rates randomly nudged by up to rel (relative).
func nudgeFour(rng *rand.Rand, rel float64) Params {
	p := DefaultFourVersion()
	p.N = 24
	p.MeanTimeToCompromise *= 1 + rel*(2*rng.Float64()-1)
	p.MeanTimeToFailure *= 1 + rel*(2*rng.Float64()-1)
	p.MeanTimeToRepair *= 1 + rel*(2*rng.Float64()-1)
	return p
}

// nudgeSix returns the sparse-routed six-version parameters with both its
// exponential rates and its deterministic clock randomly nudged.
func nudgeSix(rng *rand.Rand, rel float64) Params {
	p := DefaultSixVersion()
	p.N = 10
	p.MeanTimeToCompromise *= 1 + rel*(2*rng.Float64()-1)
	p.MeanTimeToRejuvenate *= 1 + rel*(2*rng.Float64()-1)
	p.RejuvenationInterval *= 1 + rel*(2*rng.Float64()-1)
	return p
}

// TestWarmRegistryAgreesWithColdFuzz: the acceptance property of the
// warm-start engine — across randomized parameter nudges spanning
// 1e-4..0.3 relative, a registry-seeded solve agrees with the cold solve
// elementwise to 1e-12 on both iterative routes (CTMC Gauss-Seidel and
// MRGP embedded chain), and the registry actually seeds once warmed.
func TestWarmRegistryAgreesWithColdFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := linalg.NewWorkspace()
	for _, tc := range []struct {
		name  string
		build func(*ModelCache, Params) (*Model, error)
		nudge func(*rand.Rand, float64) Params
	}{
		{"gs", (*ModelCache).BuildNoRejuvenation, nudgeFour},
		{"mrgp", (*ModelCache).BuildWithRejuvenation, nudgeSix},
	} {
		cache := NewModelCache()
		reg := NewWarmRegistry()
		seeded := 0
		for i := 0; i < 12; i++ {
			rel := math.Pow(10, -4*rng.Float64()) * 0.3 // 3e-5 .. 0.3
			m, err := tc.build(cache, tc.nudge(rng, rel))
			if err != nil {
				t.Fatalf("%s point %d: build: %v", tc.name, i, err)
			}
			cold, _, err := m.SolveWith(nil, ws, Opts{})
			if err != nil {
				t.Fatalf("%s point %d: cold solve: %v", tc.name, i, err)
			}
			warm, diag, err := reg.SolveDiagCtxWS(nil, m, ws)
			if err != nil {
				t.Fatalf("%s point %d: warm solve: %v", tc.name, i, err)
			}
			if diag.Seeded {
				seeded++
			}
			for j := range cold {
				if d := math.Abs(warm[j] - cold[j]); d > 1e-12 {
					t.Fatalf("%s point %d: pi[%d] warm-cold diff %g", tc.name, i, j, d)
				}
			}
		}
		if seeded == 0 {
			t.Fatalf("%s: no solve was ever seeded", tc.name)
		}
	}
}

// TestWarmRegistryDensePassthrough: paper-scale models route to the dense
// direct solvers, where the registry must be a bit-identical passthrough.
func TestWarmRegistryDensePassthrough(t *testing.T) {
	m, err := BuildNoRejuvenation(DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	ws := linalg.NewWorkspace()
	cold, coldDiag, err := m.SolveWith(nil, ws, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewWarmRegistry()
	for rep := 0; rep < 2; rep++ { // second pass: registry warmed, still inert
		warm, diag, err := reg.SolveDiagCtxWS(nil, m, ws)
		if err != nil {
			t.Fatal(err)
		}
		if diag.Seeded {
			t.Fatalf("dense solve reported seeding: %+v", diag)
		}
		if diag.Path != coldDiag.Path {
			t.Fatalf("dense path changed: %v vs %v", diag.Path, coldDiag.Path)
		}
		for j := range cold {
			if warm[j] != cold[j] {
				t.Fatalf("rep %d: dense passthrough not bit-identical at %d", rep, j)
			}
		}
	}
}

// TestNilWarmRegistrySolvesCold: a nil registry is inert.
func TestNilWarmRegistrySolvesCold(t *testing.T) {
	p := DefaultFourVersion()
	p.N = 24
	m, err := BuildNoRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	ws := linalg.NewWorkspace()
	cold, _, err := m.SolveWith(nil, ws, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var reg *WarmRegistry
	got, diag, err := reg.SolveDiagCtxWS(nil, m, ws)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Seeded {
		t.Fatal("nil registry reported a seeded solve")
	}
	for j := range cold {
		if got[j] != cold[j] {
			t.Fatalf("nil registry not bit-identical at %d", j)
		}
	}
}

// TestWarmRegistryCorruptSeedDegrades: with the warmstart.seed.corrupt
// fault firing on every lookup, seeded solves must degrade to the uniform
// cold start — counter evidence of the rejection, results still within
// solver tolerance of cold — never to a wrong answer.
func TestWarmRegistryCorruptSeedDegrades(t *testing.T) {
	prevObs := obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prevObs) })
	faultinject.Reset()
	if err := faultinject.Arm(faultinject.Fault{Site: "warmstart.seed.corrupt", Mode: "nan", Count: 1 << 30}, 7); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})

	rng := rand.New(rand.NewSource(23))
	cache := NewModelCache()
	reg := NewWarmRegistry()
	ws := linalg.NewWorkspace()
	before := obs.Capture()
	for i := 0; i < 6; i++ {
		m, err := cache.BuildNoRejuvenation(nudgeFour(rng, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := m.SolveWith(nil, ws, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		got, diag, err := reg.SolveDiagCtxWS(nil, m, ws)
		if err != nil {
			t.Fatalf("point %d: corrupted-seed solve errored: %v", i, err)
		}
		if diag.Seeded {
			t.Fatalf("point %d: NaN-corrupted seed was accepted", i)
		}
		for j := range cold {
			if got[j] != cold[j] {
				t.Fatalf("point %d: corrupted seed changed pi[%d]: %g vs %g", i, j, got[j], cold[j])
			}
		}
	}
	after := obs.Capture()
	if fired := faultinject.SiteFor("warmstart.seed.corrupt").Fired(); fired == 0 {
		t.Fatal("corruption site never fired")
	}
	if d := after.Counters["linalg.seed.rejected"] - before.Counters["linalg.seed.rejected"]; d == 0 {
		t.Fatal("no linalg.seed.rejected evidence of the graceful degradation")
	}
}

// refineSchedule is base*(1 + width*shrink^k) for k = 0..points-1: a
// geometric refinement toward a point of interest, the solve sequence the
// optimizer's golden-section probes and a daemon's near-duplicate
// requests produce (unlike the figures' coarse grids, whose 25-50%
// parameter jumps leave any neighbor seed far from the answer).
func refineSchedule(base, width, shrink float64, points int) []float64 {
	out := make([]float64, points)
	for k := range out {
		out[k] = base * (1 + width)
		width *= shrink
	}
	return out
}

// TestWarmStartGate is the warm-start engine's regression gate. Each
// probe sweeps Restamp-sibling models past linalg.SparseThreshold twice
// on one goroutine, so the seeding order is deterministic: cold, then
// warm through a fresh registry. gs-mttc refines the mean time to
// compromise around 1000 s (four versions, N=24, 325 states, Gauss-Seidel)
// and must need at most 0.6x its cold iterations warm (0.548 measured).
// mrgp-interval refines the rejuvenation interval around 450 s (six
// versions, N=10, 176 states, sparse MRGP); its embedded vector is far
// more parameter-sensitive, so it is gated only on not regressing and on
// a cold cost of at most 215 embedded applications (195 measured, 231
// before the Krylov start's float64 floor).
func TestWarmStartGate(t *testing.T) {
	prevObs := obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prevObs) })
	warmCounters := []string{"warmstart.lookup.hit", "warmstart.insert", "linalg.seed.warm"}
	before := make(map[string]int64)
	for _, name := range warmCounters {
		before[name] = obs.CounterFor(name).Value()
	}
	probes := []struct {
		name       string
		params     func(v float64) Params
		build      func(*ModelCache, Params) (*Model, error)
		schedule   []float64
		maxRatio   float64
		maxColdIts int
	}{
		{"gs-mttc", func(v float64) Params {
			p := DefaultFourVersion()
			p.N, p.MeanTimeToCompromise = 24, v
			return p
		}, (*ModelCache).BuildNoRejuvenation, refineSchedule(1000, 0.4, 0.6, 24), 0.6, 0},
		{"mrgp-interval", func(v float64) Params {
			p := DefaultSixVersion()
			p.N, p.RejuvenationInterval = 10, v
			return p
		}, (*ModelCache).BuildWithRejuvenation, refineSchedule(450, 0.4, 0.6, 14), 1, 215},
	}
	for _, pr := range probes {
		cache, reg, ws := NewModelCache(), NewWarmRegistry(), linalg.NewWorkspace()
		models := make([]*Model, len(pr.schedule))
		colds := make([][]float64, len(models))
		coldIts, warmIts := 0, 0
		for i, v := range pr.schedule {
			m, err := pr.build(cache, pr.params(v))
			if err != nil {
				t.Fatalf("%s: build at %g: %v", pr.name, v, err)
			}
			models[i] = m
			pi, diag, err := m.SolveWith(nil, ws, Opts{})
			if err != nil {
				t.Fatalf("%s: cold point %d: %v", pr.name, i, err)
			}
			colds[i], coldIts = pi, coldIts+diag.Iterations()
		}
		maxDiff := 0.0
		for i, m := range models {
			pi, diag, err := reg.SolveDiagCtxWS(nil, m, ws)
			if err != nil {
				t.Fatalf("%s: warm point %d: %v", pr.name, i, err)
			}
			warmIts += diag.Iterations()
			for j := range pi {
				maxDiff = math.Max(maxDiff, math.Abs(pi[j]-colds[i][j]))
			}
		}
		ratio := float64(warmIts) / float64(coldIts)
		t.Logf("%s: %d states, %d points: %d cold -> %d warm iterations (%.3fx), max|diff| %.3g",
			pr.name, models[0].Graph.NumStates(), len(models), coldIts, warmIts, ratio, maxDiff)
		if ratio > pr.maxRatio {
			t.Errorf("%s: warm/cold iterations %.3f exceed %g", pr.name, ratio, pr.maxRatio)
		}
		if pr.maxColdIts > 0 && coldIts > pr.maxColdIts {
			t.Errorf("%s: %d cold iterations exceed %d", pr.name, coldIts, pr.maxColdIts)
		}
		if maxDiff > 1e-12 {
			t.Errorf("%s: max|pi_warm - pi_cold| = %.3g exceeds 1e-12", pr.name, maxDiff)
		}
	}
	for _, name := range warmCounters {
		if obs.CounterFor(name).Value() == before[name] {
			t.Errorf("%s stayed at zero: the registry never warmed", name)
		}
	}
}
