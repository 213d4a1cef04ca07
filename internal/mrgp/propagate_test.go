package mrgp

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// buildCycleCTMC is a plain CTMC with no clock: one token walks the ring
// p0 -> p1 -> ... -> p0, leaving place i at rates[i]. A zero rate leaves
// the transition out, so the place the token rests in can be absorbing.
func buildCycleCTMC(t testing.TB, rates ...float64) *petri.Graph {
	t.Helper()
	b := petri.NewBuilder("cycle-ctmc")
	places := make([]petri.PlaceRef, len(rates))
	for i := range rates {
		initial := 0
		if i == 0 {
			initial = 1
		}
		places[i] = b.AddPlace(fmt.Sprintf("p%d", i), initial)
	}
	for i, r := range rates {
		if r == 0 {
			continue
		}
		b.AddTransition(petri.Spec{
			Name: fmt.Sprintf("t%d", i), Kind: petri.Exponential, Rate: r,
			Inputs:  []petri.Arc{{Place: places[i]}},
			Outputs: []petri.Arc{{Place: places[(i+1)%len(places)]}},
		})
	}
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g, err := petri.Explore(n, petri.ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return g
}

// initialState returns the index of the graph's (point-mass) initial state.
func initialState(t testing.TB, g *petri.Graph) int {
	t.Helper()
	for i, p := range g.Initial {
		if p == 1 {
			return i
		}
	}
	t.Fatal("initial distribution is not a point mass")
	return -1
}

func TestPropagatorDistribution(t *testing.T) {
	const (
		lambda = 0.5
		tau    = 2.0
	)
	n := buildRejuvenationToy(t, lambda, tau)
	g := explore(t, n)
	prop, err := NewPropagator(g, nil)
	if err != nil {
		t.Fatalf("NewPropagator: %v", err)
	}
	if prop.Delay() != tau {
		t.Errorf("Delay = %g", prop.Delay())
	}
	freshIdx, ok := g.StateIndex(n.InitialMarking())
	if !ok {
		t.Fatal("fresh state missing")
	}
	init := make([]float64, g.NumStates())
	init[freshIdx] = 1

	// Within the first cycle the component simply decays:
	// P(fresh at t) = e^{-lambda t} for t < tau.
	for _, tt := range []float64{0, 0.5, 1.5} {
		pi, err := prop.Distribution(init, tt)
		if err != nil {
			t.Fatalf("Distribution(%g): %v", tt, err)
		}
		want := math.Exp(-lambda * tt)
		if math.Abs(pi[freshIdx]-want) > 1e-9 {
			t.Errorf("P(fresh at %g) = %.9f, want %.9f", tt, pi[freshIdx], want)
		}
	}
	// Immediately after a tick the component is fresh again, then decays:
	// P(fresh at tau + s) = e^{-lambda s}.
	pi, err := prop.Distribution(init, tau+0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-lambda * 0.5); math.Abs(pi[freshIdx]-want) > 1e-9 {
		t.Errorf("P(fresh at tau+0.5) = %.9f, want %.9f", pi[freshIdx], want)
	}

	// The no-tick mode on the two-state chain up -lam-> down -mu-> up:
	// P(down at t) from up is lam/(lam+mu) (1 - e^{-(lam+mu) t}).
	const (
		lam = 0.4
		mu  = 0.6
	)
	cg := buildCycleCTMC(t, lam, mu)
	cp, err := NewPropagator(cg, nil)
	if err != nil {
		t.Fatalf("NewPropagator(CTMC): %v", err)
	}
	if cp.Delay() != 0 {
		t.Errorf("pure CTMC Delay = %g, want 0", cp.Delay())
	}
	down := 1 - initialState(t, cg)
	for _, tt := range []float64{0, 0.25, 1, 4} {
		got, err := cp.Distribution(cg.Initial, tt)
		if err != nil {
			t.Fatalf("CTMC Distribution(%g): %v", tt, err)
		}
		want := lam / (lam + mu) * (1 - math.Exp(-(lam+mu)*tt))
		if math.Abs(got[down]-want) > 1e-10 {
			t.Errorf("CTMC t=%g: P(down) = %g, want %g", tt, got[down], want)
		}
	}
}

func TestPropagatorAccumulatedReward(t *testing.T) {
	const (
		lambda = 0.5
		tau    = 2.0
	)
	n := buildRejuvenationToy(t, lambda, tau)
	g := explore(t, n)
	prop, err := NewPropagator(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	freshIdx, _ := g.StateIndex(n.InitialMarking())
	init := make([]float64, g.NumStates())
	init[freshIdx] = 1
	reward := make([]float64, g.NumStates())
	reward[freshIdx] = 1

	// Over k full cycles: k * Integral_0^tau e^{-lambda t} dt.
	perCycle := (1 - math.Exp(-lambda*tau)) / lambda
	for _, cycles := range []int{1, 3} {
		got, err := prop.AccumulatedReward(init, reward, float64(cycles)*tau)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(cycles) * perCycle
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("accumulated over %d cycles = %.9f, want %.9f", cycles, got, want)
		}
	}
	// Constant reward of one accumulates exactly t.
	ones := make([]float64, g.NumStates())
	for i := range ones {
		ones[i] = 1
	}
	got, err := prop.AccumulatedReward(init, ones, 5.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5.5) > 1e-8 {
		t.Errorf("constant reward accumulated %.9f, want 5.5", got)
	}

	// No-tick mode, two-state chain up -lam-> down -mu-> up: the time up
	// over [0, t] from up is mu/s t + lam/s^2 (1 - e^{-s t}), s = lam+mu.
	const (
		lam = 0.4
		mu  = 0.6
	)
	cg := buildCycleCTMC(t, lam, mu)
	cp, err := NewPropagator(cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	upReward := make([]float64, 2)
	upReward[initialState(t, cg)] = 1
	for _, tt := range []float64{0, 0.5, 7} {
		got, err := cp.AccumulatedReward(cg.Initial, upReward, tt)
		if err != nil {
			t.Fatalf("CTMC AccumulatedReward(%g): %v", tt, err)
		}
		s := lam + mu
		if want := mu/s*tt + lam/(s*s)*(1-math.Exp(-s*tt)); math.Abs(got-want) > 1e-9 {
			t.Errorf("CTMC t=%g: time up = %.12g, want %.12g", tt, got, want)
		}
	}

	// A pure CTMC resting in an absorbing state (the frozen chain, rate 0)
	// accumulates its reward for exactly t.
	frozen := buildCycleCTMC(t, 0, 1)
	fp, err := NewPropagator(frozen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fp.AccumulatedReward(frozen.Initial, []float64{1}, 7); err != nil || math.Abs(got-7) > 1e-9 {
		t.Errorf("frozen chain accumulated %g (err %v), want 7", got, err)
	}
}

// TestPropagatorKilling: a constant killing rate c in every state removes
// mass at rate c whatever the process does, so the surviving mass is
// e^{-c t} in both the clocked and the no-tick mode. Accumulated rewards
// are refused under killing.
func TestPropagatorKilling(t *testing.T) {
	const c = 0.3
	graphs := map[string]*petri.Graph{
		"clocked": explore(t, buildRejuvenationToy(t, 0.5, 2)),
		"ctmc":    buildCycleCTMC(t, 0.4, 0.6, 1.1),
	}
	for name, g := range graphs {
		kill := make([]float64, g.NumStates())
		for i := range kill {
			kill[i] = c
		}
		prop, err := NewPropagator(g, kill)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tt := range []float64{0, 0.7, 2, 5.5} {
			pi, err := prop.Distribution(g.Initial, tt)
			if err != nil {
				t.Fatalf("%s t=%g: %v", name, tt, err)
			}
			if got, want := linalg.Sum(pi), math.Exp(-c*tt); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s t=%g: surviving mass %.12g, want %.12g", name, tt, got, want)
			}
		}
		if _, err := prop.AccumulatedReward(g.Initial, kill, 1); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: killed AccumulatedReward err = %v, want ErrInvalidInput", name, err)
		}
	}
}

func TestPropagatorValidation(t *testing.T) {
	n := buildRejuvenationToy(t, 0.5, 2)
	g := explore(t, n)
	prop, err := NewPropagator(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prop.Distribution([]float64{1}, 1); err == nil {
		t.Error("wrong-length distribution accepted")
	}
	if _, err := prop.Distribution(make([]float64, g.NumStates()), -1); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := prop.AccumulatedReward([]float64{1}, []float64{1}, 1); err == nil {
		t.Error("wrong-length vectors accepted")
	}
	if _, err := prop.AccumulatedReward(g.Initial, []float64{1}, 1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("wrong-length reward: err = %v, want ErrInvalidInput", err)
	}
	// A graph without deterministic transitions is a pure CTMC, accepted
	// as the no-tick case; its wrong-length inputs are rejected the same.
	plain := explore(t, buildMM1KForGeneral(t))
	cp, err := NewPropagator(plain, nil)
	if err != nil {
		t.Fatalf("pure CTMC rejected: %v", err)
	}
	if _, err := cp.Distribution([]float64{1}, 1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("CTMC wrong-length distribution: err = %v, want ErrInvalidInput", err)
	}
	if _, err := cp.AccumulatedReward([]float64{1}, make([]float64, plain.NumStates()), 1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("CTMC wrong-length initial vector: err = %v, want ErrInvalidInput", err)
	}
	// Clocks that are not always enabled stay outside the class.
	if _, err := NewPropagator(explore(t, buildGatedClock(t, 1, 1, 5)), nil); !errors.Is(err, ErrClockNotAlwaysEnabled) {
		t.Errorf("partial clock: err = %v, want ErrClockNotAlwaysEnabled", err)
	}

	// Every negative or non-finite time, killing rate or initial mass is a
	// typed error in both modes, never a panic, a hang or a silently wrong
	// vector; so is a horizon past the work bound.
	graphs := map[string]*petri.Graph{"clocked": g, "ctmc": plain}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300}
	for name, g := range graphs {
		p, err := NewPropagator(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		ones := make([]float64, g.NumStates())
		for i := range ones {
			ones[i] = 1
		}
		for _, x := range bad {
			if _, err := p.Distribution(g.Initial, x); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("%s: Distribution(t=%g) err = %v, want ErrInvalidInput", name, x, err)
			}
			if _, err := p.AccumulatedReward(g.Initial, ones, x); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("%s: AccumulatedReward(t=%g) err = %v, want ErrInvalidInput", name, x, err)
			}
			kill := make([]float64, g.NumStates())
			kill[0] = x
			if _, err := NewPropagator(g, kill); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("%s: kill %g err = %v, want ErrInvalidInput", name, x, err)
			}
			pi0 := append([]float64(nil), g.Initial...)
			pi0[0] = x
			if _, err := p.Distribution(pi0, 1); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("%s: initial mass %g err = %v, want ErrInvalidInput", name, x, err)
			}
		}
		if _, err := NewPropagator(g, []float64{1}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: short kill vector err = %v, want ErrInvalidInput", name, err)
		}
		if _, err := p.Distribution(g.Initial, 1e300); !errors.Is(err, ErrHorizonTooLong) {
			t.Errorf("%s: t=1e300 err = %v, want ErrHorizonTooLong", name, err)
		}
	}
	huge := make([]float64, g.NumStates())
	huge[0] = 1e300
	if _, err := NewPropagator(g, huge); !errors.Is(err, ErrHorizonTooLong) {
		t.Errorf("kill 1e300 on a clocked graph: err = %v, want ErrHorizonTooLong", err)
	}
}

func TestPropagatorDistributionStaysStochastic(t *testing.T) {
	n := buildRejuvenationToy(t, 1.0/1523, 600)
	g := explore(t, n)
	prop, err := NewPropagator(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]float64, g.NumStates())
	idx, _ := g.StateIndex(n.InitialMarking())
	init[idx] = 1
	for _, tt := range []float64{0, 100, 600, 599.999, 600.001, 12345} {
		pi, err := prop.Distribution(init, tt)
		if err != nil {
			t.Fatalf("t=%g: %v", tt, err)
		}
		if s := linalg.Sum(pi); math.Abs(s-1) > 1e-9 {
			t.Errorf("t=%g: distribution sums to %g", tt, s)
		}
	}

	// Property, no-tick mode: a three-state ring stays a distribution at
	// every time.
	f := func(rawLam, rawMu, rawT uint8) bool {
		lam := float64(rawLam)/32 + 0.05
		mu := float64(rawMu)/32 + 0.05
		tm := float64(rawT) / 16
		g := buildCycleCTMC(t, lam, mu, lam+mu)
		prop, err := NewPropagator(g, nil)
		if err != nil {
			return false
		}
		got, err := prop.Distribution(g.Initial, tm)
		if err != nil {
			return false
		}
		var s float64
		for _, v := range got {
			if v < 0 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// FuzzPropagator drives both modes with arbitrary times and killing
// rates: every call must return a typed error or a finite, non-negative
// vector of mass at most one. Without killing, the accumulated unit
// reward must also land in [0, t].
func FuzzPropagator(f *testing.F) {
	f.Add(1.5, 0.0, 0.0, false)
	f.Add(7.0, 0.2, 0.9, true)
	f.Add(math.NaN(), 0.0, 0.0, true)
	f.Add(math.Inf(1), 0.0, 0.0, false)
	f.Add(3.0, -1.0, 0.0, true)
	f.Add(1e300, 0.0, 0.0, false)
	f.Add(2.0, 1e300, 0.0, true)
	clocked := explore(f, buildRejuvenationToy(f, 0.5, 2))
	ctmc := buildCycleCTMC(f, 0.4, 0.6, 1.1)
	f.Fuzz(func(t *testing.T, tm, k0, k1 float64, useClock bool) {
		g := ctmc
		if useClock {
			g = clocked
		}
		var kill []float64
		if k0 != 0 || k1 != 0 {
			kill = make([]float64, g.NumStates())
			kill[0], kill[len(kill)-1] = k0, k1
		}
		prop, err := NewPropagator(g, kill)
		if err != nil {
			if !errors.Is(err, ErrInvalidInput) && !errors.Is(err, ErrHorizonTooLong) {
				t.Fatalf("NewPropagator: untyped error %v", err)
			}
			return
		}
		pi, err := prop.Distribution(g.Initial, tm)
		if err != nil {
			if !errors.Is(err, ErrInvalidInput) && !errors.Is(err, ErrHorizonTooLong) {
				t.Fatalf("Distribution(%g): untyped error %v", tm, err)
			}
			return
		}
		var mass float64
		for i, v := range pi {
			if !(v >= 0) || math.IsInf(v, 1) {
				t.Fatalf("Distribution(%g)[%d] = %g", tm, i, v)
			}
			mass += v
		}
		if mass > 1+1e-9 {
			t.Fatalf("Distribution(%g) has mass %g > 1", tm, mass)
		}
		if kill != nil {
			return
		}
		ones := make([]float64, g.NumStates())
		for i := range ones {
			ones[i] = 1
		}
		acc, err := prop.AccumulatedReward(g.Initial, ones, tm)
		if err != nil {
			t.Fatalf("AccumulatedReward(%g) failed where Distribution passed: %v", tm, err)
		}
		if !(acc >= 0) || acc > tm*(1+1e-9) {
			t.Fatalf("AccumulatedReward(%g) = %g outside [0, t]", tm, acc)
		}
	})
}
