package mrgp

import (
	"errors"
	"math"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// buildRejuvenationToy builds the classic single-component rejuvenation
// model: the component degrades at rate lambda; a clock fires every tau and
// restores it to fresh. P(fresh) = (1 - e^{-lambda tau}) / (lambda tau).
func buildRejuvenationToy(t testing.TB, lambda, tau float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("rejuvenation-toy")
	fresh := b.AddPlace("fresh", 1)
	deg := b.AddPlace("deg", 0)
	clock := b.AddPlace("clock", 1)
	restore := b.AddPlace("restore", 0)
	b.AddTransition(petri.Spec{
		Name: "degrade", Kind: petri.Exponential, Rate: lambda,
		Inputs:  []petri.Arc{{Place: fresh}},
		Outputs: []petri.Arc{{Place: deg}},
	})
	b.AddTransition(petri.Spec{
		Name: "tick", Kind: petri.Deterministic, Delay: tau,
		Inputs:  []petri.Arc{{Place: clock}},
		Outputs: []petri.Arc{{Place: restore}},
	})
	b.AddTransition(petri.Spec{
		Name: "restoreDegraded", Kind: petri.Immediate, Rate: 1,
		Inputs:  []petri.Arc{{Place: restore}, {Place: deg}},
		Outputs: []petri.Arc{{Place: fresh}, {Place: clock}},
	})
	b.AddTransition(petri.Spec{
		Name: "restoreFresh", Kind: petri.Immediate, Rate: 1,
		Inputs:  []petri.Arc{{Place: restore}, {Place: fresh}},
		Outputs: []petri.Arc{{Place: fresh}, {Place: clock}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func explore(t testing.TB, n *petri.Net) *petri.Graph {
	t.Helper()
	g, err := petri.Explore(n, petri.ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return g
}

func TestSolveRejuvenationToy(t *testing.T) {
	tests := []struct {
		name        string
		lambda, tau float64
	}{
		{name: "frequent clock", lambda: 0.1, tau: 1},
		{name: "balanced", lambda: 1, tau: 1},
		{name: "rare clock", lambda: 2, tau: 10},
		{name: "paper-like scales", lambda: 1.0 / 1523, tau: 600},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := buildRejuvenationToy(t, tt.lambda, tt.tau)
			g := explore(t, n)
			sol, _, err := Solve(nil, nil, g, Opts{})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if sol.Delay != tt.tau {
				t.Errorf("Delay = %g, want %g", sol.Delay, tt.tau)
			}
			freshRef := petri.PlaceRef(0)
			var pFresh float64
			for s, m := range g.Markings {
				if m[freshRef] == 1 {
					pFresh += sol.Pi[s]
				}
			}
			want := (1 - math.Exp(-tt.lambda*tt.tau)) / (tt.lambda * tt.tau)
			if math.Abs(pFresh-want) > 1e-9 {
				t.Errorf("P(fresh) = %.12g, want %.12g", pFresh, want)
			}
			// Embedded chain starts every cycle fresh.
			for s, m := range g.Markings {
				wantEmb := 0.0
				if m[freshRef] == 1 {
					wantEmb = 1
				}
				if math.Abs(sol.Embedded[s]-wantEmb) > 1e-9 {
					t.Errorf("Embedded[%d] = %g, want %g", s, sol.Embedded[s], wantEmb)
				}
			}
		})
	}
}

// buildIdentityClock attaches a no-op deterministic clock to an M/M/1/K
// queue. The clock firing changes nothing, so the DSPN steady state must
// coincide with the plain CTMC steady state.
func buildIdentityClock(t *testing.T, k int, lam, mu, tau float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("identity-clock")
	queue := b.AddPlace("queue", 0)
	free := b.AddPlace("free", k)
	clock := b.AddPlace("clock", 1)
	b.AddTransition(petri.Spec{
		Name: "arrive", Kind: petri.Exponential, Rate: lam,
		Inputs:  []petri.Arc{{Place: free}},
		Outputs: []petri.Arc{{Place: queue}},
	})
	b.AddTransition(petri.Spec{
		Name: "serve", Kind: petri.Exponential, Rate: mu,
		Inputs:  []petri.Arc{{Place: queue}},
		Outputs: []petri.Arc{{Place: free}},
	})
	b.AddTransition(petri.Spec{
		Name: "noop", Kind: petri.Deterministic, Delay: tau,
		Inputs:  []petri.Arc{{Place: clock}},
		Outputs: []petri.Arc{{Place: clock}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestSolveIdentityClockMatchesCTMC(t *testing.T) {
	const (
		k   = 4
		lam = 2.0
		mu  = 3.0
		tau = 1.7
	)
	n := buildIdentityClock(t, k, lam, mu, tau)
	g := explore(t, n)
	sol, _, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Reference: the same queue without the clock.
	rho := lam / mu
	var norm float64
	for i := 0; i <= k; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for s, m := range g.Markings {
		want := math.Pow(rho, float64(m[0])) / norm
		if math.Abs(sol.Pi[s]-want) > 1e-9 {
			t.Errorf("pi(queue=%d) = %g, want %g", m[0], sol.Pi[s], want)
		}
	}
}

func TestSolvePiIsDistribution(t *testing.T) {
	n := buildRejuvenationToy(t, 0.7, 2.3)
	g := explore(t, n)
	sol, _, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s := linalg.Sum(sol.Pi); math.Abs(s-1) > 1e-12 {
		t.Errorf("sum(Pi) = %g", s)
	}
	for i, p := range sol.Pi {
		if p < 0 {
			t.Errorf("Pi[%d] = %g < 0", i, p)
		}
	}
}

func TestSolveRejectsPureCTMC(t *testing.T) {
	b := petri.NewBuilder("pure")
	p := b.AddPlace("p", 1)
	q := b.AddPlace("q", 0)
	b.AddTransition(petri.Spec{
		Name: "pq", Kind: petri.Exponential, Rate: 1,
		Inputs:  []petri.Arc{{Place: p}},
		Outputs: []petri.Arc{{Place: q}},
	})
	b.AddTransition(petri.Spec{
		Name: "qp", Kind: petri.Exponential, Rate: 1,
		Inputs:  []petri.Arc{{Place: q}},
		Outputs: []petri.Arc{{Place: p}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g := explore(t, n)
	if _, _, err := Solve(nil, nil, g, Opts{}); !errors.Is(err, ErrNoDeterministic) {
		t.Errorf("err = %v, want ErrNoDeterministic", err)
	}
}

func TestSolveRejectsPartiallyEnabledClock(t *testing.T) {
	// The deterministic transition is gated behind a place that an
	// exponential transition can empty, so some tangible states lack it.
	b := petri.NewBuilder("gated")
	gate := b.AddPlace("gate", 1)
	other := b.AddPlace("other", 0)
	b.AddTransition(petri.Spec{
		Name: "det", Kind: petri.Deterministic, Delay: 5,
		Inputs:  []petri.Arc{{Place: gate}},
		Outputs: []petri.Arc{{Place: gate}},
	})
	b.AddTransition(petri.Spec{
		Name: "close", Kind: petri.Exponential, Rate: 1,
		Inputs:  []petri.Arc{{Place: gate}},
		Outputs: []petri.Arc{{Place: other}},
	})
	b.AddTransition(petri.Spec{
		Name: "open", Kind: petri.Exponential, Rate: 1,
		Inputs:  []petri.Arc{{Place: other}},
		Outputs: []petri.Arc{{Place: gate}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g := explore(t, n)
	if _, _, err := Solve(nil, nil, g, Opts{}); !errors.Is(err, ErrClockNotAlwaysEnabled) {
		t.Errorf("err = %v, want ErrClockNotAlwaysEnabled", err)
	}
}

func TestSolveRejectsMixedDelays(t *testing.T) {
	// Two deterministic transitions with different delays enabled in
	// different tangible states (never together).
	b := petri.NewBuilder("mixed")
	a := b.AddPlace("a", 1)
	c := b.AddPlace("c", 0)
	b.AddTransition(petri.Spec{
		Name: "d1", Kind: petri.Deterministic, Delay: 1,
		Inputs:  []petri.Arc{{Place: a}},
		Outputs: []petri.Arc{{Place: c}},
	})
	b.AddTransition(petri.Spec{
		Name: "d2", Kind: petri.Deterministic, Delay: 2,
		Inputs:  []petri.Arc{{Place: c}},
		Outputs: []petri.Arc{{Place: a}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g := explore(t, n)
	if _, _, err := Solve(nil, nil, g, Opts{}); !errors.Is(err, ErrMixedClocks) {
		t.Errorf("err = %v, want ErrMixedClocks", err)
	}
}

// Long-period clocks should converge to the subordinated CTMC's absorbing
// behaviour; the toy model's P(fresh) tends to 0 as tau grows, 1 as tau
// shrinks. Monotonicity is the property the rejuvenation-interval sweep in
// the paper relies on for this toy.
func TestSolveToyMonotoneInTau(t *testing.T) {
	const lambda = 0.5
	prev := math.Inf(1)
	for _, tau := range []float64{0.25, 0.5, 1, 2, 4, 8, 16} {
		n := buildRejuvenationToy(t, lambda, tau)
		g := explore(t, n)
		sol, _, err := Solve(nil, nil, g, Opts{})
		if err != nil {
			t.Fatalf("tau=%g: %v", tau, err)
		}
		var pFresh float64
		for s, m := range g.Markings {
			if m[0] == 1 {
				pFresh += sol.Pi[s]
			}
		}
		if pFresh >= prev {
			t.Errorf("P(fresh) not strictly decreasing at tau=%g: %g >= %g", tau, pFresh, prev)
		}
		prev = pFresh
	}
}
