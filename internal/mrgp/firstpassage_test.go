package mrgp

import (
	"errors"
	"math"
	"testing"

	"nvrel/internal/petri"
)

// buildErlangToy builds a two-stage degradation model: fresh → deg →
// failed, each stage at rate lambda, and a clock that every tau restores a
// degraded component to fresh. Failed is absorbing in the net itself.
func buildErlangToy(t *testing.T, lambda, tau float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("erlang-toy")
	fresh := b.AddPlace("fresh", 1)
	deg := b.AddPlace("deg", 0)
	failed := b.AddPlace("failed", 0)
	clock := b.AddPlace("clock", 1)
	restore := b.AddPlace("restore", 0)
	b.AddTransition(petri.Spec{
		Name: "degrade", Kind: petri.Exponential, Rate: lambda,
		Inputs:  []petri.Arc{{Place: fresh}},
		Outputs: []petri.Arc{{Place: deg}},
	})
	b.AddTransition(petri.Spec{
		Name: "fail", Kind: petri.Exponential, Rate: lambda,
		Inputs:  []petri.Arc{{Place: deg}},
		Outputs: []petri.Arc{{Place: failed}},
	})
	b.AddTransition(petri.Spec{
		Name: "tick", Kind: petri.Deterministic, Delay: tau,
		Inputs:  []petri.Arc{{Place: clock}},
		Outputs: []petri.Arc{{Place: restore}},
	})
	for _, spec := range []struct {
		name     string
		from, to petri.PlaceRef
	}{{"restoreDegraded", deg, fresh}, {"restoreFresh", fresh, fresh}, {"keepFailed", failed, failed}} {
		b.AddTransition(petri.Spec{
			Name: spec.name, Kind: petri.Immediate, Rate: 1,
			Inputs:  []petri.Arc{{Place: restore}, {Place: spec.from}},
			Outputs: []petri.Arc{{Place: spec.to}, {Place: clock}},
		})
	}
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// targetPlace flags the states with a token in place p.
func targetPlace(g *petri.Graph, p petri.PlaceRef) []bool {
	target := make([]bool, g.NumStates())
	for s, mk := range g.Markings {
		target[s] = mk[p] > 0
	}
	return target
}

// TestMeanTimeToTargetErlangToy checks the solve against the closed form.
// Every epoch starts fresh, so a period is absorbed with probability
// p = P(Erlang(2, λ) ≤ τ) = 1 − e^{−x}(1+x), x = λτ, and spends
// h = ∫₀^τ e^{−λt}(1+λt) dt = (2/λ)(1 − e^{−x}) − τe^{−x} outside the
// target, so MTTO = h/p. At λτ = 1e-4 the per-period exit mass is
// ~5e-9; a 1 − P_ii diagonal loses half the digits there (rel err ~1e-8)
// and fails the 1e-12 band. p is summed as a series so the reference
// keeps its own digits.
func TestMeanTimeToTargetErlangToy(t *testing.T) {
	for _, tc := range []struct{ lambda, tau float64 }{{1e-4, 1}, {1e-3, 1}, {1, 1}, {0.5, 10}} {
		g := explore(t, buildErlangToy(t, tc.lambda, tc.tau))
		got, err := MeanTimeToTarget(nil, nil, g, targetPlace(g, 2))
		if err != nil {
			t.Fatalf("λ=%g τ=%g: %v", tc.lambda, tc.tau, err)
		}
		x := tc.lambda * tc.tau
		tail, term := 0.0, x*x/2 // Σ_{k≥2} x^k/k!
		for k := 3; term > 1e-17*tail; k++ {
			tail += term
			term *= x / float64(k)
		}
		p := math.Exp(-x) * tail
		h := 2/tc.lambda*-math.Expm1(-x) - tc.tau*math.Exp(-x)
		want := h / p
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("λ=%g τ=%g: MTTO = %.12g, want %.12g (rel err %.2g)", tc.lambda, tc.tau, got, want, rel)
		}
	}
}

func TestMeanTimeToTargetErrors(t *testing.T) {
	g := explore(t, buildErlangToy(t, 1, 1))
	if _, err := MeanTimeToTarget(nil, nil, g, make([]bool, g.NumStates()+1)); err == nil {
		t.Error("target of the wrong length accepted")
	}
	if _, err := MeanTimeToTarget(nil, nil, g, make([]bool, g.NumStates())); !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("empty target: err = %v, want ErrTargetUnreachable", err)
	}
	// Failed is closed in the net, so fresh cannot be reached from it.
	if _, err := MeanTimeToTarget(nil, nil, g, targetPlace(g, 0)); !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("closed class: err = %v, want ErrTargetUnreachable", err)
	}

	b := petri.NewBuilder("no-clock")
	up := b.AddPlace("up", 1)
	down := b.AddPlace("down", 0)
	b.AddTransition(petri.Spec{
		Name: "fail", Kind: petri.Exponential, Rate: 1,
		Inputs:  []petri.Arc{{Place: up}},
		Outputs: []petri.Arc{{Place: down}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain := explore(t, n)
	if _, err := MeanTimeToTarget(nil, nil, plain, targetPlace(plain, down)); !errors.Is(err, ErrNoDeterministic) {
		t.Errorf("no clock: err = %v, want ErrNoDeterministic", err)
	}
}
