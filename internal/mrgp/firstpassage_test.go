package mrgp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"nvrel/internal/linalg"
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
	// Without a clock the net is a CTMC, its own kernel in rate form:
	// up → down at rate 1 takes 1 s on average, exactly.
	plain := explore(t, n)
	if got, err := MeanTimeToTarget(nil, nil, plain, targetPlace(plain, down)); err != nil || got != 1 {
		t.Errorf("no clock: MTTO = %v, %v; want exactly 1", got, err)
	}
}

// buildChain builds a clockless net whose single token walks places
// s0..s(n-1) along the (from, to, rate) edges, starting in s0.
func buildChain(t *testing.T, n int, edges ...[3]float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("chain")
	places := make([]petri.PlaceRef, n)
	for i := range places {
		tokens := 0
		if i == 0 {
			tokens = 1
		}
		places[i] = b.AddPlace(fmt.Sprintf("s%d", i), tokens)
	}
	for k, e := range edges {
		b.AddTransition(petri.Spec{
			Name: fmt.Sprintf("t%d", k), Kind: petri.Exponential, Rate: e[2],
			Inputs:  []petri.Arc{{Place: places[int(e[0])]}},
			Outputs: []petri.Arc{{Place: places[int(e[1])]}},
		})
	}
	net, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return net
}

// chainTimes explores the chain and returns, per place s_i, the mean time
// to reach place hit when started in s_i.
func chainTimes(t *testing.T, net *petri.Net, hit petri.PlaceRef) []float64 {
	t.Helper()
	g := explore(t, net)
	target := targetPlace(g, hit)
	times := make([]float64, net.NumPlaces())
	for p := range times {
		s := placeState(t, g, petri.PlaceRef(p))
		clear(g.Initial)
		g.Initial[s] = 1
		got, err := MeanTimeToTarget(nil, nil, g, target)
		if err != nil {
			t.Fatalf("from s%d: %v", p, err)
		}
		times[p] = got
	}
	return times
}

// placeState returns the state of g holding the chain's token in p.
func placeState(t *testing.T, g *petri.Graph, p petri.PlaceRef) int {
	t.Helper()
	for s, mk := range g.Markings {
		if mk[p] > 0 {
			return s
		}
	}
	t.Fatalf("no state marks place %d", p)
	return -1
}

func TestMeanTimeToTargetTwoState(t *testing.T) {
	// 0 -> 1 at rate lam: mean hitting time of {1} from 0 is 1/lam.
	const lam = 0.25
	times := chainTimes(t, buildChain(t, 2, [3]float64{0, 1, lam}), 1)
	if math.Abs(times[0]-1/lam) > 1e-12 {
		t.Errorf("t[0] = %g, want %g", times[0], 1/lam)
	}
	if times[1] != 0 {
		t.Errorf("t[1] = %g, want 0", times[1])
	}
}

func TestMeanTimeToTargetBirthDeathKnown(t *testing.T) {
	// Pure birth chain 0 -> 1 -> 2 with rate 1: hitting time of {2} from 0
	// is 2, from 1 is 1.
	times := chainTimes(t, buildChain(t, 3, [3]float64{0, 1, 1}, [3]float64{1, 2, 1}), 2)
	if math.Abs(times[0]-2) > 1e-12 || math.Abs(times[1]-1) > 1e-12 || times[2] != 0 {
		t.Errorf("times = %v, want [2 1 0]", times)
	}
}

func TestMeanTimeToTargetWithBacktracking(t *testing.T) {
	// 0 <-> 1 -> 2. Mean hitting time of {2}: from 1, either go to 2
	// (rate mu) or back to 0 (rate back). Standard equations:
	//   t0 = 1/lam + t1
	//   t1 = 1/(mu+back) + back/(mu+back) * t0
	const (
		lam  = 2.0
		back = 3.0
		mu   = 1.0
	)
	times := chainTimes(t, buildChain(t, 3, [3]float64{0, 1, lam}, [3]float64{1, 0, back}, [3]float64{1, 2, mu}), 2)
	// Solve by hand: t1 = 1/(mu+back) + back/(mu+back)*(1/lam + t1)
	// => t1 * mu/(mu+back) = (1 + back/lam)/(mu+back)
	// => t1 = (1 + back/lam)/mu
	wantT1 := (1 + back/lam) / mu
	wantT0 := 1/lam + wantT1
	if math.Abs(times[1]-wantT1) > 1e-12 {
		t.Errorf("t1 = %g, want %g", times[1], wantT1)
	}
	if math.Abs(times[0]-wantT0) > 1e-12 {
		t.Errorf("t0 = %g, want %g", times[0], wantT0)
	}
}

func TestMeanTimeToTargetFromDistribution(t *testing.T) {
	g := explore(t, buildChain(t, 3, [3]float64{0, 1, 1}, [3]float64{1, 2, 1}))
	clear(g.Initial)
	g.Initial[placeState(t, g, 0)] = 0.5
	g.Initial[placeState(t, g, 1)] = 0.5
	got, err := MeanTimeToTarget(nil, nil, g, targetPlace(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("mean from mixture = %g, want 1.5", got)
	}
}

func TestMeanTimeToTargetValidation(t *testing.T) {
	g := explore(t, buildChain(t, 2, [3]float64{0, 1, 1}))
	if _, err := MeanTimeToTarget(nil, nil, g, []bool{true}); err == nil {
		t.Error("target of the wrong length accepted")
	}
	// Every state a target: the walk is already there.
	if got, err := MeanTimeToTarget(nil, nil, g, []bool{true, true}); err != nil || got != 0 {
		t.Errorf("all-target: MTTO = %v, %v; want 0", got, err)
	}
	if _, err := MeanTimeToTarget(nil, nil, &petri.Graph{}, nil); !errors.Is(err, petri.ErrNoStates) {
		t.Errorf("empty graph: err = %v, want petri.ErrNoStates", err)
	}
}

func TestMeanTimeToTargetUnreachableTarget(t *testing.T) {
	// From s0 the walk either hits s1 or falls into the closed pair
	// s2 <-> s3, from which s1 is never reached: the mean time is
	// infinite, for the start in s0 as well.
	g := explore(t, buildChain(t, 4, [3]float64{0, 1, 1}, [3]float64{0, 2, 1}, [3]float64{2, 3, 1}, [3]float64{3, 2, 1}))
	if _, err := MeanTimeToTarget(nil, nil, g, targetPlace(g, 1)); !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("err = %v, want ErrTargetUnreachable", err)
	}
}

// TestMeanTimeToTargetRejectsBadRates: the CTMC case checks the generator
// before it assembles the system, so a NaN, infinite or negative rate
// comes back as a typed solve error, never as a number.
func TestMeanTimeToTargetRejectsBadRates(t *testing.T) {
	for _, c := range []struct {
		rate float64
		kind linalg.FailureKind
	}{{math.NaN(), linalg.FailNaN}, {math.Inf(1), linalg.FailInf}, {-0.5, linalg.FailGenerator}} {
		g := explore(t, buildChain(t, 3, [3]float64{0, 1, 1}, [3]float64{1, 2, 1}))
		g.Exp[len(g.Exp)-1].Rate = c.rate
		_, err := MeanTimeToTarget(nil, nil, g, targetPlace(g, 2))
		if se, ok := linalg.AsSolveError(err); !ok || se.Kind != c.kind {
			t.Errorf("rate %g: err = %v, want a %s solve error", c.rate, err, c.kind)
		}
	}
}
