package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

// rateGenerator builds an n-state generator from (from, to, rate) triples;
// repeated pairs accumulate and the diagonal keeps each row summing to
// zero.
func rateGenerator(n int, edges ...[3]float64) *Dense {
	q := NewDense(n, n)
	for _, e := range edges {
		i, j := int(e[0]), int(e[1])
		q.Add(i, j, e[2])
		q.Add(i, i, -e[2])
	}
	return q
}

// transient returns pi0 e^{Qt} through the CSR uniformization series, the
// vector kernel every propagator runs on.
func transient(q *Dense, pi0 []float64, t float64) ([]float64, error) {
	var ws *Workspace
	return ws.UniformizedPowerCSR(CSRFromDenseT(q), pi0, t, 0, 1e-12, nil)
}

// occupancy returns, per state, the expected time spent there over [0, t]
// starting from pi0.
func occupancy(q *Dense, pi0 []float64, t float64) ([]float64, error) {
	var ws *Workspace
	return ws.UniformizedIntegralCSR(CSRFromDenseT(q), pi0, t, 0, 1e-12, nil)
}

func TestTransientMatchesClosedForm(t *testing.T) {
	const (
		lam = 0.4
		mu  = 0.6
	)
	q := rateGenerator(2, [3]float64{0, 1, lam}, [3]float64{1, 0, mu})
	for _, tt := range []float64{0, 0.25, 1, 4} {
		got, err := transient(q, []float64{1, 0}, tt)
		if err != nil {
			t.Fatalf("transient: %v", err)
		}
		want := lam / (lam + mu) * (1 - math.Exp(-(lam+mu)*tt))
		if math.Abs(got[1]-want) > 1e-10 {
			t.Errorf("t=%g: got %g, want %g", tt, got[1], want)
		}
	}
}

func TestAccumulatedReward(t *testing.T) {
	// Reward 1 in state 0, starting in state 0 with no way out:
	// accumulated reward over [0,t] is exactly t.
	q := rateGenerator(2, [3]float64{1, 0, 1})
	occ, err := occupancy(q, []float64{1, 0}, 7)
	if err != nil {
		t.Fatalf("occupancy: %v", err)
	}
	got, err := Dot(occ, []float64{1, 0})
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if math.Abs(got-7) > 1e-9 {
		t.Errorf("reward = %g, want 7", got)
	}
	if _, err := Dot(occ, []float64{1}); err == nil {
		t.Error("expected reward mismatch error")
	}
	if _, err := occupancy(q, []float64{1}, 7); err == nil {
		t.Error("expected initial distribution mismatch error")
	}
}

func TestTransientDimensionValidation(t *testing.T) {
	q := rateGenerator(2, [3]float64{0, 1, 1}, [3]float64{1, 0, 1})
	if _, err := transient(q, []float64{1}, 1); err == nil {
		t.Error("expected error for wrong pi0 length")
	}
	if _, err := occupancy(q, []float64{1}, 1); err == nil {
		t.Error("expected error for wrong pi0 length")
	}
}

// Property: transient distribution remains a distribution at all times.
func TestTransientIsDistributionProperty(t *testing.T) {
	f := func(rawLam, rawMu, rawT uint8) bool {
		lam := float64(rawLam)/32 + 0.05
		mu := float64(rawMu)/32 + 0.05
		tm := float64(rawT) / 16
		q := rateGenerator(3, [3]float64{0, 1, lam}, [3]float64{1, 2, mu}, [3]float64{2, 0, lam + mu})
		got, err := transient(q, []float64{1, 0, 0}, tm)
		if err != nil {
			return false
		}
		var s float64
		for _, v := range got {
			if v < -1e-10 {
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

// Property: steady state is a fixed point of the transient operator.
func TestSteadyStateFixedPointProperty(t *testing.T) {
	f := func(rawA, rawB uint8) bool {
		a := float64(rawA)/64 + 0.1
		b := float64(rawB)/64 + 0.1
		q := rateGenerator(3, [3]float64{0, 1, a}, [3]float64{1, 0, b}, [3]float64{1, 2, a}, [3]float64{2, 1, b})
		pi, err := SteadyStateGTH(q)
		if err != nil {
			return false
		}
		moved, err := transient(q, pi, 3.7)
		if err != nil {
			return false
		}
		for i := range pi {
			if math.Abs(pi[i]-moved[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
