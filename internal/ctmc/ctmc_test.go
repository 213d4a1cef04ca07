package ctmc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"nvrel/internal/linalg"
)

func buildTwoState(t *testing.T, lam, mu float64) *Chain {
	t.Helper()
	c, err := New(2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.AddRate(0, 1, lam); err != nil {
		t.Fatalf("AddRate: %v", err)
	}
	if err := c.AddRate(1, 0, mu); err != nil {
		t.Fatalf("AddRate: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("New(0) err = %v, want ErrEmptyChain", err)
	}
}

func TestAddRateValidation(t *testing.T) {
	c, _ := New(2)
	tests := []struct {
		name string
		i, j int
		rate float64
	}{
		{name: "negative rate", i: 0, j: 1, rate: -1},
		{name: "zero rate", i: 0, j: 1, rate: 0},
		{name: "nan rate", i: 0, j: 1, rate: math.NaN()},
		{name: "self loop", i: 1, j: 1, rate: 1},
		{name: "out of range source", i: 5, j: 1, rate: 1},
		{name: "out of range target", i: 0, j: 9, rate: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := c.AddRate(tt.i, tt.j, tt.rate); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	c := buildTwoState(t, 2, 8)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	if math.Abs(pi[0]-0.8) > 1e-12 || math.Abs(pi[1]-0.2) > 1e-12 {
		t.Errorf("pi = %v, want [0.8 0.2]", pi)
	}
}

func TestAddRateAccumulates(t *testing.T) {
	c, _ := New(2)
	if err := c.AddRate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	q := c.Generator()
	if q.At(0, 1) != 3 || q.At(0, 0) != -3 {
		t.Errorf("generator = %v", q)
	}
}

func TestGeneratorIsCopy(t *testing.T) {
	c := buildTwoState(t, 1, 1)
	q := c.Generator()
	q.Set(0, 1, 99)
	if c.Generator().At(0, 1) != 1 {
		t.Error("Generator returned aliased storage")
	}
}

func TestFromGenerator(t *testing.T) {
	q, _ := linalg.NewDenseFrom([][]float64{
		{-1, 1},
		{2, -2},
	})
	c, err := FromGenerator(q)
	if err != nil {
		t.Fatalf("FromGenerator: %v", err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	if math.Abs(pi[0]-2.0/3) > 1e-12 {
		t.Errorf("pi = %v", pi)
	}
}

func TestFromGeneratorRejectsInvalid(t *testing.T) {
	bad, _ := linalg.NewDenseFrom([][]float64{
		{-1, 2}, // row sums to 1, not 0
		{2, -2},
	})
	if _, err := FromGenerator(bad); err == nil {
		t.Error("expected validation error")
	}
	if _, err := FromGenerator(linalg.NewDense(2, 3)); err == nil {
		t.Error("expected error for non-square")
	}
}

// transient returns pi0 e^{Qt} for the chain's generator through the CSR
// uniformization series, the vector kernel every propagator runs on.
func transient(c *Chain, pi0 []float64, t float64) ([]float64, error) {
	var ws *linalg.Workspace
	return ws.UniformizedPowerCSR(linalg.CSRFromDenseT(c.Generator()), pi0, t, 0, 1e-12, nil)
}

// occupancy returns, per state, the expected time spent there over [0, t]
// starting from pi0.
func occupancy(c *Chain, pi0 []float64, t float64) ([]float64, error) {
	var ws *linalg.Workspace
	return ws.UniformizedIntegralCSR(linalg.CSRFromDenseT(c.Generator()), pi0, t, 0, 1e-12, nil)
}

func TestTransientMatchesClosedForm(t *testing.T) {
	const (
		lam = 0.4
		mu  = 0.6
	)
	c := buildTwoState(t, lam, mu)
	for _, tt := range []float64{0, 0.25, 1, 4} {
		got, err := transient(c, []float64{1, 0}, tt)
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
	c, _ := New(2)
	if err := c.AddRate(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	occ, err := occupancy(c, []float64{1, 0}, 7)
	if err != nil {
		t.Fatalf("occupancy: %v", err)
	}
	got, err := linalg.Dot(occ, []float64{1, 0})
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if math.Abs(got-7) > 1e-9 {
		t.Errorf("reward = %g, want 7", got)
	}
	if _, err := linalg.Dot(occ, []float64{1}); err == nil {
		t.Error("expected reward mismatch error")
	}
	if _, err := occupancy(c, []float64{1}, 7); err == nil {
		t.Error("expected initial distribution mismatch error")
	}
}

func TestTransientDimensionValidation(t *testing.T) {
	c := buildTwoState(t, 1, 1)
	if _, err := transient(c, []float64{1}, 1); err == nil {
		t.Error("expected error for wrong pi0 length")
	}
	if _, err := occupancy(c, []float64{1}, 1); err == nil {
		t.Error("expected error for wrong pi0 length")
	}
}

// Property: transient distribution remains a distribution at all times.
func TestTransientIsDistributionProperty(t *testing.T) {
	f := func(rawLam, rawMu, rawT uint8) bool {
		lam := float64(rawLam)/32 + 0.05
		mu := float64(rawMu)/32 + 0.05
		tm := float64(rawT) / 16
		c, err := New(3)
		if err != nil {
			return false
		}
		_ = c.AddRate(0, 1, lam)
		_ = c.AddRate(1, 2, mu)
		_ = c.AddRate(2, 0, lam+mu)
		got, err := transient(c, []float64{1, 0, 0}, tm)
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
		c, err := New(3)
		if err != nil {
			return false
		}
		_ = c.AddRate(0, 1, a)
		_ = c.AddRate(1, 0, b)
		_ = c.AddRate(1, 2, a)
		_ = c.AddRate(2, 1, b)
		pi, err := c.SteadyState()
		if err != nil {
			return false
		}
		moved, err := transient(c, pi, 3.7)
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
