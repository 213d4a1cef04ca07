package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPoissonWeightsSumToOne(t *testing.T) {
	for _, lambda := range []float64{0, 0.1, 1, 10, 100, 5000} {
		w, right := PoissonWeights(lambda, 1e-12)
		if len(w) != right+1 {
			t.Fatalf("lambda=%g: len(w)=%d, right=%d", lambda, len(w), right)
		}
		if s := Sum(w); !almostEqual(s, 1, 1e-12) {
			t.Errorf("lambda=%g: sum = %g, want 1", lambda, s)
		}
	}
}

func TestPoissonWeightsKnownValues(t *testing.T) {
	// Poisson(1): P[K=0] = e^-1, P[K=1] = e^-1, P[K=2] = e^-1/2.
	w, _ := PoissonWeights(1, 1e-14)
	e := math.Exp(-1)
	if !almostEqual(w[0], e, 1e-12) || !almostEqual(w[1], e, 1e-12) || !almostEqual(w[2], e/2, 1e-12) {
		t.Errorf("w[0..2] = %v %v %v, want %v %v %v", w[0], w[1], w[2], e, e, e/2)
	}
}

func TestPoissonWeightsMeanProperty(t *testing.T) {
	f := func(raw uint8) bool {
		lambda := float64(raw)/4 + 0.25 // (0.25, 64)
		w, _ := PoissonWeights(lambda, 1e-13)
		var mean float64
		for k, p := range w {
			mean += float64(k) * p
		}
		return almostEqual(mean, lambda, 1e-6*math.Max(1, lambda))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPoissonWeightsPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative lambda")
		}
	}()
	PoissonWeights(-1, 1e-12)
}

// powerCSR and integralCSR run the uniformization series of a dense
// generator through the CSR kernels with an allocating workspace.
func powerCSR(q *Dense, pi []float64, t, epsilon float64) ([]float64, error) {
	return (*Workspace)(nil).UniformizedPowerCSR(CSRFromDenseT(q), pi, t, 0, epsilon, nil)
}

func integralCSR(q *Dense, pi []float64, t, epsilon float64) ([]float64, error) {
	return (*Workspace)(nil).UniformizedIntegralCSR(CSRFromDenseT(q), pi, t, 0, epsilon, nil)
}

func TestUniformizedPowerTwoState(t *testing.T) {
	// Two-state chain with known transient solution:
	// p01(t) = lam/(lam+mu) * (1 - e^{-(lam+mu)t}).
	const (
		lam = 0.7
		mu  = 1.3
	)
	q, _ := NewDenseFrom([][]float64{
		{-lam, lam},
		{mu, -mu},
	})
	for _, tt := range []float64{0, 0.1, 0.5, 1, 5, 50} {
		got, err := powerCSR(q, []float64{1, 0}, tt, 1e-13)
		if err != nil {
			t.Fatalf("t=%g: %v", tt, err)
		}
		want1 := lam / (lam + mu) * (1 - math.Exp(-(lam+mu)*tt))
		if !almostEqual(got[1], want1, 1e-9) {
			t.Errorf("t=%g: p01 = %g, want %g", tt, got[1], want1)
		}
		if !almostEqual(Sum(got), 1, 1e-9) {
			t.Errorf("t=%g: sum = %g", tt, Sum(got))
		}
	}
}

func TestUniformizedPowerZeroGenerator(t *testing.T) {
	q := NewDense(3, 3)
	pi := []float64{0.2, 0.3, 0.5}
	got, err := powerCSR(q, pi, 10, 1e-12)
	if err != nil {
		t.Fatalf("UniformizedPowerCSR: %v", err)
	}
	if !vecAlmostEqual(got, pi, 1e-15) {
		t.Errorf("got %v, want %v", got, pi)
	}
}

func TestUniformizedPowerConvergesToSteadyState(t *testing.T) {
	q := birthDeathGenerator(4, 1, 2)
	pi0 := []float64{1, 0, 0, 0}
	long, err := powerCSR(q, pi0, 200, 1e-13)
	if err != nil {
		t.Fatalf("UniformizedPowerCSR: %v", err)
	}
	ss, err := SteadyStateGTH(q)
	if err != nil {
		t.Fatalf("SteadyStateGTH: %v", err)
	}
	if !vecAlmostEqual(long, ss, 1e-8) {
		t.Errorf("transient at t=200 %v != steady state %v", long, ss)
	}
}

func TestUniformizedIntegralTwoState(t *testing.T) {
	// Expected time spent in state 1 over [0,t] starting in 0:
	// integral of p01(s) ds = a*t - a/(lam+mu) * (1 - e^{-(lam+mu)t}),
	// with a = lam/(lam+mu).
	const (
		lam = 0.7
		mu  = 1.3
	)
	q, _ := NewDenseFrom([][]float64{
		{-lam, lam},
		{mu, -mu},
	})
	for _, tt := range []float64{0.5, 1, 10} {
		got, err := integralCSR(q, []float64{1, 0}, tt, 1e-13)
		if err != nil {
			t.Fatalf("t=%g: %v", tt, err)
		}
		a := lam / (lam + mu)
		want1 := a*tt - a/(lam+mu)*(1-math.Exp(-(lam+mu)*tt))
		if !almostEqual(got[1], want1, 1e-8) {
			t.Errorf("t=%g: integral[1] = %g, want %g", tt, got[1], want1)
		}
		// Total occupancy equals elapsed time.
		if !almostEqual(Sum(got), tt, 1e-8) {
			t.Errorf("t=%g: total occupancy = %g", tt, Sum(got))
		}
	}
}

func TestUniformizedIntegralZeroCases(t *testing.T) {
	q := birthDeathGenerator(3, 1, 1)
	got, err := integralCSR(q, []float64{1, 0, 0}, 0, 1e-12)
	if err != nil {
		t.Fatalf("UniformizedIntegralCSR: %v", err)
	}
	if Sum(got) != 0 {
		t.Errorf("integral over [0,0] = %v", got)
	}
	// Zero generator: occupancy is t * pi.
	z := NewDense(2, 2)
	got, err = integralCSR(z, []float64{0.5, 0.5}, 4, 1e-12)
	if err != nil {
		t.Fatalf("UniformizedIntegralCSR: %v", err)
	}
	if !vecAlmostEqual(got, []float64{2, 2}, 1e-12) {
		t.Errorf("got %v, want [2 2]", got)
	}
}

func TestUniformizedDimensionErrors(t *testing.T) {
	qt := CSRFromDenseT(birthDeathGenerator(3, 1, 1))
	var ws *Workspace
	if _, err := ws.UniformizedPowerCSR(qt, []float64{1, 0}, 1, 0, 1e-12, nil); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := ws.UniformizedIntegralCSR(qt, []float64{1, 0}, 1, 0, 1e-12, nil); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := ws.UniformizedPowerCSR(qt, []float64{1, 0, 0}, 1, 0, 1e-12, make([]float64, 2)); err == nil {
		t.Error("expected dimension error for a short destination")
	}
	if _, err := ws.UniformizedPowerCSR(qt, []float64{1, 0, 0}, -1, 0, 1e-12, nil); err == nil {
		t.Error("expected error for negative time")
	}
}

// TestPoissonWeightsMatchDirectLgammaBits: the memoized lgamma(k+1) table
// and the skipped underflow region left of large means give the weights
// of the direct form, which calls math.Lgamma per term, bit for bit, at
// means small and large (across the table's cap), whatever order the
// table grew in.
func TestPoissonWeightsMatchDirectLgammaBits(t *testing.T) {
	direct := func(lambda float64, right int) []float64 {
		w := make([]float64, right+1)
		logLambda := math.Log(lambda)
		var sum float64
		for k := 0; k <= right; k++ {
			lg, _ := math.Lgamma(float64(k + 1))
			w[k] = math.Exp(-lambda + float64(k)*logLambda - lg)
			sum += w[k]
		}
		for k := range w {
			w[k] /= sum
		}
		return w
	}
	for _, lambda := range []float64{5000, 0.01, 0.5, 1, 3.7, 31.9, 32, 100, 640.25, 2043, 3900, 4100, 1e4, 37000, 165000.5, 2e6} {
		got, right := PoissonWeights(lambda, 1e-12)
		want := direct(lambda, right)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("lambda=%g: weight %d = %v, direct form %v", lambda, k, got[k], want[k])
			}
		}
	}
}
