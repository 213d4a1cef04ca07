package linalg

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// birthDeathGenerator builds the generator of a simple birth-death CTMC with
// birth rate lam and death rate mu on states 0..n-1.
func birthDeathGenerator(n int, lam, mu float64) *Dense {
	q := NewDense(n, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			q.Set(i, i+1, lam)
			q.Add(i, i, -lam)
		}
		if i > 0 {
			q.Set(i, i-1, mu)
			q.Add(i, i, -mu)
		}
	}
	return q
}

func TestSteadyStateGTHBirthDeath(t *testing.T) {
	// M/M/1/K queue: pi(i) proportional to rho^i.
	const (
		n   = 5
		lam = 2.0
		mu  = 3.0
	)
	q := birthDeathGenerator(n, lam, mu)
	pi, err := SteadyStateGTH(q)
	if err != nil {
		t.Fatalf("SteadyStateGTH: %v", err)
	}
	rho := lam / mu
	var norm float64
	for i := 0; i < n; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for i := 0; i < n; i++ {
		want := math.Pow(rho, float64(i)) / norm
		if !almostEqual(pi[i], want, 1e-12) {
			t.Errorf("pi[%d] = %g, want %g", i, pi[i], want)
		}
	}
}

func TestSteadyStateGTHTwoState(t *testing.T) {
	// Classic up/down machine: pi_up = mu/(lam+mu).
	q, _ := NewDenseFrom([][]float64{
		{-0.1, 0.1},
		{5, -5},
	})
	pi, err := SteadyStateGTH(q)
	if err != nil {
		t.Fatalf("SteadyStateGTH: %v", err)
	}
	if !almostEqual(pi[0], 5/5.1, 1e-12) {
		t.Errorf("pi[0] = %g, want %g", pi[0], 5/5.1)
	}
}

func TestSteadyStateGTHSingleState(t *testing.T) {
	pi, err := SteadyStateGTH(NewDense(1, 1))
	if err != nil {
		t.Fatalf("SteadyStateGTH: %v", err)
	}
	if pi[0] != 1 {
		t.Errorf("pi = %v, want [1]", pi)
	}
}

func TestSteadyStateGTHReducibleFails(t *testing.T) {
	// State 1 unreachable-from and not-reaching state 0: elimination of
	// state 1 has no outgoing mass to lower states.
	q := NewDense(2, 2) // all-zero generator: two absorbing states
	if _, err := SteadyStateGTH(q); err == nil {
		t.Error("expected failure for reducible chain")
	}
}

// bigSteadyStateLU is the reference the GTH tests check against: π with
// πQ = 0 and Σπ = 1, from Qᵀ with its last equation replaced by the
// normalization, solved by Gaussian elimination with partial pivoting (an
// LU solve) in 256-bit floating point and rounded to float64 at the end.
// It shares no code and no float64 rounding with SteadyStateGTH.
func bigSteadyStateLU(q *Dense) []float64 {
	const prec = 256
	n, _ := q.Dims()
	a := make([][]*big.Float, n)
	for i := range a {
		a[i] = make([]*big.Float, n+1)
		for j := 0; j < n; j++ {
			v := q.At(j, i)
			if i == n-1 {
				v = 1
			}
			a[i][j] = new(big.Float).SetPrec(prec).SetFloat64(v)
		}
		a[i][n] = new(big.Float).SetPrec(prec)
	}
	a[n-1][n].SetFloat64(1)
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if new(big.Float).Abs(a[i][k]).Cmp(new(big.Float).Abs(a[p][k])) > 0 {
				p = i
			}
		}
		a[k], a[p] = a[p], a[k]
		for i := k + 1; i < n; i++ {
			l := new(big.Float).SetPrec(prec).Quo(a[i][k], a[k][k])
			for j := k; j <= n; j++ {
				a[i][j].Sub(a[i][j], new(big.Float).SetPrec(prec).Mul(l, a[k][j]))
			}
		}
	}
	x := make([]*big.Float, n)
	pi := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := new(big.Float).SetPrec(prec).Set(a[i][n])
		for j := i + 1; j < n; j++ {
			s.Sub(s, new(big.Float).SetPrec(prec).Mul(a[i][j], x[j]))
		}
		x[i] = s.Quo(s, a[i][i])
		pi[i], _ = x[i].Float64()
	}
	return pi
}

func TestGTHMatchesLU(t *testing.T) {
	// Stiff generator: rates spanning six orders of magnitude.
	q, _ := NewDenseFrom([][]float64{
		{-1e-3, 1e-3, 0},
		{0, -1e-4, 1e-4},
		{1e2, 0, -1e2},
	})
	gth, err := SteadyStateGTH(q)
	if err != nil {
		t.Fatalf("GTH: %v", err)
	}
	lu := bigSteadyStateLU(q)
	if !vecAlmostEqual(gth, lu, 1e-9) {
		t.Errorf("GTH %v != LU %v", gth, lu)
	}
}

func TestGTHMatchesLUProperty(t *testing.T) {
	f := func(seed uint32) bool {
		// Random irreducible generator: strictly positive off-diagonals.
		const n = 4
		q := NewDense(n, n)
		m := randMatrix(n, n, seed)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				rate := math.Abs(m.At(i, j)) + 0.01
				q.Set(i, j, rate)
				rowSum += rate
			}
			q.Set(i, i, -rowSum)
		}
		gth, err := SteadyStateGTH(q)
		if err != nil {
			return false
		}
		lu := bigSteadyStateLU(q)
		return vecAlmostEqual(gth, lu, 1e-8) && almostEqual(Sum(gth), 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateDTMC(t *testing.T) {
	p, _ := NewDenseFrom([][]float64{
		{0.5, 0.5},
		{0.25, 0.75},
	})
	pi, err := SteadyStateDTMC(p)
	if err != nil {
		t.Fatalf("SteadyStateDTMC: %v", err)
	}
	// Balance: pi0*0.5 = pi1*0.25 -> pi1 = 2*pi0 -> pi = (1/3, 2/3).
	if !vecAlmostEqual(pi, []float64{1.0 / 3, 2.0 / 3}, 1e-12) {
		t.Errorf("pi = %v, want [1/3 2/3]", pi)
	}
}

func TestSteadyStateDTMCValidation(t *testing.T) {
	bad, _ := NewDenseFrom([][]float64{
		{0.5, 0.4}, // row does not sum to 1
		{0.25, 0.75},
	})
	if _, err := SteadyStateDTMC(bad); err == nil {
		t.Error("expected ErrNotStochastic")
	}
	neg, _ := NewDenseFrom([][]float64{
		{1.5, -0.5},
		{0.25, 0.75},
	})
	if _, err := SteadyStateDTMC(neg); err == nil {
		t.Error("expected error for negative entries")
	}
}

func TestCheckGenerator(t *testing.T) {
	good := birthDeathGenerator(3, 1, 2)
	if err := CheckGenerator(good, 1e-12); err != nil {
		t.Errorf("CheckGenerator(good) = %v", err)
	}
	bad := good.Clone()
	bad.Set(0, 1, -1)
	if err := CheckGenerator(bad, 1e-12); err == nil {
		t.Error("expected error for negative off-diagonal")
	}
	unbalanced := good.Clone()
	unbalanced.Add(0, 0, 0.5)
	if err := CheckGenerator(unbalanced, 1e-12); err == nil {
		t.Error("expected error for non-zero row sum")
	}
	if err := CheckGenerator(NewDense(2, 3), 1e-12); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

// TestCheckGeneratorTypedErrors: every violation is a *SolveError at the
// generator site, classified, with the offending entry or row; a NaN rate
// fails too, though it makes no row sum exceed the tolerance.
func TestCheckGeneratorTypedErrors(t *testing.T) {
	good := birthDeathGenerator(3, 1, 2)
	for _, c := range []struct {
		name  string
		i, j  int
		v     float64
		kind  FailureKind
		index int
	}{
		{"nan", 1, 2, math.NaN(), FailNaN, 5},
		{"inf", 0, 1, math.Inf(1), FailInf, 1},
		{"negative", 2, 1, -2, FailGenerator, 7},
		{"row sum", 1, 1, -1, FailGenerator, 1},
	} {
		q := good.Clone()
		q.Set(c.i, c.j, c.v)
		se, ok := AsSolveError(CheckGenerator(q, 1e-12))
		if !ok || se.Site != "linalg.generator" || se.Kind != c.kind || se.Index != c.index {
			t.Errorf("%s: err = %v, want a %s error at index %d", c.name, se, c.kind, c.index)
		}
	}
}

func TestNormalizeAndSumAndDot(t *testing.T) {
	v := []float64{1, 3}
	Normalize(v)
	if !vecAlmostEqual(v, []float64{0.25, 0.75}, 1e-15) {
		t.Errorf("Normalize = %v", v)
	}
	if got := Sum(v); !almostEqual(got, 1, 1e-15) {
		t.Errorf("Sum = %g", got)
	}
	d, err := Dot([]float64{1, 2}, []float64{3, 4})
	if err != nil || d != 11 {
		t.Errorf("Dot = %g, %v; want 11", d, err)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Dot should reject length mismatch")
	}
	// Normalizing the zero vector must not divide by zero.
	z := []float64{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("Normalize(zero) = %v", z)
	}
}
