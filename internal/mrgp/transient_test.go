package mrgp

import (
	"math"
	"testing"

	"nvrel/internal/linalg"
)

// randomGenerator builds a small irreducible generator from a seed.
func randomGenerator(n int, seed uint64) *linalg.Dense {
	q := linalg.NewDense(n, n)
	s := seed*2654435769 + 1
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1000)/1000 + 0.05
	}
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r := next()
			q.Set(i, j, r)
			row += r
		}
		q.Set(i, i, -row)
	}
	return q
}

// TestTransientPairMatchesRowUniformization compares the doubled matrices
// against the direct row-by-row uniformization (the CSR vector series) for
// horizons long enough to force several doublings.
func TestTransientPairMatchesRowUniformization(t *testing.T) {
	var ws *linalg.Workspace
	for _, horizon := range []float64{0.5, 3, 40, 300} {
		q := randomGenerator(5, 7)
		l, rate := ws.SeriesLayout(linalg.CSRFromDenseT(q)), linalg.UniformizationRate(q.MaxAbsDiag())
		tm, um, err := transientPair(nil, q, horizon)
		if err != nil {
			t.Fatalf("transientPair(%g): %v", horizon, err)
		}
		for i := 0; i < 5; i++ {
			basis := make([]float64, 5)
			basis[i] = 1
			tRow, uRow := make([]float64, 5), make([]float64, 5)
			if err := ws.UniformizedSELL(l, basis, horizon, rate, 1e-13, tRow, uRow); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 5; j++ {
				if math.Abs(tm.At(i, j)-tRow[j]) > 1e-8 {
					t.Errorf("t=%g: T[%d,%d] = %g, want %g", horizon, i, j, tm.At(i, j), tRow[j])
				}
				if math.Abs(um.At(i, j)-uRow[j]) > 1e-7 {
					t.Errorf("t=%g: U[%d,%d] = %g, want %g", horizon, i, j, um.At(i, j), uRow[j])
				}
			}
		}
	}
}

func TestTransientPairZeroTime(t *testing.T) {
	q := randomGenerator(3, 1)
	tm, um, err := transientPair(nil, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			wantT := 0.0
			if i == j {
				wantT = 1
			}
			if tm.At(i, j) != wantT {
				t.Errorf("T[%d,%d] = %g", i, j, tm.At(i, j))
			}
			if um.At(i, j) != 0 {
				t.Errorf("U[%d,%d] = %g", i, j, um.At(i, j))
			}
		}
	}
}

func TestTransientPairFrozenChain(t *testing.T) {
	q := linalg.NewDense(2, 2) // zero generator
	tm, um, err := transientPair(nil, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tm.At(0, 0) != 1 || tm.At(0, 1) != 0 {
		t.Errorf("T = %v", tm)
	}
	if um.At(0, 0) != 5 || um.At(1, 1) != 5 {
		t.Errorf("U = %v", um)
	}
}

// TestTransientPairRowsStochastic checks the structural invariants: rows
// of T sum to one and rows of U sum to the horizon.
func TestTransientPairRowsStochastic(t *testing.T) {
	q := randomGenerator(6, 11)
	const horizon = 120.0
	tm, um, err := transientPair(nil, q, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		var ts, us float64
		for j := 0; j < 6; j++ {
			ts += tm.At(i, j)
			us += um.At(i, j)
		}
		if math.Abs(ts-1) > 1e-9 {
			t.Errorf("row %d of T sums to %g", i, ts)
		}
		if math.Abs(us-horizon) > 1e-6 {
			t.Errorf("row %d of U sums to %g, want %g", i, us, horizon)
		}
	}
}

// TestSquaringsOccupancy: x U(t) carried through the retained squarings
// agrees with x times the materialized U(t); the frozen chains (rate 0
// and horizon 0) agree bit for bit.
func TestSquaringsOccupancy(t *testing.T) {
	ws := linalg.NewWorkspace()
	cases := []struct {
		name    string
		q       *linalg.Dense
		horizon float64
		exact   bool
	}{
		{"rate-0", linalg.NewDense(3, 3), 5, true},
		{"horizon-0", randomGenerator(4, 3), 0, true},
		{"base-step", randomGenerator(5, 7), 0.5, false},
		{"doubled", randomGenerator(5, 7), 300, false},
		{"doubled-long", randomGenerator(6, 11), 5000, false},
	}
	for _, c := range cases {
		n, _ := c.q.Dims()
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(i+2)
		}
		sq, _, err := newSquarings(ws, c.q, c.horizon, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := make([]float64, n)
		err = sq.occupancy(ws, linalg.CSRFromDenseT(c.q), x, got)
		sq.release(ws)
		if err != nil {
			t.Fatalf("%s occupancy: %v", c.name, err)
		}
		_, um, err := transientPair(ws, c.q, c.horizon)
		if err != nil {
			t.Fatalf("%s pair: %v", c.name, err)
		}
		want, err := um.VecMul(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if c.exact {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Errorf("%s: occupancy[%d] = %.17g, want exactly %.17g", c.name, j, got[j], want[j])
				}
			} else if d := math.Abs(got[j] - want[j]); d > 1e-14*math.Max(1, math.Abs(want[j])) {
				t.Errorf("%s: occupancy[%d] = %.17g, want %.17g (diff %.3g)", c.name, j, got[j], want[j], d)
			}
		}
	}
}

// TestUniformizedPairMatchesUntransposedBits: the base series, run
// transposed with its T and U updates fused into the lane stores, gives
// the bits of the untransposed series it replaced: T += w_k P^k and
// U += (tail_k/rate) P^k by AddScaled, with P^{k+1} summed over column j
// of P in ascending row order from +0. A dense and a sparse generator,
// on whichever lane body the host runs.
func TestUniformizedPairMatchesUntransposedBits(t *testing.T) {
	sparse := linalg.NewDense(23, 23)
	for i := 0; i < 23; i++ {
		for _, j := range []int{(i + 1) % 23, (i * 7) % 23} {
			if j != i {
				sparse.Add(i, j, 0.1+float64((i*13+j)%17)/9)
				sparse.Add(i, i, -(0.1 + float64((i*13+j)%17)/9))
			}
		}
	}
	for _, c := range []struct {
		name string
		q    *linalg.Dense
	}{{"dense", randomGenerator(9, 4)}, {"sparse", sparse}} {
		n, _ := c.q.Dims()
		rate := linalg.UniformizationRate(c.q.MaxAbsDiag())
		const horizon = 7.3
		p := c.q.Clone()
		p.Scale(1 / rate)
		for i := 0; i < n; i++ {
			p.Add(i, i, 1)
		}
		weights, right := linalg.PoissonWeights(rate*horizon, truncationEpsilon)
		wantT, wantU, power := linalg.NewDense(n, n), linalg.NewDense(n, n), linalg.Identity(n)
		acc := 0.0
		for k := 0; k <= right; k++ {
			acc += weights[k]
			tail := max(1-acc, 0)
			wantT.AddScaled(power, weights[k])
			wantU.AddScaled(power, tail/rate)
			next := linalg.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for r := 0; r < n; r++ {
						if p.At(r, j) != 0 || r == j {
							s += power.At(i, r) * p.At(r, j)
						}
					}
					next.Set(i, j, s)
				}
			}
			power = next
		}
		tm, um, err := uniformizedPair(nil, c.q, rate, horizon, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(tm.At(i, j)) != math.Float64bits(wantT.At(i, j)) {
					t.Fatalf("%s T[%d][%d] = %v, untransposed series %v", c.name, i, j, tm.At(i, j), wantT.At(i, j))
				}
				if math.Float64bits(um.At(i, j)) != math.Float64bits(wantU.At(i, j)) {
					t.Fatalf("%s U[%d][%d] = %v, untransposed series %v", c.name, i, j, um.At(i, j), wantU.At(i, j))
				}
			}
		}
	}
}
