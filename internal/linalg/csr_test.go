package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomGenerator builds a random irreducible CTMC generator shaped like a
// reachability graph: every state has a handful of successors (a ring edge
// guarantees irreducibility, plus 0..3 random extras), rates spread over
// several orders of magnitude like the paper's repair-vs-failure ratios.
func randomGenerator(rng *rand.Rand, n int) *Dense {
	q := NewDense(n, n)
	for i := 0; i < n; i++ {
		addRate := func(j int) {
			rate := math.Pow(10, -3+4*rng.Float64()) // 1e-3 .. 1e1
			q.Add(i, j, rate)
			q.Add(i, i, -rate)
		}
		addRate((i + 1) % n)
		for extra := rng.Intn(3); extra > 0; extra-- {
			j := rng.Intn(n)
			if j != i {
				addRate(j)
			}
		}
	}
	return q
}

func TestCSRFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 25} {
		q := randomGenerator(rng, n)
		c := CSRFromDense(q)
		back := c.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if back.At(i, j) != q.At(i, j) {
					t.Fatalf("n=%d: round trip (%d,%d) = %v, want %v", n, i, j, back.At(i, j), q.At(i, j))
				}
				if c.At(i, j) != q.At(i, j) {
					t.Fatalf("n=%d: At(%d,%d) = %v, want %v", n, i, j, c.At(i, j), q.At(i, j))
				}
			}
		}
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for rep := 0; rep < 20; rep++ {
		n := 1 + rng.Intn(30)
		q := randomGenerator(rng, n)
		c := CSRFromDense(q)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}

		// Reference products straight from the dense entries.
		wantAx := make([]float64, n)
		wantXA := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				wantAx[i] += q.At(i, j) * x[j]
				wantXA[j] += x[i] * q.At(i, j)
			}
		}

		gotAx := make([]float64, n)
		if err := c.MulVecInto(gotAx, x); err != nil {
			t.Fatalf("MulVecInto: %v", err)
		}
		gotXA := make([]float64, n)
		if err := CSRFromDenseT(q).MulVecInto(gotXA, x); err != nil {
			t.Fatalf("transposed MulVecInto: %v", err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(gotAx[i]-wantAx[i]) > 1e-12*(1+math.Abs(wantAx[i])) {
				t.Fatalf("rep %d: (A x)[%d] = %v, want %v", rep, i, gotAx[i], wantAx[i])
			}
			if math.Abs(gotXA[i]-wantXA[i]) > 1e-12*(1+math.Abs(wantXA[i])) {
				t.Fatalf("rep %d: (x A)[%d] = %v, want %v", rep, i, gotXA[i], wantXA[i])
			}
		}
	}
}

// TestMulCSRIntoMatchesDense: a product through Dense.MulCSRInto in
// transposed form, (a q)ᵀ = qᵀ aᵀ with qᵀ in CSR form, agrees with the
// dense product to rounding.
func TestMulCSRIntoMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for rep := 0; rep < 10; rep++ {
		n := 2 + rng.Intn(20)
		q := randomGenerator(rng, n)
		ct := CSRFromDenseT(q)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		want := NewDense(n, n)
		if err := want.MulInto(a, q); err != nil {
			t.Fatalf("MulInto: %v", err)
		}
		gotT := NewDense(n, n)
		if err := gotT.MulCSRInto(ct, a.Transpose()); err != nil {
			t.Fatalf("MulCSRInto: %v", err)
		}
		got := gotT.Transpose()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12*(1+math.Abs(want.At(i, j))) {
					t.Fatalf("rep %d: (%d,%d) = %v, want %v", rep, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestMaxAbsDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := randomGenerator(rng, 15)
	c := CSRFromDense(q)
	var want float64
	for i := 0; i < 15; i++ {
		if d := math.Abs(q.At(i, i)); d > want {
			want = d
		}
	}
	if got := c.MaxAbsDiag(); got != want {
		t.Fatalf("MaxAbsDiag = %v, want %v", got, want)
	}
}

// TestSteadyStateGSMatchesGTH: the property at the heart of the sparse
// path — on random reachability-shaped generators the Gauss-Seidel
// stationary vector agrees with dense GTH elimination to 1e-12.
func TestSteadyStateGSMatchesGTH(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	for rep := 0; rep < 25; rep++ {
		n := 1 + rng.Intn(60)
		q := randomGenerator(rng, n)
		want, err := SteadyStateGTH(q)
		if err != nil {
			t.Fatalf("rep %d: GTH: %v", rep, err)
		}

		// Transpose pattern: GS consumes incoming edges per state.
		qt := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				qt.Set(j, i, q.At(i, j))
			}
		}
		got := make([]float64, n)
		if _, _, _, err := ws.SteadyStateGS(nil, CSRFromDense(qt), got, nil); err != nil {
			t.Fatalf("rep %d (n=%d): GS: %v", rep, n, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("rep %d (n=%d): pi[%d] = %.17g, want %.17g (diff %g)",
					rep, n, i, got[i], want[i], got[i]-want[i])
			}
		}
	}
}

// denseUniformized is the dense-input reference for the CSR series: P =
// I + Q/rate is formed as a dense matrix and each term is a dense vector
// product. With integral set it returns pi Integral_0^t e^{Qs} ds through
// the tail weights P[K > k]/rate instead of pi e^{Qt}, without the CSR
// kernel's mass rescale.
func denseUniformized(q *Dense, pi []float64, t float64, integral bool) []float64 {
	n, _ := q.Dims()
	out := make([]float64, n)
	rate := UniformizationRate(q.MaxAbsDiag())
	if rate == 0 || t == 0 {
		for i, v := range pi {
			if integral {
				v *= t
			}
			out[i] = v
		}
		return out
	}
	p := q.Clone()
	p.Scale(1 / rate)
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	weights, right := PoissonWeights(rate*t, 1e-12)
	cur := append([]float64(nil), pi...)
	acc := 0.0
	for k := 0; k <= right; k++ {
		w := weights[k]
		if integral {
			acc += weights[k]
			w = math.Max(1-acc, 0) / rate
		}
		for i := range out {
			out[i] += w * cur[i]
		}
		cur, _ = p.VecMul(cur)
	}
	return out
}

// TestUniformizedCSRMatchesDense: the matrix-free transient kernels agree
// with the dense-input series to 1e-12 on random generators.
func TestUniformizedCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ws := NewWorkspace()
	for rep := 0; rep < 15; rep++ {
		n := 1 + rng.Intn(40)
		q := randomGenerator(rng, n)
		ct := CSRFromDenseT(q)
		pi := make([]float64, n)
		pi[rng.Intn(n)] = 1
		for _, horizon := range []float64{0, 0.7, 13} {
			wantP := denseUniformized(q, pi, horizon, false)
			gotP, err := seriesCSR(ws, ct, pi, horizon, 1e-12, false, nil)
			if err != nil {
				t.Fatalf("csr power: %v", err)
			}
			wantU := denseUniformized(q, pi, horizon, true)
			gotU, err := seriesCSR(ws, ct, pi, horizon, 1e-12, true, nil)
			if err != nil {
				t.Fatalf("csr integral: %v", err)
			}
			for i := 0; i < n; i++ {
				if math.Abs(gotP[i]-wantP[i]) > 1e-12 {
					t.Fatalf("rep %d t=%g: power[%d] = %.17g, want %.17g", rep, horizon, i, gotP[i], wantP[i])
				}
				if math.Abs(gotU[i]-wantU[i]) > 1e-12*(1+horizon) {
					t.Fatalf("rep %d t=%g: integral[%d] = %.17g, want %.17g", rep, horizon, i, gotU[i], wantU[i])
				}
			}
		}
	}
}

// TestWorkspaceCSRPooling: released shells are reused (same backing arrays)
// and come back with zeroed values.
func TestWorkspaceCSRPooling(t *testing.T) {
	ws := NewWorkspace()
	c := ws.CSR(3, 3, 5)
	c.Vals[0] = 42
	c.ColIdx[0] = 2
	ws.PutCSR(c)
	again := ws.CSR(3, 3, 5)
	if again != c {
		t.Fatal("pooled CSR not reused")
	}
	if again.Vals[0] != 0 {
		t.Fatalf("reused Vals not zeroed: %v", again.Vals[0])
	}
	other := ws.CSR(3, 3, 6)
	if other == c {
		t.Fatal("pool returned a shell with the wrong nnz")
	}
}

// TestSteadyStateGSNoAlloc: with a warmed workspace and caller-owned
// destination, repeated GS solves must be allocation-free.
func TestSteadyStateGSNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := randomGenerator(rng, 30)
	qt := NewDense(30, 30)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			qt.Set(j, i, q.At(i, j))
		}
	}
	c := CSRFromDense(qt)
	dst := make([]float64, 30)
	ws := NewWorkspace()
	if _, _, _, err := ws.SteadyStateGS(nil, c, dst, nil); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, err := ws.SteadyStateGS(nil, c, dst, nil); err != nil {
			t.Fatalf("SteadyStateGS: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("allocations = %v, want 0", allocs)
	}
}

// BenchmarkSteadyStateGSNoAlloc guards the allocation-free property in
// benchmark form; -benchmem must report 0 allocs/op.
func BenchmarkSteadyStateGSNoAlloc(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	q := randomGenerator(rng, 30)
	qt := NewDense(30, 30)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			qt.Set(j, i, q.At(i, j))
		}
	}
	c := CSRFromDense(qt)
	dst := make([]float64, 30)
	ws := NewWorkspace()
	if _, _, _, err := ws.SteadyStateGS(nil, c, dst, nil); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ws.SteadyStateGS(nil, c, dst, nil); err != nil {
			b.Fatal(err)
		}
	}
}
