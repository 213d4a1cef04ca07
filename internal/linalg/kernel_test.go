package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The gather kernels (Dense.MulInto, Dense.MulCSCInto, CSR.MulVecInto on
// a transpose) replaced row-scatter loops and promise the scatter's bits.
// The scatter forms are kept here verbatim as the references.

func (out *Dense) scatterMulInto(a, b *Dense) error {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		return ErrDimensionMismatch
	}
	if out == a || out == b {
		return ErrDimensionMismatch
	}
	out.Zero()
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			v := a.data[i*a.cols+k]
			if v == 0 {
				continue
			}
			rowK := b.data[k*b.cols : (k+1)*b.cols]
			outRow := out.data[i*out.cols : (i+1)*out.cols]
			for j, w := range rowK {
				outRow[j] += v * w
			}
		}
	}
	return nil
}

func (c *CSR) scatterVecMulInto(dst, x []float64) error {
	if len(x) != c.rows || len(dst) != c.cols {
		return ErrDimensionMismatch
	}
	clear(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			dst[c.ColIdx[k]] += xi * c.Vals[k]
		}
	}
	return nil
}

func (out *Dense) scatterMulCSRInto(a *Dense, b *CSR) error {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		return ErrDimensionMismatch
	}
	if out == a {
		return ErrDimensionMismatch
	}
	out.Zero()
	for i := 0; i < a.rows; i++ {
		aRow := a.data[i*a.cols : (i+1)*a.cols]
		outRow := out.data[i*out.cols : (i+1)*out.cols]
		for kk, v := range aRow {
			if v == 0 {
				continue
			}
			for k := b.RowPtr[kk]; k < b.RowPtr[kk+1]; k++ {
				outRow[b.ColIdx[k]] += v * b.Vals[k]
			}
		}
	}
	return nil
}

// uniformizedWithZeroDiag returns P = I + Q/rate for a random generator
// with every fifth diagonal entry forced to zero, the case where the
// scatter skipped terms the gathers add as signed zeros.
func uniformizedWithZeroDiag(rng *rand.Rand, n int) *Dense {
	q := randomGenerator(rng, n)
	var rate float64
	for i := 0; i < n; i++ {
		rate = math.Max(rate, -q.At(i, i))
	}
	p := q.Clone()
	p.Scale(1 / (rate * 1.02))
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
		if i%5 == 0 {
			p.Set(i, i, 0)
		}
	}
	return p
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), scatter reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGatherKernelsMatchScatterBits: on every power P^k of a random
// uniformized generator — P^0 and P^1 as sparse as P, P^3 partly filled,
// P^40 dense — each gather kernel reproduces its scatter reference bit
// for bit, odd sizes (a single-row tail, a column tail) included.
func TestGatherKernelsMatchScatterBits(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 7, 70, 71, 140} {
		p := uniformizedWithZeroDiag(rng, n)
		pc, pt := CSRFromDense(p), CSRFromDenseT(p)
		power := Identity(n)
		for k := 0; k <= 40; k++ {
			if k == 0 || k == 1 || k == 3 || k == 40 {
				name := fmt.Sprintf("n=%d k=%d", n, k)
				want, got := NewDense(n, n), NewDense(n, n)

				if err := want.scatterMulInto(power, p); err != nil {
					t.Fatal(err)
				}
				if err := got.MulInto(power, p); err != nil {
					t.Fatal(err)
				}
				sameBits(t, name+" MulInto(P^k, P)", got.data, want.data)
				if err := want.scatterMulInto(power, power); err != nil {
					t.Fatal(err)
				}
				if err := got.MulInto(power, power); err != nil {
					t.Fatal(err)
				}
				sameBits(t, name+" MulInto(P^k, P^k)", got.data, want.data)

				if err := want.scatterMulCSRInto(power, pc); err != nil {
					t.Fatal(err)
				}
				if err := got.MulCSCInto(power, pt); err != nil {
					t.Fatal(err)
				}
				sameBits(t, name+" MulCSCInto", got.data, want.data)

				for i := 0; i < n; i++ {
					x := power.data[i*n : (i+1)*n]
					wantV, gotV := make([]float64, n), make([]float64, n)
					if err := pc.scatterVecMulInto(wantV, x); err != nil {
						t.Fatal(err)
					}
					if err := pt.MulVecInto(gotV, x); err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("%s MulVecInto row %d", name, i), gotV, wantV)
				}
			}
			next := NewDense(n, n)
			if err := next.scatterMulInto(power, p); err != nil {
				t.Fatal(err)
			}
			power = next
		}
	}
}

// TestTransposeCSRKeepsScatterOrder: a CSR with unsorted rows and
// repeated columns (the clock branching matrix can list one successor
// twice) transposes to a gather operand that adds x * c's terms in the
// scatter's order, and the transpose of a transpose is the original.
func TestTransposeCSRKeepsScatterOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 23
	c := NewCSR(n, n, 4*n)
	for i := 0; i < n; i++ {
		c.RowPtr[i] = 4 * i
		for e := 0; e < 4; e++ {
			c.ColIdx[4*i+e] = rng.Intn(n / 3) // few distinct columns: repeats
			c.Vals[4*i+e] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	c.RowPtr[n] = 4 * n
	x := make([]float64, n)
	for i := range x {
		if i%4 != 0 {
			x[i] = rng.NormFloat64()
		}
	}
	want, got := make([]float64, n), make([]float64, n)
	if err := c.scatterVecMulInto(want, x); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ct := ws.TransposeCSR(c)
	if err := ct.MulVecInto(got, x); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "x * c", got, want)
	back := ws.TransposeCSR(ct)
	for i := 0; i < n; i++ {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		if back.RowPtr[i] != lo || back.RowPtr[i+1] != hi {
			t.Fatalf("row %d: double transpose spans [%d,%d), want [%d,%d)", i, back.RowPtr[i], back.RowPtr[i+1], lo, hi)
		}
		// The double transpose is the row stably sorted by column.
		type entry struct {
			col int
			val float64
		}
		row := make([]entry, 0, hi-lo)
		for k := lo; k < hi; k++ {
			row = append(row, entry{c.ColIdx[k], c.Vals[k]})
		}
		slices.SortStableFunc(row, func(a, b entry) int { return a.col - b.col })
		for k, e := range row {
			if back.ColIdx[lo+k] != e.col || back.Vals[lo+k] != e.val {
				t.Fatalf("row %d entry %d: double transpose has (%d, %v), want (%d, %v)",
					i, k, back.ColIdx[lo+k], back.Vals[lo+k], e.col, e.val)
			}
		}
	}
}

// benchUniformized is P = I + Q/rate for a seeded random generator.
func benchUniformized(n int) *Dense {
	q := randomGenerator(rand.New(rand.NewSource(int64(n))), n)
	var rate float64
	for i := 0; i < n; i++ {
		rate = math.Max(rate, -q.At(i, i))
	}
	p := q.Clone()
	p.Scale(1 / (rate * 1.02))
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	return p
}

// BenchmarkMulIntoNoAlloc times the dense squaring kernel of the MRGP
// doubling at the six-version size and twice it; it must not allocate.
func BenchmarkMulIntoNoAlloc(b *testing.B) {
	for _, n := range []int{70, 140} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randMatrix(n, n, uint32(n))
			out := NewDense(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := out.MulInto(a, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulCSCNoAlloc times one base-series term, a dense power times
// the uniformized generator; it must not allocate.
func BenchmarkMulCSCNoAlloc(b *testing.B) {
	for _, n := range []int{70, 140} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randMatrix(n, n, uint32(n))
			pt := CSRFromDenseT(benchUniformized(n))
			out := NewDense(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := out.MulCSCInto(a, pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
