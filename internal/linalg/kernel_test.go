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

// threePassSeries is the loop both uniformization series ran before the
// fused fixed-width step, kept verbatim as its bit reference: per term an
// axpy into dst, a CSR.MulVecInto into tmp and an in-place update of cur.
// It adds sum_k coef[k] * pi * (I + Q/rate)^k into dst.
func threePassSeries(qt *CSR, pi, coef []float64, invRate float64, dst []float64) error {
	n := len(pi)
	cur := make([]float64, n)
	tmp := make([]float64, n)
	copy(cur, pi)
	right := len(coef) - 1
	for k := 0; k <= right; k++ {
		w := coef[k]
		for i := range dst {
			dst[i] += w * cur[i]
		}
		if k == right {
			break
		}
		if err := qt.MulVecInto(tmp, cur); err != nil {
			return err
		}
		for i := range cur {
			cur[i] += tmp[i] * invRate
		}
	}
	return nil
}

// randomWidthCSR returns the transpose of a random generator in CSR form
// whose rows hold 1..maxWidth entries, at least one row exactly maxWidth:
// the diagonal plus distinct columns in ascending order, every fourth
// diagonal a stored zero. With hub set, row 0 holds all n columns.
func randomWidthCSR(rng *rand.Rand, n, maxWidth int, hub bool) *CSR {
	var colIdx []int
	var vals []float64
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		width := 1 + rng.Intn(maxWidth)
		if i == n/2 {
			width = maxWidth
		}
		cols := []int{i}
		for _, j := range rng.Perm(n) {
			if j != i && (len(cols) < width || hub && i == 0) {
				cols = append(cols, j)
			}
		}
		slices.Sort(cols)
		for _, j := range cols {
			v := math.Pow(10, -3+4*rng.Float64())
			if j == i {
				v = -3 * v
				if i%4 == 0 {
					v = 0
				}
			}
			colIdx = append(colIdx, j)
			vals = append(vals, v)
		}
		rowPtr[i+1] = len(colIdx)
	}
	c := NewCSR(n, n, len(colIdx))
	copy(c.RowPtr, rowPtr)
	copy(c.ColIdx, colIdx)
	copy(c.Vals, vals)
	return c
}

// signedVector is an Arnoldi-like start vector: signed entries over
// several magnitudes, with exact zeros of both signs.
func signedVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch i % 7 {
		case 3:
			x[i] = 0
		case 5:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return x
}

// TestFusedSeriesMatchesThreePassBits: the fused chunk step reproduces
// the three-pass series bit for bit. The generators cover every row
// width 1..7, renumbered into chunks of 8 rows padded to the chunk's
// widest, with stored zero diagonals in all of them, plus a hub row as
// wide as the model. Start vectors are signed, and the series stop at
// P^0, P^1, P^3 and P^40; both public kernels are then checked against
// the reference at full Poisson length. The six-version E12 generators
// get the same check in TestFusedSeriesMatchesThreePassBitsE12.
func TestFusedSeriesMatchesThreePassBits(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	type tc struct {
		n, maxWidth int
		hub         bool
	}
	var cases []tc
	for w := 1; w <= 7; w++ {
		cases = append(cases, tc{7, w, false}, tc{50, w, false}, tc{71, w, false})
	}
	cases = append(cases, tc{40, 3, true})
	for _, c := range cases {
		qt := randomWidthCSR(rng, c.n, c.maxWidth, c.hub)
		l := checkChunkLayout(t, qt)
		if c.hub && (l.perm[c.n-1] != 0 || l.widths[len(l.widths)-1] != int32(c.n)) {
			t.Fatalf("hub n=%d: last series row is state %d in a chunk %d wide, want the hub row 0 in a chunk %d wide",
				c.n, l.perm[c.n-1], l.widths[len(l.widths)-1], c.n)
		}
		checkFusedMatchesThreePass(t, rng, fmt.Sprintf("n=%d width=%d hub=%v", c.n, c.maxWidth, c.hub), qt)
	}
}

// checkChunkLayout lays qt out and checks the SELL-8 layout: the states
// renumbered stably by stored width, one chunk per 8 series rows as wide
// as its widest row (at least 1), each row's stored entries in storage
// order with series-numbered columns, and every other slot a pad (its
// own row, +0). It returns the layout.
func checkChunkLayout(t *testing.T, qt *CSR) *sellRows {
	t.Helper()
	n, _ := qt.Dims()
	width := func(i int) int { return qt.RowPtr[i+1] - qt.RowPtr[i] }
	l := NewWorkspace().sellRows(qt)
	if len(l.perm) != n {
		t.Fatalf("n=%d: %d series rows", n, len(l.perm))
	}
	series := make([]int32, n)
	seen := make([]bool, n)
	for p, s := range l.perm {
		i := int(s)
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("n=%d: series row %d is state %d, not a permutation", n, p, i)
		}
		seen[i], series[i] = true, int32(p)
		if p == 0 {
			continue
		}
		if prev := int(l.perm[p-1]); width(prev) > width(i) || width(prev) == width(i) && prev > i {
			t.Fatalf("n=%d: series rows %d, %d are states %d (width %d), %d (width %d): not stable by width",
				n, p-1, p, prev, width(prev), i, width(i))
		}
	}
	if want := (n + chunk - 1) / chunk; len(l.widths) != want {
		t.Fatalf("n=%d: %d chunks, want %d", n, len(l.widths), want)
	}
	off := 0
	for c, w := range l.widths {
		widest := 1
		for p := c * chunk; p < min(n, (c+1)*chunk); p++ {
			widest = max(widest, width(int(l.perm[p])))
		}
		if int(w) != widest {
			t.Fatalf("n=%d: chunk %d is %d wide, its widest row %d", n, c, w, widest)
		}
		for lane := 0; lane < chunk; lane++ {
			p := c*chunk + lane
			stored := 0
			if p < n {
				i := int(l.perm[p])
				stored = width(i)
				for k := 0; k < stored; k++ {
					q, slot := qt.RowPtr[i]+k, off+k*chunk+lane
					if l.idx[slot] != series[qt.ColIdx[q]] || math.Float64bits(l.vals[slot]) != math.Float64bits(qt.Vals[q]) {
						t.Fatalf("n=%d: row %d slot %d holds (%d, %v), want (%d, %v)",
							n, p, k, l.idx[slot], l.vals[slot], series[qt.ColIdx[q]], qt.Vals[q])
					}
				}
			}
			for k := stored; k < int(w); k++ {
				slot := off + k*chunk + lane
				if l.idx[slot] != int32(p) || math.Float64bits(l.vals[slot]) != 0 {
					t.Fatalf("n=%d: pad slot %d of row %d holds (%d, %v), want (%d, +0)", n, k, p, l.idx[slot], l.vals[slot], p)
				}
			}
		}
		off += int(w) * chunk
	}
	if len(l.idx) != off || len(l.vals) != off {
		t.Fatalf("n=%d: %d index and %d value slots, chunks hold %d", n, len(l.idx), len(l.vals), off)
	}
	return l
}

// TestSeriesBodiesMatchGoBits: every series body this host supports runs
// a term bit for bit like the portable chunksGo, on layouts with chunk
// widths 1-12, sizes with and without a partial last chunk, with and
// without a hub row, stored values of +0, -0 and subnormal magnitude,
// and start and accumulator vectors of mixed sign with subnormal entries.
func TestSeriesBodiesMatchGoBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bodies := hostBodies()
	for _, b := range bodies {
		t.Logf("host body %s", b.name)
	}
	sprinkle := func(v []float64) {
		for k := range v {
			switch rng.Intn(8) {
			case 0:
				v[k] = math.Copysign(0, -1)
			case 1:
				v[k] = 0
			case 2:
				v[k] = math.Copysign(rng.Float64()*0x1p-1022, rng.NormFloat64())
			}
		}
	}
	for _, n := range []int{1, 7, 9, 70, 71} {
		for w := 1; w <= 12; w++ {
			for _, hub := range []bool{false, true} {
				qt := randomWidthCSR(rng, n, min(w, n), hub)
				sprinkle(qt.Vals)
				l := NewWorkspace().sellRows(qt)
				size := len(l.widths) * chunk
				x, dst0 := signedVector(rng, size), signedVector(rng, size)
				sprinkle(x)
				sprinkle(dst0)
				weight, invRate := rng.Float64(), 1/(1+rng.Float64())
				wantNext, wantDst := make([]float64, size), slices.Clone(dst0)
				chunksGo(l.idx, l.vals, l.widths, x, wantNext, wantDst, weight, invRate)
				for _, b := range bodies {
					name := fmt.Sprintf("%s n=%d width=%d hub=%v", b.name, n, w, hub)
					next, dst := make([]float64, size), slices.Clone(dst0)
					b.run(l.idx, l.vals, l.widths, x, next, dst, weight, invRate)
					sameBits(t, name+" next", next, wantNext)
					sameBits(t, name+" dst", dst, wantDst)
				}
			}
		}
	}
}

// checkFusedMatchesThreePass checks ws.series and both public kernels on
// qt against threePassSeries bit for bit, from a signed start vector.
func checkFusedMatchesThreePass(t *testing.T, rng *rand.Rand, name string, qt *CSR) {
	t.Helper()
	n, _ := qt.Dims()
	ws := NewWorkspace()
	rate := 1.05 * UniformizationRate(qt.MaxAbsDiag())
	pi := signedVector(rng, n)
	for _, terms := range []int{1, 2, 4, 41} {
		coef := make([]float64, terms)
		for k := range coef {
			coef[k] = rng.Float64()
		}
		want, got := make([]float64, n), make([]float64, n)
		if err := threePassSeries(qt, pi, coef, 1/rate, want); err != nil {
			t.Fatal(err)
		}
		ws.series(qt, pi, coef, 1/rate, got)
		sameBits(t, fmt.Sprintf("%s P^%d", name, terms-1), got, want)
	}

	const tau = 4.0
	weights, right := PoissonWeights(rate*tau, 1e-12)
	want := make([]float64, n)
	if err := threePassSeries(qt, pi, weights[:right+1], 1/rate, want); err != nil {
		t.Fatal(err)
	}
	got, err := ws.UniformizedPowerCSR(qt, pi, tau, rate, 1e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, name+" UniformizedPowerCSR", got, want)

	invRate := 1 / rate
	tail := make([]float64, right+1)
	acc := 0.0
	for k := 0; k <= right; k++ {
		acc += weights[k]
		tail[k] = 1 - acc
		if tail[k] < 0 {
			tail[k] = 0
		}
		tail[k] *= invRate
	}
	clear(want)
	if err := threePassSeries(qt, pi, tail, invRate, want); err != nil {
		t.Fatal(err)
	}
	// A signed start vector has no unit mass, so the kernel's
	// truncation rescale (applied only within 1e-6 of the exact
	// mass t) leaves both results as the series produced them.
	got, err = ws.UniformizedIntegralCSR(qt, pi, tau, rate, 1e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, name+" UniformizedIntegralCSR", got, want)
}
