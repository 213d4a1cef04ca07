package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The gather and lane kernels (Dense.MulInto, Dense.MulCSRInto on
// transposes, Dense.VecMulInto, CSR.MulVecInto on a transpose) replaced
// row-scatter loops and promise the scatter's bits. The scatter forms are
// kept here verbatim as the references.

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

// laneBody names one way the dense products run: on the host's vector
// body (lanes) or on the portable paths (hasLanes false: MulInto's 2x4
// blocks, VecMulInto's scatter, MulCSRInto's lanesGo).
type laneBody struct {
	name  string
	lanes bool
}

// laneBodies lists the ways this host runs: the portable paths and, when
// the host has one, its vector body.
func laneBodies() []laneBody {
	if hasLanes {
		return []laneBody{{"go", false}, {"avx512", true}}
	}
	return []laneBody{{"go", false}}
}

// withLanes runs fn with hasLanes set to lanes.
func withLanes(lanes bool, fn func()) {
	saved := hasLanes
	hasLanes = lanes
	defer func() { hasLanes = saved }()
	fn()
}

// transposed returns mᵀ through TransposeFrom.
func transposed(t *testing.T, m *Dense) *Dense {
	t.Helper()
	out := NewDense(m.cols, m.rows)
	if err := out.TransposeFrom(m); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGatherKernelsMatchScatterBits: on every power P^k of a random
// uniformized generator — P^0 and P^1 as sparse as P, P^3 partly filled,
// P^40 dense — each lane path reproduces its scatter reference bit for
// bit, odd sizes (a single-row tail, a masked lane tail) included, on
// the host's vector body and on the portable path. The product by P
// runs transposed, as the base series does: (P^k P)ᵀ = Pᵀ (P^k)ᵀ.
func TestGatherKernelsMatchScatterBits(t *testing.T) {
	for _, body := range laneBodies() {
		withLanes(body.lanes, func() {
			rng := rand.New(rand.NewSource(19))
			for _, n := range []int{1, 7, 70, 71, 140} {
				p := uniformizedWithZeroDiag(rng, n)
				pc, pt := CSRFromDense(p), CSRFromDenseT(p)
				power := Identity(n)
				for k := 0; k <= 40; k++ {
					if k == 0 || k == 1 || k == 3 || k == 40 {
						name := fmt.Sprintf("%s n=%d k=%d", body.name, n, k)
						want, got := NewDense(n, n), NewDense(n, n)

						if err := want.scatterMulInto(power, p); err != nil {
							t.Fatal(err)
						}
						if err := got.MulInto(power, p); err != nil {
							t.Fatal(err)
						}
						sameBits(t, name+" MulInto(P^k, P)", got.data, want.data)
						for i := 0; i < n; i++ {
							row := make([]float64, n)
							if err := p.VecMulInto(row, power.data[i*n:(i+1)*n]); err != nil {
								t.Fatal(err)
							}
							sameBits(t, fmt.Sprintf("%s VecMulInto row %d", name, i), row, want.data[i*n:(i+1)*n])
						}
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
						gotT := NewDense(n, n)
						if err := gotT.MulCSRInto(pt, transposed(t, power)); err != nil {
							t.Fatal(err)
						}
						sameBits(t, name+" MulCSRInto", transposed(t, gotT).data, want.data)

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
		})
	}
}

// checkLaneBodies checks every lane body on the dense-route products of
// generator q and branching matrix d against their scatter references,
// bit for bit: the squaring of a base-series matrix, the base series
// run transposed with its fused updates of T and U (and of T alone),
// T·D through the transposes, and a vector times T with zero entries.
func checkLaneBodies(t *testing.T, rng *rand.Rand, name string, q, d *Dense) {
	t.Helper()
	n := q.rows
	rate := UniformizationRate(q.MaxAbsDiag())
	if rate == 0 {
		rate = 1
	}
	p := q.Clone()
	p.Scale(1 / rate)
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	pc, pt := CSRFromDense(p), CSRFromDenseT(p)
	dc, dt := CSRFromDense(d), CSRFromDenseT(d)

	// Series coefficients: Poisson weights and tails over rate, the
	// tails ending in exact zeros as the clipped tails do.
	const terms = 7
	weights, tails := make([]float64, terms), make([]float64, terms)
	for k := range weights {
		weights[k] = rng.Float64()
		if k < terms-2 {
			tails[k] = rng.Float64() / rate
		}
	}

	// The references, in untransposed space: T = sum_k w_k P^k by
	// AddScaled over scatter powers (P^k times P in CSR form), then
	// squared and multiplied by D.
	wantT, wantU, power := NewDense(n, n), NewDense(n, n), Identity(n)
	for k := 0; k < terms; k++ {
		wantT.AddScaled(power, weights[k])
		wantU.AddScaled(power, tails[k])
		if k == terms-1 {
			break
		}
		next := NewDense(n, n)
		if err := next.scatterMulCSRInto(power, pc); err != nil {
			t.Fatal(err)
		}
		power = next
	}
	wantSq, wantTD := NewDense(n, n), NewDense(n, n)
	if err := wantSq.scatterMulInto(wantT, wantT); err != nil {
		t.Fatal(err)
	}
	if err := wantTD.scatterMulCSRInto(wantSq, dc); err != nil {
		t.Fatal(err)
	}
	x := signedVector(rng, n)
	for i := range x {
		if i%3 == 0 {
			x[i] = 0
		}
	}
	wantX := make([]float64, n)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			wantX[j] += xi * wantSq.At(i, j)
		}
	}

	for _, body := range laneBodies() {
		withLanes(body.lanes, func() {
			label := fmt.Sprintf("%s %s", body.name, name)
			for _, withU := range []bool{false, true} {
				tm, power, next := NewDense(n, n), Identity(n), NewDense(n, n)
				var um *Dense
				if withU {
					um = NewDense(n, n)
				}
				tm.AddScaled(power, weights[0])
				if withU {
					um.AddScaled(power, tails[0])
				}
				for k := 1; k < terms; k++ {
					if err := next.MulCSRInto(pt, power, Fused{tm, weights[k]}, Fused{um, tails[k]}); err != nil {
						t.Fatal(err)
					}
					power, next = next, power
				}
				sameBits(t, fmt.Sprintf("%s series T (U %v)", label, withU), transposed(t, tm).data, wantT.data)
				if withU {
					sameBits(t, label+" series U", transposed(t, um).data, wantU.data)
				}
			}

			sq := NewDense(n, n)
			if err := sq.MulInto(wantT, wantT); err != nil {
				t.Fatal(err)
			}
			sameBits(t, label+" squaring", sq.data, wantSq.data)

			tdT := NewDense(n, n)
			if err := tdT.MulCSRInto(dt, transposed(t, wantSq)); err != nil {
				t.Fatal(err)
			}
			sameBits(t, label+" T·D", transposed(t, tdT).data, wantTD.data)

			got := make([]float64, n)
			if err := wantSq.VecMulInto(got, x); err != nil {
				t.Fatal(err)
			}
			sameBits(t, label+" x·T", got, wantX)
		})
	}
}

// randomBranching returns a clock branching matrix: each row a few
// successors with probabilities summing to one, zero columns included.
func randomBranching(rng *rand.Rand, n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(3)
		for e := 0; e < k; e++ {
			d.Add(i, rng.Intn(n), 1/float64(k))
		}
	}
	return d
}

// TestLaneBodiesMatchScatterBits runs checkLaneBodies at odd sizes: one
// state, and sizes that end in a masked partial chunk of lanes after
// full groups of 64, 32, 16 and 8.
func TestLaneBodiesMatchScatterBits(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 7, 9, 71, 127} {
		checkLaneBodies(t, rng, fmt.Sprintf("n=%d", n), randomGenerator(rng, n), randomBranching(rng, n))
	}
}

// TestLaneProductsRefuseBadOperands: the vector body trusts its operands,
// so the products refuse any that would make it read or write out of
// bounds (a column index past the dense operand, mismatched shapes,
// aliased outputs) with ErrDimensionMismatch before it runs.
func TestLaneProductsRefuseBadOperands(t *testing.T) {
	for _, body := range laneBodies() {
		withLanes(body.lanes, func() {
			a, b := NewDense(3, 4), NewDense(4, 5)
			c := CSRFromDense(Identity(4))
			bad := CSRFromDense(Identity(4))
			bad.ColIdx[3] = 4
			for _, tc := range []struct {
				name string
				err  error
			}{
				{"MulInto inner mismatch", NewDense(3, 5).MulInto(a, a)},
				{"MulInto out shape", NewDense(3, 4).MulInto(a, b)},
				{"MulInto aliased out", b.MulInto(NewDense(4, 4), b)},
				{"VecMulInto short x", b.VecMulInto(make([]float64, 5), make([]float64, 3))},
				{"VecMulInto long dst", b.VecMulInto(make([]float64, 6), make([]float64, 4))},
				{"MulCSRInto column past a", NewDense(4, 5).MulCSRInto(bad, b)},
				{"MulCSRInto inner mismatch", NewDense(4, 4).MulCSRInto(c, a)},
				{"MulCSRInto out shape", NewDense(4, 4).MulCSRInto(c, b)},
				{"MulCSRInto aliased out", b.MulCSRInto(c, b)},
				{"MulCSRInto fused shape", NewDense(4, 5).MulCSRInto(c, b, Fused{NewDense(5, 4), 1})},
				{"MulCSRInto fused aliases a", NewDense(4, 5).MulCSRInto(c, b, Fused{b, 1})},
				{"MulCSRInto three fused", NewDense(4, 5).MulCSRInto(c, b, Fused{}, Fused{}, Fused{})},
				{"TransposeFrom shape", NewDense(3, 4).TransposeFrom(a)},
				{"TransposeFrom in place, not square", a.TransposeFrom(a)},
			} {
				if tc.err != ErrDimensionMismatch {
					t.Errorf("%s %s: err = %v, want ErrDimensionMismatch", body.name, tc.name, tc.err)
				}
			}
			out := NewDense(4, 5)
			self := Fused{out, 1}
			if err := out.MulCSRInto(c, b, self); err != ErrDimensionMismatch {
				t.Errorf("%s MulCSRInto fused aliases out: err = %v", body.name, err)
			}
			// A zero scale or nil matrix is skipped, whatever its shape.
			if err := out.MulCSRInto(c, b, Fused{NewDense(1, 1), 0}, Fused{}); err != nil {
				t.Errorf("%s MulCSRInto skipped updates: %v", body.name, err)
			}
		})
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

// BenchmarkMulCSRNoAlloc times one base-series term as the dense route
// runs it: the next transposed power Pᵀ (P^k)ᵀ with both fused updates;
// it must not allocate.
func BenchmarkMulCSRNoAlloc(b *testing.B) {
	for _, n := range []int{70, 140} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randMatrix(n, n, uint32(n))
			pt := CSRFromDenseT(benchUniformized(n))
			out, tm, um := NewDense(n, n), NewDense(n, n), NewDense(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := out.MulCSRInto(pt, a, Fused{tm, 0.5}, Fused{um, 0.25}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// threePassSeries is the loop both uniformization series ran before the
// fused fixed-width step, kept verbatim as its bit reference: per term an
// axpy into dst, a CSR.MulVecInto into tmp and an in-place update of cur.
// It adds sum_k coef[k] * pi * (I + Q/rate)^k into dst and, when dst2 is
// non-nil, sum_k coef2[k] * pi * (I + Q/rate)^k into dst2 by one more
// axpy per term, the reference of the series' second accumulator.
func threePassSeries(qt *CSR, pi, coef []float64, invRate float64, dst, coef2, dst2 []float64) error {
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
		if dst2 != nil {
			w2 := coef2[k]
			for i := range dst2 {
				dst2[i] += w2 * cur[i]
			}
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
func checkChunkLayout(t *testing.T, qt *CSR) *SELL {
	t.Helper()
	n, _ := qt.Dims()
	width := func(i int) int { return qt.RowPtr[i+1] - qt.RowPtr[i] }
	l := NewWorkspace().SeriesLayout(qt)
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
// a term bit for bit like the portable chunksGo, with and without the
// second accumulator, on layouts with chunk widths 1-12, sizes with and
// without a partial last chunk, with and without a hub row, stored values
// of +0, -0 and subnormal magnitude, and start and accumulator vectors of
// mixed sign with subnormal entries.
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
				l := NewWorkspace().SeriesLayout(qt)
				size := len(l.widths) * chunk
				x, dst0, dst20 := signedVector(rng, size), signedVector(rng, size), signedVector(rng, size)
				sprinkle(x)
				sprinkle(dst0)
				sprinkle(dst20)
				weight, weight2, invRate := rng.Float64(), rng.Float64(), 1/(1+rng.Float64())
				for _, second := range []bool{false, true} {
					wantNext, wantDst := make([]float64, size), slices.Clone(dst0)
					var wantDst2 []float64
					if second {
						wantDst2 = slices.Clone(dst20)
					}
					chunksGo(l.idx, l.vals, l.widths, x, wantNext, wantDst, wantDst2, weight, weight2, invRate)
					for _, b := range bodies {
						name := fmt.Sprintf("%s n=%d width=%d hub=%v second=%v", b.name, n, w, hub, second)
						next, dst := make([]float64, size), slices.Clone(dst0)
						var dst2 []float64
						if second {
							dst2 = slices.Clone(dst20)
						}
						b.run(l.idx, l.vals, l.widths, x, next, dst, dst2, weight, weight2, invRate)
						sameBits(t, name+" next", next, wantNext)
						sameBits(t, name+" dst", dst, wantDst)
						sameBits(t, name+" dst2", dst2, wantDst2)
					}
				}
			}
		}
	}
}

// checkFusedMatchesThreePass checks ws.series with one and with two
// accumulators, both public kernels and their fused form UniformizedSELL
// on qt against threePassSeries bit for bit, from a signed start vector.
func checkFusedMatchesThreePass(t *testing.T, rng *rand.Rand, name string, qt *CSR) {
	t.Helper()
	n, _ := qt.Dims()
	ws := NewWorkspace()
	rate := 1.05 * UniformizationRate(qt.MaxAbsDiag())
	pi := signedVector(rng, n)
	for _, terms := range []int{1, 2, 4, 41} {
		coef, coef2 := make([]float64, terms), make([]float64, terms)
		for k := range coef {
			coef[k], coef2[k] = rng.Float64(), rng.Float64()
		}
		want, want2 := make([]float64, n), make([]float64, n)
		if err := threePassSeries(qt, pi, coef, 1/rate, want, coef2, want2); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		ws.series(ws.SeriesLayout(qt), pi, 1/rate, coef, got, nil, nil)
		sameBits(t, fmt.Sprintf("%s P^%d", name, terms-1), got, want)
		got, got2 := make([]float64, n), make([]float64, n)
		ws.series(ws.SeriesLayout(qt), pi, 1/rate, coef, got, coef2, got2)
		sameBits(t, fmt.Sprintf("%s P^%d, two accumulators", name, terms-1), got, want)
		sameBits(t, fmt.Sprintf("%s P^%d, second accumulator", name, terms-1), got2, want2)
	}

	const tau = 4.0
	weights, right := PoissonWeights(rate*tau, 1e-12)
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
	wantP, wantU := make([]float64, n), make([]float64, n)
	if err := threePassSeries(qt, pi, weights[:right+1], invRate, wantP, tail, wantU); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if err := ws.UniformizedSELL(ws.SeriesLayout(qt), pi, tau, rate, 1e-12, got, nil); err != nil {
		t.Fatal(err)
	}
	sameBits(t, name+" UniformizedSELL power only", got, wantP)

	// A signed start vector has no unit mass, so the kernel's
	// truncation rescale (applied only within 1e-6 of the exact
	// mass t) leaves both results as the series produced them.
	if err := ws.UniformizedSELL(ws.SeriesLayout(qt), pi, tau, rate, 1e-12, nil, got); err != nil {
		t.Fatal(err)
	}
	sameBits(t, name+" UniformizedSELL integral only", got, wantU)

	gotP, gotU := make([]float64, n), make([]float64, n)
	if err := ws.UniformizedSELL(ws.SeriesLayout(qt), pi, tau, rate, 1e-12, gotP, gotU); err != nil {
		t.Fatal(err)
	}
	sameBits(t, name+" UniformizedSELL power", gotP, wantP)
	sameBits(t, name+" UniformizedSELL integral", gotU, wantU)
}
