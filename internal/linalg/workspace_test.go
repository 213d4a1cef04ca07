package linalg

import (
	"math/rand"
	"slices"
	"testing"

	"nvrel/internal/obs"
)

// testGenerator returns a small irreducible CTMC generator.
func testGenerator() *Dense {
	q := NewDense(4, 4)
	rows := [][]float64{
		{-3, 1, 1, 1},
		{0.5, -2, 1, 0.5},
		{2, 1, -4, 1},
		{0.25, 0.25, 0.5, -1},
	}
	for i, r := range rows {
		for j, v := range r {
			q.Set(i, j, v)
		}
	}
	return q
}

// TestWorkspaceUniformizedPowerMatchesPlain: the pooled CSR kernel must
// be float-for-float identical to the allocating one (nil workspace),
// including on reuse.
func TestWorkspaceUniformizedPowerMatchesPlain(t *testing.T) {
	qt := CSRFromDenseT(testGenerator())
	pi := []float64{1, 0, 0, 0}
	ws := NewWorkspace()
	var plain *Workspace
	for rep := 0; rep < 3; rep++ {
		for _, tt := range []float64{0, 0.3, 1.7, 12} {
			want, err := seriesCSR(plain, qt, pi, tt, 1e-12, false, nil)
			if err != nil {
				t.Fatalf("plain t=%g: %v", tt, err)
			}
			got, err := seriesCSR(ws, qt, pi, tt, 1e-12, false, nil)
			if err != nil {
				t.Fatalf("ws t=%g: %v", tt, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("rep %d t=%g: got[%d] = %v, want %v", rep, tt, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWorkspaceUniformizedIntegralMatchesPlain: same contract for the
// accumulated-occupancy kernel.
func TestWorkspaceUniformizedIntegralMatchesPlain(t *testing.T) {
	qt := CSRFromDenseT(testGenerator())
	pi := []float64{0.25, 0.25, 0.25, 0.25}
	ws := NewWorkspace()
	var plain *Workspace
	for rep := 0; rep < 3; rep++ {
		for _, tt := range []float64{0, 0.5, 4} {
			want, err := seriesCSR(plain, qt, pi, tt, 1e-12, true, nil)
			if err != nil {
				t.Fatalf("plain t=%g: %v", tt, err)
			}
			got, err := seriesCSR(ws, qt, pi, tt, 1e-12, true, nil)
			if err != nil {
				t.Fatalf("ws t=%g: %v", tt, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("rep %d t=%g: got[%d] = %v, want %v", rep, tt, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWorkspaceGTHMatchesPlain: pooled GTH elimination equals the
// allocating path and must not clobber its input.
func TestWorkspaceGTHMatchesPlain(t *testing.T) {
	q := testGenerator()
	snapshot := NewDense(4, 4)
	snapshot.CopyFrom(q)
	want, err := SteadyStateGTH(q)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	ws := NewWorkspace()
	for rep := 0; rep < 3; rep++ {
		got, err := ws.SteadyStateGTH(q, nil)
		if err != nil {
			t.Fatalf("ws rep %d: %v", rep, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rep %d: got[%d] = %v, want %v", rep, i, got[i], want[i])
			}
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if q.At(i, j) != snapshot.At(i, j) {
				t.Fatalf("input generator was modified at (%d,%d)", i, j)
			}
		}
	}
}

// TestWorkspacePoissonMemo: memoized weights are identical to the direct
// computation, and the memo returns the same backing slice on a hit.
func TestWorkspacePoissonMemo(t *testing.T) {
	ws := NewWorkspace()
	want, wantRight := PoissonWeights(37.5, 1e-12)
	got, right := ws.Poisson(37.5, 1e-12)
	if right != wantRight {
		t.Fatalf("right = %d, want %d", right, wantRight)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("weights[%d] = %v, want %v", k, got[k], want[k])
		}
	}
	again, _ := ws.Poisson(37.5, 1e-12)
	if &again[0] != &got[0] {
		t.Error("memo miss on identical (lambda, epsilon)")
	}
}

// TestWorkspaceVecPoolBounded: cycling through more than vecPoolLens
// lengths leaves at most vecPoolLens pooled, and a released vector of a
// pooled length is still handed back, zeroed, on the next request.
func TestWorkspaceVecPoolBounded(t *testing.T) {
	ws := NewWorkspace()
	for n := 1; n <= 3*vecPoolLens; n++ {
		ws.PutVec(ws.Vec(n))
		if len(ws.vecs) > vecPoolLens {
			t.Fatalf("after length %d: %d lengths pooled, want <= %d", n, len(ws.vecs), vecPoolLens)
		}
	}
	v := ws.Vec(7)
	v[0] = 3
	ws.PutVec(v)
	again := ws.Vec(7)
	if &again[0] != &v[0] {
		t.Error("same-length request after release did not reuse the pooled vector")
	}
	if again[0] != 0 {
		t.Error("reused vector not zeroed")
	}
}

// TestWorkspaceMatPoolBounded: cycling through more than matPoolDims
// sizes leaves at most matPoolDims pooled, and a released matrix of a
// pooled size is still handed back on the next request.
func TestWorkspaceMatPoolBounded(t *testing.T) {
	prev := obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prev) })
	ws := NewWorkspace()
	for n := 1; n <= 3*matPoolDims; n++ {
		ws.PutMat(ws.Mat(n, n))
		if len(ws.mats) > matPoolDims {
			t.Fatalf("after size %d: %d sizes pooled, want <= %d", n, len(ws.mats), matPoolDims)
		}
	}
	m := ws.Mat(7, 7)
	m.Set(0, 0, 3)
	ws.PutMat(m)
	hits := metWSMatHit.Value()
	again := ws.Mat(7, 7)
	if again != m {
		t.Error("same-size request after release did not reuse the pooled matrix")
	}
	if metWSMatHit.Value() == hits {
		t.Error("same-size reuse not counted as a pool hit")
	}
	if again.At(0, 0) != 0 {
		t.Error("reused matrix not zeroed")
	}
}

// TestUniformizedPowerNoAlloc: after warm-up, the CSR series kernel with a
// caller-provided destination must run allocation-free — the point of the
// whole workspace layer.
func TestUniformizedPowerNoAlloc(t *testing.T) {
	qt := CSRFromDenseT(testGenerator())
	pi := []float64{1, 0, 0, 0}
	dst := make([]float64, 4)
	ws := NewWorkspace()
	if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
			t.Fatalf("seriesCSR: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state allocations = %v, want 0", allocs)
	}
}

// BenchmarkUniformizedPowerNoAlloc guards the allocation-free property in
// benchmark form; -benchmem must report 0 allocs/op after warm-up.
func BenchmarkUniformizedPowerNoAlloc(b *testing.B) {
	qt := CSRFromDenseT(testGenerator())
	pi := []float64{1, 0, 0, 0}
	dst := make([]float64, 4)
	ws := NewWorkspace()
	if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// width5Generator is a transposed generator whose widest row holds five
// entries, the six-version models' width.
func width5Generator(tb testing.TB) *CSR {
	return classGenerator(tb, 24, 5)
}

// classGenerator returns a random transposed generator of n states with
// rows 1..widest entries wide, and checks that its layout's last chunk
// is that wide, so the series gathers slots up to that width.
func classGenerator(tb testing.TB, n, widest int) *CSR {
	qt := randomWidthCSR(rand.New(rand.NewSource(int64(widest))), n, widest, false)
	l := NewWorkspace().SeriesLayout(qt)
	if got := l.widths[len(l.widths)-1]; got != int32(widest) {
		tb.Fatalf("generator of widest row %d lays out chunks of widths %v", widest, l.widths)
	}
	return qt
}

// seriesNoAlloc checks that the power series on qt runs
// allocation-free after warm-up.
func seriesNoAlloc(t *testing.T, qt *CSR) {
	n, _ := qt.Dims()
	pi := make([]float64, n)
	pi[0] = 1
	dst := make([]float64, n)
	ws := NewWorkspace()
	if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
			t.Fatalf("seriesCSR: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state allocations = %v, want 0", allocs)
	}
}

// benchSeriesNoAlloc is seriesNoAlloc in benchmark form; -benchmem must
// report 0 allocs/op after warm-up.
func benchSeriesNoAlloc(b *testing.B, qt *CSR) {
	n, _ := qt.Dims()
	pi := make([]float64, n)
	pi[0] = 1
	dst := make([]float64, n)
	ws := NewWorkspace()
	if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, false, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUniformizedPowerWidth5NoAlloc: the width-5 series body runs
// allocation-free after warm-up, like the width-4 one.
func TestUniformizedPowerWidth5NoAlloc(t *testing.T) {
	seriesNoAlloc(t, width5Generator(t))
}

// BenchmarkUniformizedPowerWidth5NoAlloc guards the same property in
// benchmark form.
func BenchmarkUniformizedPowerWidth5NoAlloc(b *testing.B) {
	benchSeriesNoAlloc(b, width5Generator(b))
}

// TestUniformizedPowerWideNoAlloc: a generator with rows up to width 12,
// the widest of E12's designs, lays out chunks up to 12 slots wide; the
// permutation in and out of series numbering allocates nothing after
// warm-up either.
func TestUniformizedPowerWideNoAlloc(t *testing.T) {
	seriesNoAlloc(t, classGenerator(t, 60, 12))
}

// BenchmarkUniformizedPowerWideNoAlloc guards the same property in
// benchmark form.
func BenchmarkUniformizedPowerWideNoAlloc(b *testing.B) {
	benchSeriesNoAlloc(b, classGenerator(b, 60, 12))
}

// TestUnifEntriesCountsLayoutSlots: linalg.unif.entries grows by the
// layout's slots for every term but the last: 8 per chunk and chunk
// width, pads included. The expected counts come from the row widths
// alone: sorted ascending, taken 8 at a time, each group as wide as its
// widest row and at least 1.
func TestUnifEntriesCountsLayoutSlots(t *testing.T) {
	prev := obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prev) })
	for _, qt := range []*CSR{classGenerator(t, 50, 2), classGenerator(t, 60, 12), CSRFromDenseT(testGenerator())} {
		n, _ := qt.Dims()
		widths := make([]int, n)
		for i := range widths {
			widths[i] = qt.RowPtr[i+1] - qt.RowPtr[i]
		}
		slices.Sort(widths)
		slots := 0
		for lo := 0; lo < n; lo += 8 {
			slots += 8 * max(1, widths[min(n, lo+8)-1])
		}
		if slots <= qt.NNZ() {
			t.Fatalf("n=%d: %d slots for %d entries, want some pads", n, slots, qt.NNZ())
		}
		pi := make([]float64, n)
		pi[0] = 1
		coef := []float64{0.5, 0.25, 0.125, 0.125}
		before := metUnifEntries.Value()
		ws := NewWorkspace()
		ws.series(ws.SeriesLayout(qt), pi, 0.5, coef, make([]float64, n), nil, nil)
		if got, want := metUnifEntries.Value()-before, int64(3*slots); got != want {
			t.Errorf("n=%d: entries grew by %d, want %d", n, got, want)
		}
	}
}

// TestUniformizedIntegralNoAlloc: the CSR integral kernel takes the tail
// weights and both series vectors from the workspace, so with a
// caller-provided destination it too runs allocation-free after warm-up.
func TestUniformizedIntegralNoAlloc(t *testing.T) {
	qt := CSRFromDenseT(testGenerator())
	pi := []float64{1, 0, 0, 0}
	dst := make([]float64, 4)
	ws := NewWorkspace()
	if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, true, dst); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, true, dst); err != nil {
			t.Fatalf("seriesCSR: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state allocations = %v, want 0", allocs)
	}
}

// BenchmarkUniformizedIntegralNoAlloc guards the same property in
// benchmark form; -benchmem must report 0 allocs/op after warm-up.
func BenchmarkUniformizedIntegralNoAlloc(b *testing.B) {
	qt := CSRFromDenseT(testGenerator())
	pi := []float64{1, 0, 0, 0}
	dst := make([]float64, 4)
	ws := NewWorkspace()
	if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, true, dst); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seriesCSR(ws, qt, pi, 1.7, 1e-12, true, dst); err != nil {
			b.Fatal(err)
		}
	}
}
