package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"nvrel/internal/faultinject"
)

func TestValidateDistribution(t *testing.T) {
	if err := ValidateDistribution("t", []float64{0.25, 0.25, 0.5}); err != nil {
		t.Fatalf("clean distribution rejected: %v", err)
	}
	cases := []struct {
		name string
		v    []float64
		kind FailureKind
		idx  int
	}{
		{"nan", []float64{0.5, math.NaN(), 0.5}, FailNaN, 1},
		{"inf", []float64{math.Inf(1), 0, 0}, FailInf, 0},
		{"negative", []float64{1.1, -0.1, 0}, FailNegative, 1},
		{"simplex", []float64{0.4, 0.4, 0.4}, FailSimplex, -1},
		{"empty", nil, FailSimplex, -1},
	}
	for _, tc := range cases {
		err := ValidateDistribution("t", tc.v)
		se, ok := AsSolveError(err)
		if !ok {
			t.Fatalf("%s: got %v, want *SolveError", tc.name, err)
		}
		if se.Kind != tc.kind || se.Index != tc.idx || se.Site != "t" {
			t.Fatalf("%s: got kind=%v idx=%d site=%q", tc.name, se.Kind, se.Index, se.Site)
		}
	}
	// Rounding-level negativity stays accepted.
	if err := ValidateDistribution("t", []float64{1 + 1e-12, -1e-12}); err != nil {
		t.Fatalf("rounding-level negative rejected: %v", err)
	}
}

func TestValidateFinite(t *testing.T) {
	if err := ValidateFinite("t", []float64{0, 3.5, 1e9}); err != nil {
		t.Fatalf("clean vector rejected: %v", err)
	}
	if se, ok := AsSolveError(ValidateFinite("t", []float64{0, math.NaN()})); !ok || se.Kind != FailNaN {
		t.Fatalf("NaN not caught: %v %v", se, ok)
	}
	if se, ok := AsSolveError(ValidateFinite("t", []float64{-1})); !ok || se.Kind != FailNegative {
		t.Fatalf("negative not caught: %v %v", se, ok)
	}
}

func TestValidateGeneratorCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := CSRFromDense(randomGenerator(rng, 12))
	if err := ValidateGeneratorCSR("t", q); err != nil {
		t.Fatalf("clean generator rejected: %v", err)
	}
	// Find an off-diagonal slot to corrupt.
	off := -1
	for i := 0; i < 12 && off < 0; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if q.ColIdx[k] != i {
				off = k
				break
			}
		}
	}
	corrupt := func(k int, v float64) *CSR {
		c := CSRFromDense(q.Dense())
		c.Vals[k] = v
		return c
	}
	if se, ok := AsSolveError(ValidateGeneratorCSR("t", corrupt(off, math.NaN()))); !ok || se.Kind != FailNaN {
		t.Fatalf("NaN stamp not caught: %v", se)
	}
	if se, ok := AsSolveError(ValidateGeneratorCSR("t", corrupt(off, -q.Vals[off]))); !ok || se.Kind != FailGenerator {
		t.Fatalf("negated rate not caught: %v", se)
	}
	// A silently perturbed rate breaks conservation even though the sign
	// pattern stays legal — the defect equals the full perturbation.
	if se, ok := AsSolveError(ValidateGeneratorCSR("t", corrupt(off, q.Vals[off]*1.75))); !ok || se.Kind != FailGenerator || se.Residual == 0 {
		t.Fatalf("scaled rate not caught: %v", se)
	}
}

func TestSolveErrorWrapping(t *testing.T) {
	se := &SolveError{Site: "linalg.gs", Kind: FailNotConverged, Index: -1,
		Err: ErrNotConverged}
	if !errors.Is(se, ErrNotConverged) {
		t.Fatal("errors.Is does not see the wrapped cause")
	}
	got, ok := AsSolveError(se)
	if !ok || got != se {
		t.Fatal("AsSolveError failed on a direct SolveError")
	}
	if _, ok := AsSolveError(errors.New("plain")); ok {
		t.Fatal("AsSolveError matched a plain error")
	}
	if _, ok := AsSolveError(nil); ok {
		t.Fatal("AsSolveError matched nil")
	}
}

func TestCtxError(t *testing.T) {
	if err := CtxError("t", nil); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if err := CtxError("t", context.Background()); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	se, ok := AsSolveError(CtxError("t", ctx))
	if !ok || se.Kind != FailDeadline || !errors.Is(se, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", se)
	}
}

// TestSteadyStatePowerMatchesGTH: the last-rung backstop agrees with the
// dense direct solver on random reachability-shaped generators. Power
// iteration converges at the subdominant-eigenvalue rate, so its stall
// floor leaves O(1e-8) absolute error where GS/GTH reach 1e-12 — the
// comparison tolerance reflects that.
func TestSteadyStatePowerMatchesGTH(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := NewWorkspace()
	for _, n := range []int{1, 2, 9, 40} {
		q := randomGenerator(rng, n)
		want, err := SteadyStateGTH(q.Clone())
		if err != nil {
			t.Fatalf("n=%d: GTH: %v", n, err)
		}
		got := make([]float64, n)
		iters, _, err := ws.SteadyStatePower(nil, CSRFromDense(q), got, nil)
		if err != nil {
			t.Fatalf("n=%d: power: %v", n, err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("n=%d: pi[%d] = %v, want %v (iters=%d)", n, i, got[i], want[i], iters)
			}
		}
		if err := ValidateDistribution("test", got); err != nil {
			t.Fatalf("n=%d: power result fails guard: %v", n, err)
		}
	}
}

// TestCorruptedGeneratorAlwaysTypedError is the satellite property test:
// whatever single-slot corruption hits a generator — NaN, Inf, sign flip,
// silent rate perturbation — every steady-state kernel returns a typed
// *SolveError rather than a result. Fuzz-style over random generators,
// sizes, slots and corruption kinds.
func TestCorruptedGeneratorAlwaysTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ws := NewWorkspace()
	corruptions := []struct {
		name  string
		apply func(v float64) float64
	}{
		{"nan", func(float64) float64 { return math.NaN() }},
		{"inf", func(float64) float64 { return math.Inf(1) }},
		{"negate", func(v float64) float64 { return -v }},
		{"scale", func(v float64) float64 { return v * 1.75 }},
	}
	for rep := 0; rep < 40; rep++ {
		n := 2 + rng.Intn(40)
		q := CSRFromDense(randomGenerator(rng, n))
		k := rng.Intn(len(q.Vals))
		c := corruptions[rep%len(corruptions)]
		orig := q.Vals[k]
		q.Vals[k] = c.apply(orig)
		if q.Vals[k] == orig {
			continue // negating/scaling an exact zero changes nothing
		}
		dst := make([]float64, n)
		if _, _, _, err := ws.SteadyStateGS(nil, q, dst, nil); err == nil {
			t.Fatalf("rep %d (%s, n=%d, slot %d): GS accepted a corrupted generator", rep, c.name, n, k)
		} else if _, ok := AsSolveError(err); !ok {
			t.Fatalf("rep %d (%s): GS returned untyped error %v", rep, c.name, err)
		}
		if _, _, err := ws.SteadyStatePower(nil, q, dst, nil); err == nil {
			t.Fatalf("rep %d (%s, n=%d, slot %d): power accepted a corrupted generator", rep, c.name, n, k)
		} else if _, ok := AsSolveError(err); !ok {
			t.Fatalf("rep %d (%s): power returned untyped error %v", rep, c.name, err)
		}
	}
}

// TestSteadyStateGSCtxDeadline: an expired context surfaces as a typed
// deadline error from both iterative kernels.
func TestSteadyStateGSCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := CSRFromDense(randomGenerator(rng, 20))
	ws := NewWorkspace()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	dst := make([]float64, 20)
	for name, solve := range map[string]func() error{
		"gs":    func() error { _, _, _, err := ws.SteadyStateGS(ctx, q, dst, nil); return err },
		"power": func() error { _, _, err := ws.SteadyStatePower(ctx, q, dst, nil); return err },
	} {
		se, ok := AsSolveError(solve())
		if !ok || se.Kind != FailDeadline {
			t.Fatalf("%s: expired ctx gave %v", name, se)
		}
	}
}

// TestGSInjectedFaults: the in-kernel fault sites produce exactly the
// typed failures the fallback chain keys on.
func TestGSInjectedFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	q := CSRFromDense(randomGenerator(rng, 25))
	ws := NewWorkspace()
	dst := make([]float64, 25)

	arm := func(site string) {
		t.Helper()
		faultinject.Reset()
		if err := faultinject.Arm(faultinject.Fault{Site: site}, 1); err != nil {
			t.Fatal(err)
		}
		faultinject.Enable()
	}
	defer func() {
		faultinject.Disable()
		faultinject.Reset()
	}()

	arm("linalg.gs.stall")
	se, ok := AsSolveError(func() error { _, _, _, err := ws.SteadyStateGS(nil, q, dst, nil); return err }())
	if !ok || se.Kind != FailNotConverged || !errors.Is(se, ErrNotConverged) {
		t.Fatalf("injected stall gave %v", se)
	}

	arm("linalg.gs.poison")
	se, ok = AsSolveError(func() error { _, _, _, err := ws.SteadyStateGS(nil, q, dst, nil); return err }())
	if !ok || se.Kind != FailNaN {
		t.Fatalf("injected poison gave %v", se)
	}

	arm("linalg.kernel.panic")
	func() {
		defer func() {
			if _, isInjected := recover().(*faultinject.Injected); !isInjected {
				t.Fatal("injected kernel panic did not surface")
			}
		}()
		ws.SteadyStateGS(nil, q, dst, nil)
	}()
}
