package nvp

import (
	"fmt"
	"math"
	"testing"

	"nvrel/internal/obs"
)

// coldSparseAndDense solves p cold on the pinned mrgp-sparse rung and on
// the mrgp-dense rung and returns the sparse solve's operator
// applications with max|pi_sparse - pi_dense|.
func coldSparseAndDense(t *testing.T, p Params) (applications int, diff float64) {
	t.Helper()
	m, err := BuildWithRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	sparse, diag, err := m.SolveWith(nil, nil, Opts{Rung: "mrgp-sparse"})
	if err != nil {
		t.Fatalf("mrgp-sparse: %v", err)
	}
	dense, _, err := m.SolveWith(nil, nil, Opts{Rung: "mrgp-dense"})
	if err != nil {
		t.Fatalf("mrgp-dense: %v", err)
	}
	for i := range sparse {
		diff = max(diff, math.Abs(sparse[i]-dense[i]))
	}
	return diag.PowerIters, diff
}

// TestSparseMRGPApplicationBound: a cold sparse MRGP solve takes a
// predictable number of embedded-operator applications. Two families are
// solved on the pinned mrgp-sparse rung: the ten (design, tau) points of
// the six-version N = 10, f = 1, r = 2 and N = 9, f = 0, r = 4 designs
// whose solves once took 150 and 65 applications, and the serve-cold box
// as a 90-point grid (N in {10, 12}, MTTC 600-3000 s in steps of 300 s,
// tau in {300, 340, 380, 420, 450} s). Every solve must take at most 20
// applications, the grid at most 1400 together, and every pi must agree
// with the mrgp-dense rung within 1e-13.
func TestSparseMRGPApplicationBound(t *testing.T) {
	const (
		perSolve  = 20
		gridTotal = 1400
		agree     = 1e-13
	)
	check := func(name string, p Params) int {
		t.Helper()
		apps, diff := coldSparseAndDense(t, p)
		t.Logf("%s: %d applications, max|sparse-dense| %.3g", name, apps, diff)
		if apps > perSolve {
			t.Errorf("%s: %d applications, want <= %d", name, apps, perSolve)
		}
		if diff > agree {
			t.Errorf("%s: max|pi_sparse - pi_dense| = %.3g, want <= %g", name, diff, agree)
		}
		return apps
	}
	designs := []struct{ n, f, r int }{{10, 1, 2}, {9, 0, 4}}
	for _, d := range designs {
		for _, tau := range []float64{150, 300, 400, 600, 900} {
			p := sixVersion(d.n, ClockFreeRunning)
			p.F, p.R, p.RejuvenationInterval = d.f, d.r, tau
			check(fmt.Sprintf("N=%d f=%d r=%d tau=%g", d.n, d.f, d.r, tau), p)
		}
	}
	total, worst := 0, 0
	for _, n := range []int{10, 12} {
		for mttc := 600.0; mttc <= 3000; mttc += 300 {
			for _, tau := range []float64{300, 340, 380, 420, 450} {
				p := sixVersion(n, ClockFreeRunning)
				p.MeanTimeToCompromise, p.RejuvenationInterval = mttc, tau
				apps := check(fmt.Sprintf("grid N=%d MTTC=%g tau=%g", n, mttc, tau), p)
				total += apps
				worst = max(worst, apps)
			}
		}
	}
	t.Logf("grid: %d applications in total, at most %d per solve", total, worst)
	if total > gridTotal {
		t.Errorf("grid: %d applications in total, want <= %d", total, gridTotal)
	}
}

// TestKrylovStartOn395StateDesign: on E12's largest design (N = 9,
// f = 0, r = 4, 395 states) at tau = 600 s, GMRES once kept taking
// Arnoldi steps past the rounding floor and divided by their near-zero
// Givens pivots: the Krylov vector came out with positive mass 3.9e-15
// and negative mass -0.18, passed as usable, and the power finisher
// rebuilt the answer over 51 cycles (65 applications in all). The stage
// must now stop at the floor with a usable vector, which the finisher
// accepts within a few cycles, and the mrgp.kernel.embedded span must
// say so. TestSparseMRGPApplicationBound checks the same point against
// the dense rung.
func TestKrylovStartOn395StateDesign(t *testing.T) {
	p := sixVersion(9, ClockFreeRunning)
	p.F, p.R = 0, 4
	m, err := BuildWithRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Graph.NumStates(); n != 395 {
		t.Fatalf("%d states, want 395", n)
	}
	prevObs := obs.Enable()
	prevTrace := obs.TraceEnable()
	obs.TraceReset()
	t.Cleanup(func() {
		obs.SetEnabled(prevObs)
		obs.SetTraceEnabled(prevTrace)
	})
	discarded := obs.CounterFor("mrgp.krylov.discarded").Value()
	_, diag, err := m.SolveWith(nil, nil, Opts{Rung: "mrgp-sparse"})
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.CounterFor("mrgp.krylov.discarded").Value() - discarded; got != 0 {
		t.Errorf("the Krylov start was discarded %d times", got)
	}
	var attrs map[string]any
	for _, r := range obs.TraceSnapshot() {
		if r.Name == "mrgp.kernel.embedded" {
			attrs = make(map[string]any)
			for _, a := range r.Attrs {
				attrs[a.Key] = a.Value()
			}
		}
	}
	if attrs == nil {
		t.Fatal("no mrgp.kernel.embedded span")
	}
	t.Logf("embedded span: %v", attrs)
	if stop := attrs["krylov_stop"]; stop != "floor" && stop != "tolerance" {
		t.Errorf("krylov_stop = %v, want floor or tolerance", stop)
	}
	krylov, _ := attrs["krylov"].(int64)
	finisher, _ := attrs["finisher"].(int64)
	if finisher < 1 || finisher > 3 || krylov+finisher != int64(diag.PowerIters) || attrs["cycles"] != int64(diag.PowerIters) {
		t.Errorf("krylov %d + finisher %d applications, cycles %v, diag %d: want 1-3 finisher cycles adding up",
			krylov, finisher, attrs["cycles"], diag.PowerIters)
	}
}
