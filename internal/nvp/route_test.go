package nvp

import (
	"fmt"
	"math"
	"testing"

	"nvrel/internal/petri"
)

// rungReliability solves m on one pinned MRGP rung and returns E[R].
func rungReliability(t *testing.T, m *Model, rung string) float64 {
	t.Helper()
	pi, _, err := m.SolveWith(nil, nil, Opts{Rung: rung})
	if err != nil {
		t.Fatalf("%s: %v", rung, err)
	}
	e, err := m.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		t.Fatalf("%s reward: %v", rung, err)
	}
	return e
}

// TestMRGPRouteTable pins the cost model's route on the real six-version
// generators: the 70-state default model goes sparse at a 100 s
// rejuvenation interval and dense at 3000 s, where its series would run
// ~2300 terms; serve-cold's N = 10/12 points (300-450 s) and the chaos
// gate's N = 10 workload (600 s, MTTC 1200-1800 s) go sparse, so the
// sparse fault sites stay reachable. Every routed E[R] agrees with the
// dense rung within 1e-12.
func TestMRGPRouteTable(t *testing.T) {
	cases := []struct {
		n           int
		tau, mttc   float64
		sparse      bool
		description string
	}{
		{6, 100, 0, true, "fig3 short interval"},
		{6, 3000, 0, false, "fig3 long interval"},
		{10, 300, 0, true, "serve-cold"},
		{10, 450, 0, true, "serve-cold"},
		{12, 300, 0, true, "serve-cold"},
		{12, 450, 0, true, "serve-cold"},
		{10, 600, 1200, true, "chaos 6v-n10-mrgp-sparse MTTC 1200"},
		{10, 600, 1800, true, "chaos 6v-n10-mrgp-sparse MTTC 1800"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("N=%d/tau=%g/%s", c.n, c.tau, c.description), func(t *testing.T) {
			p := sixVersion(c.n, ClockFreeRunning)
			p.RejuvenationInterval = c.tau
			if c.mttc > 0 {
				p.MeanTimeToCompromise = c.mttc
			}
			m, err := BuildWithRejuvenation(p)
			if err != nil {
				t.Fatal(err)
			}
			pi, diag, err := m.SolveWith(nil, nil, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			want := map[bool]petri.SolvePath{false: petri.PathDense, true: petri.PathSparse}[c.sparse]
			if diag.Path != want {
				t.Fatalf("%d states: path %v, want %v", m.Graph.NumStates(), diag.Path, want)
			}
			e, err := m.ExpectedPaperReliabilityFrom(pi)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(e - rungReliability(t, m, "mrgp-dense")); d > 1e-12 {
				t.Errorf("routed E[R] = %.17g is %.3g from the dense rung", e, d)
			}
		})
	}
}

// TestE12DesignsAgreeOnBothMRGPRungs: every rejuvenating design of the
// architecture enumeration (E12: N <= 9, 3f + 2r + 1 <= N, r >= 1) has
// the same E[R] within 1e-12 on the dense and the sparse MRGP rung, so
// whichever route the cost model picks, the printed table is the same.
func TestE12DesignsAgreeOnBothMRGPRungs(t *testing.T) {
	for n := 3; n <= 9; n++ {
		for r := 1; 2*r+1 <= n; r++ {
			p := sixVersion(n, ClockFreeRunning)
			p.F, p.R = 0, r
			m, err := BuildWithRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d r=%d: %v", n, r, err)
			}
			pis := make(map[string][]float64)
			for _, rung := range []string{"mrgp-dense", "mrgp-sparse"} {
				pi, _, err := m.SolveWith(nil, nil, Opts{Rung: rung})
				if err != nil {
					t.Fatalf("N=%d r=%d %s: %v", n, r, rung, err)
				}
				pis[rung] = pi
			}
			for f := 0; 3*f+2*r+1 <= n; f++ {
				p.F = f
				design, err := BuildWithRejuvenation(p)
				if err != nil {
					t.Fatalf("N=%d f=%d r=%d: %v", n, f, r, err)
				}
				dense, err := design.ExpectedPaperReliabilityFrom(pis["mrgp-dense"])
				if err != nil {
					t.Fatal(err)
				}
				sparse, err := design.ExpectedPaperReliabilityFrom(pis["mrgp-sparse"])
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(dense - sparse); d > 1e-12 {
					t.Errorf("N=%d f=%d r=%d: dense E[R] %.17g, sparse %.17g (diff %.3g)", n, f, r, dense, sparse, d)
				}
			}
		}
	}
}
