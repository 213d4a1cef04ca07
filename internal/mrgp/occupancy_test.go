package mrgp_test

import (
	"math"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/nvp"
)

// TestDenseOccupancyMatchesMatrixPath: the dense rung carries sigma
// through the retained squarings instead of forming U(tau), so over the
// six-version models and clock periods from one base step to many
// doublings its embedded vector is bit-identical to the matrix path's and
// its occupancy agrees to 1e-15.
func TestDenseOccupancyMatchesMatrixPath(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 24 six-version models twice")
	}
	ws := linalg.NewWorkspace()
	for n := 6; n <= 9; n++ {
		for _, tau := range []float64{1, 10, 100, 600, 3000, 10000} {
			p := nvp.DefaultSixVersion()
			p.N = n
			p.RejuvenationInterval = tau
			m, err := nvp.BuildWithRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d tau=%g: %v", n, tau, err)
			}
			got, err := mrgp.SolveDense(ws, m.Graph)
			if err != nil {
				t.Fatalf("N=%d tau=%g dense: %v", n, tau, err)
			}
			want, err := mrgp.SolveDenseMatrixPath(ws, m.Graph)
			if err != nil {
				t.Fatalf("N=%d tau=%g matrix path: %v", n, tau, err)
			}
			for i := range want.Embedded {
				if math.Float64bits(got.Embedded[i]) != math.Float64bits(want.Embedded[i]) {
					t.Fatalf("N=%d tau=%g: Embedded[%d] = %.17g, matrix path %.17g", n, tau, i, got.Embedded[i], want.Embedded[i])
				}
			}
			for i := range want.Pi {
				if d := math.Abs(got.Pi[i] - want.Pi[i]); d > 1e-15 {
					t.Errorf("N=%d tau=%g: Pi[%d] = %.17g, matrix path %.17g (diff %.3g)", n, tau, i, got.Pi[i], want.Pi[i], d)
				}
			}
		}
	}
}
