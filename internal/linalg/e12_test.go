package linalg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
)

// TestFusedSeriesMatchesThreePassBitsE12 runs the fused-series bit check
// of TestFusedSeriesMatchesThreePassBits on the real generators of the
// architecture enumeration (E12): every six-version design with r >= 1 up
// to N = 9, with up to 395 states and rows up to 12 entries wide.
func TestFusedSeriesMatchesThreePassBitsE12(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	maxStates, maxWidth := 0, 0
	for n := 3; n <= 9; n++ {
		for r := 1; 2*r+1 <= n; r++ {
			p := nvp.DefaultSixVersion()
			p.N, p.F, p.R = n, 0, r
			m, err := nvp.BuildWithRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d r=%d: %v", n, r, err)
			}
			qt, err := m.Graph.GeneratorCSRTranspose(nil)
			if err != nil {
				t.Fatalf("N=%d r=%d: %v", n, r, err)
			}
			states, _ := qt.Dims()
			maxStates = max(maxStates, states)
			maxWidth = max(maxWidth, linalg.CheckChunkLayout(t, qt))
			linalg.CheckFusedMatchesThreePass(t, rng, fmt.Sprintf("E12 N=%d r=%d (%d states)", n, r, states), qt)
		}
	}
	if maxStates != 395 || maxWidth != 12 {
		t.Errorf("E12 generators reach %d states and width %d, want 395 and 12", maxStates, maxWidth)
	}
}

// TestLaneBodiesMatchScatterBitsE12 runs the lane-body bit check of
// TestLaneBodiesMatchScatterBits on the dense route's real operands, the
// generators and clock branching matrices of every E12 design above: up
// to 395 states, so full groups of 64, 32 and 16 lanes and masked tails
// of every width appear.
func TestLaneBodiesMatchScatterBitsE12(t *testing.T) {
	rng := rand.New(rand.NewSource(395))
	maxStates := 0
	for n := 3; n <= 9; n++ {
		for r := 1; 2*r+1 <= n; r++ {
			p := nvp.DefaultSixVersion()
			p.N, p.F, p.R = n, 0, r
			m, err := nvp.BuildWithRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d r=%d: %v", n, r, err)
			}
			q, err := m.Graph.Generator()
			if err != nil {
				t.Fatalf("N=%d r=%d: %v", n, r, err)
			}
			states, _ := q.Dims()
			maxStates = max(maxStates, states)
			d := linalg.NewDense(states, states)
			for i, sched := range m.Graph.Det {
				for _, pe := range sched.Successors {
					d.Add(i, pe.To, pe.Prob)
				}
			}
			linalg.CheckLaneBodies(t, rng, fmt.Sprintf("E12 N=%d r=%d (%d states)", n, r, states), q, d)
		}
	}
	if maxStates != 395 {
		t.Errorf("E12 generators reach %d states, want 395", maxStates)
	}
}
