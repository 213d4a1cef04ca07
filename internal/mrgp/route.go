package mrgp

import (
	"math"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// Cost model of the two clock-synchronous formulations, in nanoseconds
// per unit of work, fitted on pinned-rung solves of the six-version
// generators (35-332 states, rate*tau 34-2043; DESIGN.md section 7).
const (
	// sparseNsPerEntry is one stored generator entry gathered in one
	// term of a vector series, the row-class kernel's 1.7 scaled by the
	// SELL-8 kernel's measured time ratio, 0.31. sparseApplications is
	// the series a cold sparse solve was measured to run when the
	// constants were fitted: its Krylov and power applications (7-29,
	// 13 typical) plus a separate occupancy integral. With both stages
	// stopping at the float64 floor and the occupancy fused into the
	// accepted application, cold solves run 10-17 series (15.1 on
	// average over the serve-cold box). The value stays 15 because only the product with
	// sparseNsPerEntry picks a route, and that product was fitted on
	// whole-solve times; changing one factor without a refit would move
	// routes the measurements never compared.
	sparseNsPerEntry   = 0.53
	sparseApplications = 15

	// Past subnormalTerms terms the series vectors of the paper's
	// generators carry subnormal entries, and every further term costs
	// subnormalFactor times a normal one.
	subnormalTerms  = 1000
	subnormalFactor = 19

	// denseNsPerCube is one n^3 unit of a doubling squaring;
	// denseNsPerBase is one multiply-add of a base-series term, which
	// costs n*(nnz+n) of them. Both were fitted on the scalar dense
	// kernels; DESIGN.md section 7 records the lane kernels' refit and
	// why it is not in use.
	denseNsPerCube = 0.47
	denseNsPerBase = 2.2
)

// routeCost estimates the run time of each formulation on a generator of
// n states and nnz stored entries at uniformization mass lambda =
// rate*tau:
//
//	sparse ~ applications * terms(lambda) * nnz
//	dense  ~ n^3 * doublings + terms(lambda/2^doublings) * n * (nnz + n)
//
// where the dense route halves lambda until it is at most
// transientTarget, as newSquarings does.
func routeCost(n, nnz int, lambda float64) (sparse, dense float64) {
	terms := seriesTerms(lambda)
	if terms > subnormalTerms {
		terms = subnormalTerms + subnormalFactor*(terms-subnormalTerms)
	}
	sparse = sparseNsPerEntry * sparseApplications * float64(nnz) * terms
	doublings := 0
	for lambda > transientTarget {
		lambda /= 2
		doublings++
	}
	fn := float64(n)
	dense = denseNsPerCube*fn*fn*fn*float64(doublings) + denseNsPerBase*seriesTerms(lambda)*fn*(float64(nnz)+fn)
	return sparse, dense
}

// seriesTerms is the length of a uniformization series of mass lambda:
// linalg.PoissonWeights' first truncation point.
func seriesTerms(lambda float64) float64 { return lambda + 6*math.Sqrt(lambda) + 10 }

// routeSparse reports whether the cost model expects the sparse
// formulation to solve g faster than the dense one, with the ratio of
// the two estimates. Graphs outside the solver's class route dense,
// which reports the structural error.
func routeSparse(ws *linalg.Workspace, g *petri.Graph) (sparse bool, ratio float64) {
	n := g.NumStates()
	if n == 0 || !g.HasDeterministic() {
		return false, 0
	}
	delay, err := commonDelay(g)
	if err != nil {
		return false, 0
	}
	exits := ws.Vec(n)
	defer ws.PutVec(exits)
	for _, e := range g.Exp {
		exits[e.From] += e.Rate
	}
	maxExit := 0.0
	for _, x := range exits {
		maxExit = max(maxExit, x)
	}
	s, d := routeCost(n, g.SparsePlan().NNZ(), linalg.UniformizationRate(maxExit)*delay)
	return s < d, s / d
}
