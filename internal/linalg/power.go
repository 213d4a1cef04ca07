package linalg

import (
	"context"
	"fmt"
	"math"

	"nvrel/internal/faultinject"
)

// Uniformized power-iteration limits. Power iteration converges at the
// rate of the subdominant eigenvalue of I + Q/rate — far slower than
// Gauss-Seidel on the lattice-shaped chains here — so it is the last rung
// of the fallback chain, not a routing choice, and gets a generous budget.
const (
	powerTol      = 1e-14
	powerStallTol = 1e-12
	powerMaxIters = 500000
)

// SteadyStatePower computes the stationary distribution of an irreducible
// CTMC by power iteration on the uniformized DTMC, matrix-free:
//
//	pi <- normalize(pi + (pi * Q) / rate)
//
// q is the FORWARD generator in CSR form (row i lists the outgoing rates
// of state i plus the diagonal). The method needs nothing from Q beyond
// matvecs — no diagonal dominance, no elimination, no column access — so
// it survives chains that defeat both Gauss-Seidel and dense GTH, at the
// price of rate-ratio many iterations. The result is written into dst
// (length n); the iteration count is returned.
//
// ctx and seed follow the SteadyStateGS contract: the iteration checks for
// cancellation every 64 rounds (a nil context never checks), and an
// ApplySeed-accepted seed replaces the uniform starting vector (warm
// reports true) while anything else reproduces the cold solve bit for
// bit. Power iteration contracts onto the unique stationary vector from
// any starting distribution, so the seed affects only the iteration
// count, never the fixed point.
func (ws *Workspace) SteadyStatePower(ctx context.Context, q *CSR, dst, seed []float64) (iters int, warm bool, err error) {
	rows, cols := q.Dims()
	if rows != cols {
		return 0, false, ErrDimensionMismatch
	}
	n := rows
	if len(dst) != n {
		return 0, false, ErrDimensionMismatch
	}
	if err := ValidateGeneratorCSR("linalg.power", q); err != nil {
		return 0, false, err
	}
	metPowerSolves.Inc()
	if n == 1 {
		dst[0] = 1
		return 0, false, nil
	}
	rate := UniformizationRate(q.MaxAbsDiag())
	if rate == 0 {
		return 0, false, &SolveError{Site: "linalg.power", Kind: FailGenerator, Index: -1,
			Err: fmt.Errorf("linalg: generator has no rates (frozen chain)")}
	}
	// A state with no exit rate makes the chain absorbing (reducible), for
	// which no unique positive stationary distribution exists. GS and GTH
	// reject such chains; the backstop must not quietly accept them.
	for i := 0; i < n; i++ {
		var diag float64
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if q.ColIdx[k] == i {
				diag = q.Vals[k]
				break
			}
		}
		if diag >= 0 {
			return 0, false, &SolveError{Site: "linalg.power", Kind: FailGenerator, Index: i, Value: diag,
				Err: fmt.Errorf("linalg: state %d has no exit rate (chain not irreducible?)", i)}
		}
	}
	invRate := 1 / rate
	// pi * Q is a gather over the transpose (see CSR.MulVecInto).
	qt := ws.TransposeCSR(q)
	defer ws.PutCSR(qt)
	if !ApplySeed(dst, seed) {
		for i := range dst {
			dst[i] = 1 / float64(n)
		}
	} else {
		warm = true
	}
	tmp := ws.Vec(n)
	defer ws.PutVec(tmp)

	prev := math.Inf(1)
	stall := 0
	for iter := 0; iter < powerMaxIters; iter++ {
		if iter&63 == 0 {
			if err := CtxError("linalg.power", ctx); err != nil {
				return iter, warm, err
			}
		}
		if faultinject.Enabled() {
			fiKernelPanic.Panic()
		}
		if err := qt.MulVecInto(tmp, dst); err != nil {
			return iter, warm, err
		}
		var delta, norm float64
		for i := range dst {
			v := dst[i] + tmp[i]*invRate
			d := v - dst[i]
			if d < 0 {
				d = -d
			}
			delta += d
			dst[i] = v
			norm += v
		}
		metPowerIters.Inc()
		if math.IsNaN(delta) || math.IsNaN(norm) {
			return iter + 1, warm, &SolveError{Site: "linalg.power", Kind: FailNaN, Index: -1,
				Err: fmt.Errorf("linalg: power iterate went non-finite at iteration %d", iter)}
		}
		if norm <= 0 {
			return iter + 1, warm, &SolveError{Site: "linalg.power", Kind: FailNotConverged, Index: -1,
				Err: fmt.Errorf("linalg: power iterate vanished at iteration %d", iter)}
		}
		normalize(dst)
		rel := delta / norm
		if rel <= powerTol {
			metPowerConverged.Inc()
			return iter + 1, warm, nil
		}
		// Stall acceptance mirrors SteadyStateGS: when the per-iteration
		// improvement dies at the rounding floor, the iterate is as
		// converged as float64 allows.
		if delta >= prev*0.98 {
			if stall++; stall >= 20 && rel <= powerStallTol {
				metPowerConverged.Inc()
				return iter + 1, warm, nil
			}
		} else {
			stall = 0
		}
		prev = delta
	}
	metPowerExhausted.Inc()
	return powerMaxIters, warm, &SolveError{Site: "linalg.power", Kind: FailNotConverged, Index: -1,
		Err: fmt.Errorf("%w: uniformized power iteration after %d iterations", ErrNotConverged, powerMaxIters)}
}
