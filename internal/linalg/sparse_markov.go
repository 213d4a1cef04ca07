package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nvrel/internal/faultinject"
)

// ErrNotConverged is returned by the iterative sparse solvers when the
// iteration budget runs out before the convergence criterion is met.
// Callers fall back to the dense direct solvers (the GTH backstop).
var ErrNotConverged = errors.New("linalg: iterative solver did not converge")

// SparseThreshold is the state count at and above which the CTMC
// steady-state routing prefers sparse Gauss-Seidel over dense GTH. Below
// it the dense direct method wins on constant factors; above it the
// sparse kernels' O(nnz) sweeps and O(n) memory dominate. The value was
// chosen from the crossover curves the old bench command's scale mode
// recorded (since deleted): the CTMC steady state crosses over at ~153
// states, so 160 sits in the tie band where no family loses measurably;
// nvp's BenchmarkSolveScale re-measures those rungs. The same count
// gates warm-start seeding (nvp.WarmRegistry), and nothing else reads
// it. Transient vector series take no route: they always run the CSR
// kernels, which win at every size. The MRGP transient matrix pair takes
// none either: it is dense scaling and doubling at every size (DESIGN.md
// section 7). The clock-synchronous MRGP solve routes each solve by
// estimated cost instead, because its crossover depends on rate*tau
// rather than on the state count (at 70 states the sparse route is ~4x
// faster at tau = 100 s and ~20x slower at 3000 s).
const SparseThreshold = 160

// GS iteration limits. The tolerance is on the L1 change of the iterate per
// sweep relative to its L1 norm; the stall detection accepts the attainable
// rounding floor when the sweep-to-sweep improvement dies out.
const (
	gsTol       = 1e-14
	gsStallTol  = 1e-10
	gsMaxSweeps = 200000
)

// SteadyStateGS computes the stationary distribution of an irreducible
// CTMC by Gauss-Seidel sweeps over pi*Q = 0. qt must be the TRANSPOSE of
// the generator in CSR form (row j lists the incoming rates q_ij, plus the
// diagonal q_jj), because the update for pi_j consumes column j of Q:
//
//	pi_j <- (sum_{i != j} pi_i q_ij) / |q_jj|
//
// with immediate (in-place) updates and a normalization per sweep. For the
// lattice-shaped reachability graphs of the perception models Gauss-Seidel
// converges in tens to hundreds of sweeps where power iteration on the
// uniformized chain would need rate-ratio many; each sweep costs O(nnz).
//
// The result is written into dst (length n). The sweep count, whether a
// seed was used, and the final relative L1 residual of the accepting sweep
// (delta/norm — the number the convergence criterion compares against
// gsTol, zero for the trivial one-state chain) are returned so callers can
// surface convergence behavior.
//
// seed is an optional warm-start initial guess: when it passes ApplySeed
// (right length, finite, non-negative, positive mass) the sweeps start from
// its normalized copy instead of the uniform vector and warm is true. The
// convergence criterion, validation guards, and failure taxonomy are
// identical either way — a seed only moves the starting point of an
// iteration that contracts onto the same stationary vector — and a nil or
// unusable seed reproduces the cold solve bit for bit.
//
// The sweep loop checks ctx for cancellation every 64 sweeps and returns a
// typed SolveError{Kind: FailDeadline} when it dies; a nil context never
// checks. Every failure is a typed *SolveError: the generator is validated
// before the first sweep (sign pattern, finiteness, conservation — so a
// corrupted stamp is rejected instead of iterated on), a non-finite
// iterate is detected the sweep it appears, and an exhausted budget
// carries Kind FailNotConverged (wrapping ErrNotConverged); callers then
// fall back along the chain.
func (ws *Workspace) SteadyStateGS(ctx context.Context, qt *CSR, dst, seed []float64) (sweeps int, warm bool, residual float64, err error) {
	rows, cols := qt.Dims()
	if rows != cols {
		return 0, false, 0, ErrDimensionMismatch
	}
	n := rows
	if len(dst) != n {
		return 0, false, 0, ErrDimensionMismatch
	}
	if err := ValidateGeneratorCSR("linalg.gs", qt); err != nil {
		metGSRejected.Inc()
		return 0, false, 0, err
	}
	metGSSolves.Inc()
	if n == 1 {
		dst[0] = 1
		return 0, false, 0, nil
	}
	if !ApplySeed(dst, seed) {
		for i := range dst {
			dst[i] = 1 / float64(n)
		}
	} else {
		warm = true
	}
	prev := math.Inf(1)
	stall := 0
	for sweep := 0; sweep < gsMaxSweeps; sweep++ {
		if sweep&63 == 0 {
			if err := CtxError("linalg.gs", ctx); err != nil {
				return sweep, warm, 0, err
			}
		}
		if faultinject.Enabled() {
			fiKernelPanic.Panic()
			if fiGSStall.Fire() {
				return sweep, warm, 0, &SolveError{Site: "linalg.gs", Kind: FailNotConverged, Index: -1,
					Err: fmt.Errorf("%w: injected Gauss-Seidel stall at sweep %d", ErrNotConverged, sweep)}
			}
			if fiGSPoison.Fire() {
				dst[0] = math.NaN()
			}
		}
		var delta, norm float64
		for j := 0; j < n; j++ {
			var s, diag float64
			for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
				c := qt.ColIdx[k]
				if c == j {
					diag = qt.Vals[k]
					continue
				}
				s += qt.Vals[k] * dst[c]
			}
			if diag >= 0 {
				return sweep, warm, 0, &SolveError{Site: "linalg.gs", Kind: FailGenerator, Index: j, Value: diag,
					Err: fmt.Errorf("linalg: state %d has no exit rate (chain not irreducible?)", j)}
			}
			v := s / -diag
			d := v - dst[j]
			if d < 0 {
				d = -d
			}
			delta += d
			dst[j] = v
			norm += v
		}
		metGSSweeps.Inc()
		// A NaN anywhere in the sweep poisons delta and norm, so this one
		// check catches a non-finite iterate the sweep it appears instead
		// of spinning to the budget with a poisoned vector.
		if math.IsNaN(delta) || math.IsNaN(norm) || math.IsInf(norm, 0) {
			metGSRejected.Inc()
			return sweep + 1, warm, 0, &SolveError{Site: "linalg.gs", Kind: FailNaN, Index: -1,
				Err: fmt.Errorf("linalg: Gauss-Seidel iterate went non-finite at sweep %d", sweep)}
		}
		if norm <= 0 {
			return sweep + 1, warm, 0, &SolveError{Site: "linalg.gs", Kind: FailNotConverged, Index: -1,
				Err: fmt.Errorf("linalg: Gauss-Seidel iterate vanished at sweep %d", sweep)}
		}
		normalize(dst)
		if delta <= gsTol*norm {
			metGSConverged.Inc()
			residual = delta / norm
			driftGS(dst)
			return sweep + 1, warm, residual, nil
		}
		// Stalled at the rounding floor: the iterate stopped improving but
		// sits below the acceptance band, which is as converged as float64
		// will ever get for this chain.
		if delta >= prev*0.98 {
			if stall++; stall >= 10 && delta <= gsStallTol*norm {
				metGSStalled.Inc()
				residual = delta / norm
				driftGS(dst)
				return sweep + 1, warm, residual, nil
			}
		} else {
			stall = 0
		}
		prev = delta
	}
	metGSExhausted.Inc()
	return gsMaxSweeps, warm, prev, &SolveError{Site: "linalg.gs", Kind: FailNotConverged, Index: -1, Residual: prev,
		Err: fmt.Errorf("%w: Gauss-Seidel after %d sweeps", ErrNotConverged, gsMaxSweeps)}
}

// driftGS applies the linalg.gs.drift chaos site to an accepted iterate:
// it moves a small fraction of the largest entry's mass onto a neighbor.
// The sum, non-negativity, and finiteness are all preserved, so every
// downstream distribution guard passes — the vector is simply wrong by
// ~1e-4 of its largest component, orders of magnitude above both the
// solver tolerance and the shadow-verification agreement bands. Inert
// unless chaos injection armed the site.
func driftGS(dst []float64) {
	if !faultinject.Enabled() || !fiGSDrift.Fire() || len(dst) < 2 {
		return
	}
	hi := 0
	for i, v := range dst {
		if v > dst[hi] {
			hi = i
		}
	}
	lo := (hi + 1) % len(dst)
	eps := dst[hi] * 1e-4
	dst[hi] -= eps
	dst[lo] += eps
}

// UniformizedSELL computes pi * e^{Q t} for a generator Q without ever
// materializing the uniformized DTMC: one series step is
//
//	cur <- cur + (cur * Q) / rate
//
// which is algebraically cur * (I + Q/rate). l is the SeriesLayout of the
// TRANSPOSE of Q in CSR form (petri.Graph.GeneratorCSRTranspose,
// CSRFromDenseT or TransposeCSR), so cur * Q is a register gather over
// its rows, run as the fused chunk pass of Workspace.series. The same
// pass computes pi * Integral_0^t e^{Q s} ds with the tail-weight identity
//
//	Integral_0^t e^{Qs} ds = (1/rate) * sum_{k>=0} tailP(k) * P^k,
//
// where tailP(k) = P[K > k] for K ~ Poisson(rate*t); dotted with a reward
// vector it is the expected reward accumulated over [0, t] from pi. The
// power goes into dst and the integral into integral, each when non-nil
// (at least one must be), each with the bits its own series gives. rate
// is the uniformization rate (UniformizationRate of max_i |Q[i,i]|);
// with rate or t zero the results are pi and t*pi. All scratch comes from
// the workspace, so repeated calls at a stamped size run allocation-free.
func (ws *Workspace) UniformizedSELL(l *SELL, pi []float64, t, rate, epsilon float64, dst, integral []float64) error {
	n := len(l.perm)
	if len(pi) != n || dst != nil && len(dst) != n || integral != nil && len(integral) != n ||
		dst == nil && integral == nil || t < 0 || rate < 0 {
		return ErrDimensionMismatch
	}
	if !trivialSeries(pi, t, rate, dst, integral) {
		ws.uniformized(l, pi, t, rate, epsilon, dst, integral)
	}
	return nil
}

// trivialSeries writes the results of a series that needs no terms, at
// t = 0 or rate = 0, into the non-nil outputs: e^{Qt} is the identity
// there, and the integral is 0 at t = 0 and t*pi at rate 0. It reports
// whether it did.
func trivialSeries(pi []float64, t, rate float64, power, integral []float64) bool {
	if t != 0 && rate != 0 {
		return false
	}
	if power != nil {
		copy(power, pi)
	}
	if integral != nil {
		clear(integral)
		if t != 0 {
			for i := range integral {
				integral[i] = t * pi[i]
			}
		}
	}
	return true
}

// uniformized runs one series of mass rate*t over l into the non-nil
// outputs: power gets the Poisson weights as coefficients, integral the
// tail weights tailP(k)/rate, and with both the pass is shared.
func (ws *Workspace) uniformized(l *SELL, pi []float64, t, rate, epsilon float64, power, integral []float64) {
	weights, right := ws.Poisson(rate*t, epsilon)
	invRate := 1 / rate
	metUnifSeries.Inc()
	metUnifTerms.Add(int64(right) + 1)
	var tail []float64
	if integral != nil {
		// Term k's coefficient is tailP(k)/rate.
		tail = ws.Vec(right + 1)
		acc := 0.0
		for k := 0; k <= right; k++ {
			acc += weights[k]
			tk := 1 - acc
			if tk < 0 {
				tk = 0
			}
			tail[k] = tk * invRate
		}
		clear(integral)
	}
	if power != nil {
		clear(power)
		ws.series(l, pi, invRate, weights[:right+1], power, tail, integral)
	} else {
		ws.series(l, pi, invRate, tail, integral, nil, nil)
	}
	if integral == nil {
		return
	}
	ws.PutVec(tail)
	// The truncated series omits sum_{k>right} tail(k)/rate ~= 0 by choice
	// of right, and analytically the integral masses sum to t: restore that
	// when the discrepancy is pure truncation noise (a larger scale factor
	// would hide a real problem).
	var total float64
	for _, v := range integral {
		total += v
	}
	if total > 0 {
		scale := t / total
		if math.Abs(scale-1) < 1e-6 {
			for i := range integral {
				integral[i] *= scale
			}
		}
	}
}
