package mrgp

import (
	"context"
	"fmt"
	"math"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// Power-iteration limits for the sparse embedded chain. The tolerance is on
// the L1 change per cycle; the stall band accepts the float64 rounding
// floor when improvement dies out, mirroring linalg.SteadyStateGS.
const (
	embTol       = 1e-15
	embStallTol  = 1e-12
	embMaxCycles = 50000
)

// solveSparse computes the steady state of a clocked DSPN without ever
// materializing a dense matrix. The embedded chain P = e^{Q tau} D is
// never formed: its stationary vector is found by power iteration
//
//	v <- normalize((v * e^{Q tau}) * D)
//
// where v * e^{Q tau} is the matrix-free uniformization series (cur <-
// cur + (cur*Q)/rate per Poisson term) and D is the CSR clock branching
// matrix cached on the graph topology. e^{Q tau} is strictly positive on
// an irreducible subordinated chain, so the iteration contracts onto the
// stationary vector of the unique closed class of P — the same limit the
// dense path extracts by classifying the recurrent class explicitly — and
// the mass it places on epoch-transient states decays geometrically to
// zero. Occupancy then follows from one matrix-free integral series.
//
// Memory is O(nnz + n) against the dense path's O(n^2), and a cycle costs
// O(rate*tau) sparse matvecs, so the solver reaches state spaces the
// dense path cannot hold. linalg.ErrNotConverged (wrapped) signals the
// caller to fall back to solveDense. It returns the embedded-chain cycle
// count alongside the solution.
//
// The cycle loop checks ctx once per cycle (each cycle is a full
// uniformization series, so the granularity is coarse but each check is
// negligible) and returns a typed SolveError{Kind: FailDeadline} when it
// dies; a nil context never checks.
//
// seed is an optional warm start for the embedded iteration: a seed
// accepted by linalg.ApplySeed replaces the uniform starting vector
// (warm reports true) — typically the Embedded vector of a neighboring
// parameter point on the same topology. The iteration contracts onto the
// same fixed point from any starting distribution with mass on the closed
// class, and any mass a stale seed puts on epoch-transient states decays
// geometrically, so only the cycle count changes. A nil or rejected seed
// reproduces the cold solve bit for bit.
func solveSparse(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, seed []float64) (sol *Solution, cycles int, warm bool, err error) {
	n := g.NumStates()
	if n == 0 {
		return nil, 0, false, petri.ErrNoStates
	}
	if !g.HasDeterministic() {
		return nil, 0, false, ErrNoDeterministic
	}
	delay, err := commonDelay(g)
	if err != nil {
		return nil, 0, false, err
	}
	metSolveSparse.Inc()

	q, err := g.GeneratorCSR(ws)
	if err != nil {
		return nil, 0, false, err
	}
	defer ws.PutCSR(q)
	d := g.DetBranchCSR()
	rate := q.MaxAbsDiag() * 1.02

	v := ws.Vec(n)
	moved := ws.Vec(n)
	next := ws.Vec(n)
	defer ws.PutVec(v)
	defer ws.PutVec(moved)
	defer ws.PutVec(next)
	warm = linalg.ApplySeed(v, seed)
	if !warm {
		for i := range v {
			v[i] = 1 / float64(n)
		}
	}

	converged := false
	prev := math.Inf(1)
	stall := 0
	lastDelta := math.Inf(1)
	// The embedded-chain span must close before the occupancy span opens
	// (they are sibling kernels under mrgp.rung.sparse), so it ends via
	// this helper on every exit from the loop rather than a defer that
	// would stretch it over the integral below.
	_, ksp := obs.StartSpan(ctx, "mrgp.kernel.embedded")
	kspEnded := false
	endEmbedded := func(err error) {
		if kspEnded {
			return
		}
		kspEnded = true
		ksp.Int("cycles", int64(cycles)).Int("nnz", int64(q.NNZ())).Float("residual", lastDelta).Err(err)
		ksp.End()
	}
	defer endEmbedded(nil)
	for cycle := 0; cycle < embMaxCycles; cycle++ {
		if err := linalg.CtxError("mrgp.power", ctx); err != nil {
			return nil, 0, false, err
		}
		if faultinject.Enabled() {
			fiMrgpPanic.Panic()
			if fiPowerStall.Fire() {
				return nil, 0, false, &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNotConverged, Index: -1,
					Err: fmt.Errorf("%w: injected embedded power stall at cycle %d", linalg.ErrNotConverged, cycle)}
			}
		}
		if _, err := ws.UniformizedPowerCSR(q, v, delay, rate, truncationEpsilon, moved); err != nil {
			return nil, 0, false, err
		}
		if err := d.VecMulInto(next, moved); err != nil {
			return nil, 0, false, err
		}
		var delta, norm float64
		for i := range next {
			norm += next[i]
		}
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			return nil, 0, false, &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNaN, Index: -1,
				Err: fmt.Errorf("mrgp: embedded iterate went non-finite at cycle %d", cycle)}
		}
		if norm <= 0 {
			return nil, 0, false, &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNotConverged, Index: -1,
				Err: fmt.Errorf("mrgp: embedded iterate vanished at cycle %d", cycle)}
		}
		inv := 1 / norm
		for i := range next {
			next[i] *= inv
			diff := next[i] - v[i]
			if diff < 0 {
				diff = -diff
			}
			delta += diff
		}
		v, next = next, v
		cycles = cycle + 1
		lastDelta = delta
		if delta <= embTol {
			converged = true
			break
		}
		if delta >= prev*0.98 {
			if stall++; stall >= 10 && delta <= embStallTol {
				converged = true
				break
			}
		} else {
			stall = 0
		}
		prev = delta
	}
	metPowerCycles.Add(int64(cycles))
	metPowerResidual.Set(lastDelta)
	if !converged {
		err := &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNotConverged, Index: -1, Residual: lastDelta,
			Err: fmt.Errorf("%w: embedded power iteration after %d cycles", linalg.ErrNotConverged, embMaxCycles)}
		endEmbedded(err)
		return nil, 0, false, err
	}
	endEmbedded(nil)

	sigma := make([]float64, n)
	copy(sigma, v)

	occupancy := make([]float64, n)
	_, osp := obs.StartSpan(ctx, "mrgp.kernel.occupancy")
	_, oerr := ws.UniformizedIntegralCSR(q, sigma, delay, rate, truncationEpsilon, occupancy)
	osp.Err(oerr)
	osp.End()
	if oerr != nil {
		return nil, 0, false, oerr
	}
	linalg.Normalize(occupancy)

	return &Solution{Pi: occupancy, Embedded: sigma, Delay: delay}, cycles, warm, nil
}
