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
// the L1 change per cycle, floored at embTolFor(n); the stall band
// accepts the float64 rounding floor when improvement dies out, mirroring
// linalg.SteadyStateGS.
const (
	embTol       = 1e-15
	embStallTol  = 1e-12
	embMaxCycles = 50000
)

// embTolFor is the finisher's acceptance tolerance for an n-state chain:
// the L1 delta at the float64 floor, n*2^-55 (a quarter of n unit
// roundoffs, u = 2^-53), and embTol where that is smaller (n < 36).
// Normalizing divides by a sum of n entries, whose rounding error is of
// order sqrt(n)*u and at most (n-1)*u, so a cycle at the fixed point
// still moves the vector by about that much in L1; the floor sits
// sqrt(n)/4 noise widths up and 4x under the worst case (DESIGN.md
// section 7).
func embTolFor(n int) float64 {
	return max(embTol, float64(n)*0x1p-55)
}

// Restarted-GMRES limits for the Krylov start of the embedded chain: the
// basis size per restart, the absolute tolerance on ||x - xP||_2, and the
// restart cap after which the power finisher takes over from whatever
// progress was made. A restart that fails to halve the residual of the
// one before it also hands over: restarted GMRES can stagnate, the power
// iteration cannot. Below krylovFloor the residual estimate is at the
// rounding floor of an operator application, and an Arnoldi step that
// fails to halve it there ends the stage: its column is dropped, so the
// back-substitution never divides by the near-zero pivot such a step
// leaves. krylovNegTol bounds the negative mass a result may carry
// relative to its positive mass: the clipped negatives are meant to be
// rounding noise on epoch-transient states, not part of the answer.
const (
	krylovRestart     = 20
	krylovTol         = 2e-15
	krylovMaxRestarts = 8
	krylovFloor       = 1e-13
	krylovNegTol      = 1e-12
)

// Why the Krylov stage stopped, recorded on the mrgp.kernel.embedded span.
const (
	krylovStopTol       = "tolerance" // residual estimate at krylovTol, or an exact breakdown
	krylovStopFloor     = "floor"     // an Arnoldi step stagnated under krylovFloor
	krylovStopRestart   = "restart"   // a restart failed to halve the residual
	krylovStopCap       = "cap"       // krylovMaxRestarts restarts ran
	krylovStopDiscarded = "discarded" // the result was thrown away; v kept its start
)

// solveSparse computes the steady state of a clocked DSPN without ever
// materializing a dense matrix. The embedded chain P = e^{Q tau} D is
// never formed: one operator application
//
//	v -> (v * e^{Q tau}) * D
//
// is the matrix-free uniformization series (cur <- cur + (cur*Q)/rate per
// Poisson term, a gather over Q's plan-stamped transpose, laid out once
// per solve) followed by the clock branching matrix, whose transpose is
// cached on the graph topology. The stationary vector is found in two
// stages on that one operator:
//
//  1. a restarted GMRES solve of x(I - P) = 0 (embeddedOp.krylov), which
//     reaches the rounding floor in tens of applications where plain
//     power iteration needs hundreds;
//  2. the power iteration v <- normalize(vP) as finisher and acceptance
//     test, with the tolerance embTolFor(n), the stall band and the cycle
//     cap. e^{Q tau} is strictly positive on an irreducible subordinated
//     chain, so the iteration contracts onto the stationary vector of the
//     unique closed class of P — the same limit the dense path extracts
//     by classifying the recurrent class explicitly — from any start, and
//     the mass it places on epoch-transient states decays geometrically.
//
// A Krylov result that broke down, went non-finite, lost its mass or
// carries more than rounding-level negative mass is discarded and the
// finisher runs from the original start, so the Krylov stage can change
// how many applications a solve takes but never which criterion the
// accepted vector passes. Every finisher cycle also integrates its input
// over the clock period in the same series pass (the series' second
// accumulator), so the cycle that passes the acceptance test yields the
// occupancy too: its input is the embedded vector sigma, and pi is the
// normalized integral sigma * Integral_0^tau e^{Qs} ds.
//
// Memory is O(nnz + restart*n) against the dense path's O(n^2), and an
// application costs O(rate*tau) sparse matvecs, so the solver reaches
// state spaces the dense path cannot hold. linalg.ErrNotConverged
// (wrapped) signals the caller to fall back to solveDense. It returns the
// number of operator applications, Krylov and finisher together,
// alongside the solution.
//
// ctx is checked before every application (each is a full uniformization
// series, so the granularity is coarse but each check is negligible) and
// its expiry returns a typed SolveError{Kind: FailDeadline}; a nil context
// never checks.
//
// seed is an optional warm start: a seed accepted by linalg.ApplySeed
// replaces the uniform starting vector (warm reports true) — typically the
// Embedded vector of a neighboring parameter point on the same topology.
// Both stages converge to the same fixed point from any starting
// distribution with mass on the closed class, so only the application
// count changes. A nil or rejected seed reproduces the cold solve bit for
// bit.
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

	qt, err := g.GeneratorCSRTranspose(ws)
	if err != nil {
		return nil, 0, false, err
	}
	defer ws.PutCSR(qt)

	v := ws.Vec(n)
	moved := ws.Vec(n)
	next := ws.Vec(n)
	defer ws.PutVec(v)
	defer ws.PutVec(moved)
	defer ws.PutVec(next)
	op := embeddedOp{ws: ws, layout: ws.SeriesLayout(qt), dt: g.DetBranchTranspose(), delay: delay,
		rate: linalg.UniformizationRate(qt.MaxAbsDiag()), moved: moved}
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
	tol := embTolFor(n)
	occupancy := make([]float64, n)
	// The embedded-chain span must close before the occupancy span opens
	// (they are sibling kernels under mrgp.rung.sparse), so it ends via
	// this helper on every exit from the loop rather than a defer that
	// would stretch it over the normalization below.
	_, ksp := obs.StartSpan(ctx, "mrgp.kernel.embedded")
	kspEnded := false
	krylov, finisher := 0, 0
	stop := ""
	endEmbedded := func(err error) {
		if kspEnded {
			return
		}
		kspEnded = true
		ksp.Int("cycles", int64(cycles)).Int("krylov", int64(krylov)).Str("krylov_stop", stop).
			Int("finisher", int64(finisher)).Int("nnz", int64(qt.NNZ())).Float("residual", lastDelta).Err(err)
		ksp.End()
	}
	defer endEmbedded(nil)
	krylov, stop, err = op.krylov(ctx, v)
	if err != nil {
		return nil, 0, false, err
	}
	cycles = krylov
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
		if err := op.apply(next, v, occupancy); err != nil {
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
		// The input moves to next: if this cycle is accepted it is sigma,
		// the vector occupancy integrated.
		v, next = next, v
		finisher = cycle + 1
		cycles = krylov + finisher
		lastDelta = delta
		if delta <= tol {
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

	// The accepted cycle's input (swapped into next) is sigma, and its
	// integral over the clock period is already in occupancy.
	sigma := make([]float64, n)
	copy(sigma, next)
	_, osp := obs.StartSpan(ctx, "mrgp.kernel.occupancy")
	linalg.Normalize(occupancy)
	osp.Str("series", "embedded").End()

	return &Solution{Pi: occupancy, Embedded: sigma, Delay: delay}, cycles, warm, nil
}

// embeddedOp is the matrix-free embedded-chain operator x -> xP with
// P = e^{Q tau} D: one uniformization series into moved, then the clock
// branching matrix. Krylov and power stages apply the same operator over
// one layout of Q's transpose, so each application costs exactly one
// series whichever stage asks. Both matrices are held transposed, the
// layout of the gather products.
type embeddedOp struct {
	ws     *linalg.Workspace
	layout *linalg.SELL
	dt     *linalg.CSR
	delay  float64
	rate   float64
	moved  []float64
}

// apply writes src*P into dst and, when occupancy is non-nil,
// src * Integral_0^tau e^{Qs} ds into occupancy from the same series.
func (op *embeddedOp) apply(dst, src, occupancy []float64) error {
	if err := op.ws.UniformizedSELL(op.layout, src, op.delay, op.rate, truncationEpsilon, op.moved, occupancy); err != nil {
		return err
	}
	return op.dt.MulVecInto(dst, op.moved)
}

// krylov refines the distribution v towards the stationary vector of P
// with restarted GMRES on the singular system x(I - P) = 0, started from
// x0 = v. Every Krylov vector of the residual r0 = x0 P - x0 sums to zero
// (P is stochastic), so the corrections keep x0's unit mass and the only
// solution the iteration can reach is the stationary vector itself. Each
// restart spends one application on the true residual and at most
// krylovRestart more on Arnoldi steps (modified Gram-Schmidt, Givens
// rotations on the Hessenberg least-squares problem); it stops once the
// residual estimate is below krylovTol, when an Arnoldi step stagnates at
// the rounding floor (that step's column is dropped), after
// krylovMaxRestarts, or when a restart has stagnated. GMRES on a singular
// system keeps taking steps past its attainable residual, with Givens
// pivots shrinking towards zero, and the back-substitution would divide
// by them (Brown and Walker, SIAM J. Matrix Anal. Appl. 18(1), 1997).
//
// The accepted result has its rounding-level negatives (the epoch-
// transient states, whose stationary mass is zero) clipped and is
// renormalized into v. On a breakdown of the least-squares problem, a
// non-finite result, zero mass or a clipped negative mass above
// krylovNegTol times the positive mass the result is discarded
// (mrgp.krylov.discarded) and v is left exactly as it was, so the power
// finisher runs bit for bit as it would have without this stage. All
// storage comes from the workspace. It returns the number of operator
// applications and why the stage stopped; the only errors are a dead ctx
// and operator failures.
func (op *embeddedOp) krylov(ctx context.Context, v []float64) (applied int, stop string, err error) {
	ws, n := op.ws, len(v)
	m := min(krylovRestart, n)
	var basis [krylovRestart + 1][]float64
	for i := range basis[:m+1] {
		basis[i] = ws.Vec(n)
	}
	x, w := ws.Vec(n), ws.Vec(n)
	h := ws.Vec((m + 1) * m) // Hessenberg, row-major: h[i*m+j]
	cs, sn, y := ws.Vec(m), ws.Vec(m), ws.Vec(m)
	g := ws.Vec(m + 1)
	defer func() {
		for i := range basis[:m+1] {
			ws.PutVec(basis[i])
		}
		for _, s := range [...][]float64{x, w, h, cs, sn, y, g} {
			ws.PutVec(s)
		}
	}()
	step := func(dst, src []float64) error {
		if err := linalg.CtxError("mrgp.krylov", ctx); err != nil {
			return err
		}
		applied++
		return op.apply(dst, src, nil)
	}
	discard := func() (int, string, error) {
		metKrylovDiscarded.Inc()
		return applied, krylovStopDiscarded, nil
	}

	copy(x, v)
	prevBeta := math.Inf(1)
	stop = krylovStopCap
	for restart := 0; restart < krylovMaxRestarts; restart++ {
		if err := step(w, x); err != nil {
			return applied, "", err
		}
		r := basis[0]
		var beta float64
		for i := range r {
			r[i] = w[i] - x[i]
			beta += r[i] * r[i]
		}
		beta = math.Sqrt(beta)
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			return discard()
		}
		if beta <= krylovTol {
			stop = krylovStopTol
			break
		}
		if beta > prevBeta/2 {
			stop = krylovStopRestart
			break
		}
		prevBeta = beta
		for i := range r {
			r[i] /= beta
		}
		clear(g)
		g[0] = beta
		k, done := 0, false
		for j := 0; j < m; j++ {
			if err := step(w, basis[j]); err != nil {
				return applied, "", err
			}
			// u = v_j (I - P), orthogonalized against the basis so far.
			u, vj := basis[j+1], basis[j]
			for i := range u {
				u[i] = vj[i] - w[i]
			}
			for i := 0; i <= j; i++ {
				bi := basis[i]
				var hij float64
				for l := range u {
					hij += u[l] * bi[l]
				}
				for l := range u {
					u[l] -= hij * bi[l]
				}
				h[i*m+j] = hij
			}
			var hn float64
			for _, ul := range u {
				hn += ul * ul
			}
			hn = math.Sqrt(hn)
			for i := 0; i < j; i++ {
				a, b := h[i*m+j], h[(i+1)*m+j]
				h[i*m+j] = cs[i]*a + sn[i]*b
				h[(i+1)*m+j] = -sn[i]*a + cs[i]*b
			}
			rho := math.Hypot(h[j*m+j], hn)
			if rho == 0 || math.IsNaN(rho) || (faultinject.Enabled() && fiKrylovBreakdown.Fire()) {
				return discard()
			}
			c, s := h[j*m+j]/rho, hn/rho
			// The step would cut the residual estimate from |g[j]| to
			// |s*g[j]|. At the floor, a cut by less than half is rounding:
			// leave column j out and stop.
			if math.Abs(g[j]) <= krylovFloor && math.Abs(s) > 0.5 {
				stop, done = krylovStopFloor, true
				break
			}
			cs[j], sn[j] = c, s
			h[j*m+j] = rho
			g[j+1] = -s * g[j]
			g[j] *= c
			k = j + 1
			if math.Abs(g[j+1]) <= krylovTol || hn == 0 {
				stop, done = krylovStopTol, true
				break
			}
			for i := range u {
				u[i] /= hn
			}
		}
		// Back-substitute the rotated triangle and take the step x += V y.
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for l := i + 1; l < k; l++ {
				s -= h[i*m+l] * y[l]
			}
			y[i] = s / h[i*m+i]
		}
		for i := 0; i < k; i++ {
			bi, yi := basis[i], y[i]
			for l := range x {
				x[l] += yi * bi[l]
			}
		}
		if done {
			break
		}
	}

	if !acceptKrylov(v, x) {
		return discard()
	}
	return applied, stop, nil
}

// acceptKrylov clips the negatives of a Krylov result x and writes it,
// renormalized, into v. It leaves v untouched and reports false when x
// has a non-finite entry, no positive mass, or clipped negative mass
// above krylovNegTol times its positive mass: such a vector is not the
// stationary vector up to rounding, whatever its residual estimate says.
func acceptKrylov(v, x []float64) bool {
	var mass, neg float64
	for i, xi := range x {
		if math.IsNaN(xi) || math.IsInf(xi, 0) {
			return false
		}
		if xi < 0 {
			neg -= xi
			x[i] = 0
			continue
		}
		mass += xi
	}
	if !(mass > 0) || math.IsInf(mass, 0) || neg > krylovNegTol*mass {
		return false
	}
	inv := 1 / mass
	for i := range v {
		v[i] = x[i] * inv
	}
	return true
}
