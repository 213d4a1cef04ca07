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

// Restarted-GMRES limits for the Krylov start of the embedded chain: the
// basis size per restart, the absolute tolerance on ||x - xP||_2, and the
// restart cap after which the power finisher takes over from whatever
// progress was made. A restart that fails to halve the residual of the
// one before it also hands over: restarted GMRES can stagnate, the power
// iteration cannot.
const (
	krylovRestart     = 20
	krylovTol         = 2e-15
	krylovMaxRestarts = 8
)

// solveSparse computes the steady state of a clocked DSPN without ever
// materializing a dense matrix. The embedded chain P = e^{Q tau} D is
// never formed: one operator application
//
//	v -> (v * e^{Q tau}) * D
//
// is the matrix-free uniformization series (cur <- cur + (cur*Q)/rate per
// Poisson term, a gather over Q's plan-stamped transpose) followed by the
// clock branching matrix, whose transpose is cached on the graph topology. The stationary vector is found in two stages on that
// one operator:
//
//  1. a restarted GMRES solve of x(I - P) = 0 (embeddedOp.krylov), which
//     reaches the rounding floor in tens of applications where plain
//     power iteration needs hundreds;
//  2. the power iteration v <- normalize(vP) as finisher and acceptance
//     test, with the tolerance, stall band and cycle cap it has always
//     had. e^{Q tau} is strictly positive on an irreducible subordinated
//     chain, so the iteration contracts onto the stationary vector of the
//     unique closed class of P — the same limit the dense path extracts
//     by classifying the recurrent class explicitly — from any start, and
//     the mass it places on epoch-transient states decays geometrically.
//
// A Krylov result that broke down, went non-finite or lost its mass is
// discarded and the finisher runs from the original start, so the Krylov
// stage can change how many applications a solve takes but never which
// vector is accepted. Occupancy then follows from one matrix-free
// integral series.
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
	op := embeddedOp{ws: ws, qt: qt, dt: g.DetBranchTranspose(), delay: delay, rate: linalg.UniformizationRate(qt.MaxAbsDiag()), moved: moved}
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
	krylov := 0
	endEmbedded := func(err error) {
		if kspEnded {
			return
		}
		kspEnded = true
		ksp.Int("cycles", int64(cycles)).Int("krylov", int64(krylov)).Int("nnz", int64(qt.NNZ())).Float("residual", lastDelta).Err(err)
		ksp.End()
	}
	defer endEmbedded(nil)
	krylov, err = op.krylov(ctx, v)
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
		if err := op.apply(next, v); err != nil {
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
		cycles = krylov + cycle + 1
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
	_, oerr := ws.UniformizedIntegralCSR(qt, sigma, delay, op.rate, truncationEpsilon, occupancy)
	osp.Err(oerr)
	osp.End()
	if oerr != nil {
		return nil, 0, false, oerr
	}
	linalg.Normalize(occupancy)

	return &Solution{Pi: occupancy, Embedded: sigma, Delay: delay}, cycles, warm, nil
}

// embeddedOp is the matrix-free embedded-chain operator x -> xP with
// P = e^{Q tau} D: one uniformization series into moved, then the clock
// branching matrix. Krylov and power stages apply the same operator, so
// each application costs exactly one series whichever stage asks. Both
// matrices are held transposed, the layout of the gather products.
type embeddedOp struct {
	ws    *linalg.Workspace
	qt    *linalg.CSR
	dt    *linalg.CSR
	delay float64
	rate  float64
	moved []float64
}

// apply writes src*P into dst.
func (op *embeddedOp) apply(dst, src []float64) error {
	if _, err := op.ws.UniformizedPowerCSR(op.qt, src, op.delay, op.rate, truncationEpsilon, op.moved); err != nil {
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
// residual estimate is below krylovTol, after krylovMaxRestarts, or when
// a restart has stagnated.
//
// The accepted result has its rounding-level negatives (the epoch-
// transient states, whose stationary mass is zero) clipped and is
// renormalized into v. On a breakdown of the least-squares problem, a
// non-finite result or zero mass the result is discarded and v is left
// exactly as it was, so the power finisher runs bit for bit as it would
// have without this stage. All storage comes from the workspace. It
// returns the number of operator applications; the only errors are a
// dead ctx and operator failures.
func (op *embeddedOp) krylov(ctx context.Context, v []float64) (applied int, err error) {
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
		return op.apply(dst, src)
	}
	discard := func() (int, error) {
		metKrylovDiscarded.Inc()
		return applied, nil
	}

	copy(x, v)
	prevBeta := math.Inf(1)
	for restart := 0; restart < krylovMaxRestarts; restart++ {
		if err := step(w, x); err != nil {
			return applied, err
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
		if beta <= krylovTol || beta > prevBeta/2 {
			break
		}
		prevBeta = beta
		for i := range r {
			r[i] /= beta
		}
		clear(g)
		g[0] = beta
		k, converged := 0, false
		for j := 0; j < m; j++ {
			if err := step(w, basis[j]); err != nil {
				return applied, err
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
			cs[j], sn[j] = h[j*m+j]/rho, hn/rho
			h[j*m+j] = rho
			g[j+1] = -sn[j] * g[j]
			g[j] *= cs[j]
			k = j + 1
			if math.Abs(g[j+1]) <= krylovTol || hn == 0 {
				converged = true
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
		if converged {
			break
		}
	}

	var mass float64
	for i, xi := range x {
		if math.IsNaN(xi) || math.IsInf(xi, 0) {
			return discard()
		}
		if xi < 0 {
			x[i] = 0
			continue
		}
		mass += xi
	}
	if !(mass > 0) || math.IsInf(mass, 0) {
		return discard()
	}
	inv := 1 / mass
	for i := range v {
		v[i] = x[i] * inv
	}
	return applied, nil
}
