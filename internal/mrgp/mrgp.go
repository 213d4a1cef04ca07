// Package mrgp solves the steady state of the Deterministic and Stochastic
// Petri Nets used by the rejuvenation architecture via Markov regenerative
// process (MRGP) analysis.
//
// The solver targets the class of DSPNs produced by the paper's models: a
// single deterministic transition (the rejuvenation clock) that is enabled
// in every tangible marking and is only reset by its own firing. Under
// these conditions the clock fires at fixed epochs tau, 2*tau, ... and those
// epochs are regeneration points of the marking process:
//
//  1. between epochs the process evolves as the subordinated CTMC with
//     generator Q built from the exponential transitions;
//  2. at an epoch the clock fires, triggering an immediate-transition
//     cascade described by a stochastic branching matrix D.
//
// The embedded chain at epochs has transition matrix  P = e^{Q tau} D.
// Its stationary vector sigma, combined with the expected sojourn times
// sigma * Integral_0^tau e^{Qt} dt, yields the time-stationary distribution.
package mrgp

import (
	"context"
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// Solver errors.
var (
	// ErrNoDeterministic is returned for graphs without any deterministic
	// transition; use Graph.SteadyState instead.
	ErrNoDeterministic = errors.New("mrgp: graph has no deterministic transition")

	// ErrClockNotAlwaysEnabled is returned when some tangible marking does
	// not enable the deterministic transition; such models are outside the
	// solver's regeneration class.
	ErrClockNotAlwaysEnabled = errors.New("mrgp: deterministic transition not enabled in every tangible marking")

	// ErrMixedClocks is returned when tangible markings enable different
	// deterministic transitions or delays.
	ErrMixedClocks = errors.New("mrgp: multiple distinct deterministic transitions or delays")
)

// Solution holds the steady-state analysis of a clocked DSPN.
type Solution struct {
	// Pi is the time-stationary distribution over tangible states.
	Pi []float64

	// Embedded is the stationary distribution of the chain embedded just
	// after clock firings.
	Embedded []float64

	// Delay is the clock period tau.
	Delay float64
}

const truncationEpsilon = 1e-12

// Opts selects how Solve runs: Seed warm-starts the sparse embedded-chain
// iteration and Rung pins one formulation; the zero value takes the
// default routed path. It is the same struct as petri.Opts.
type Opts = petri.Opts

// isStructuralErr reports model-class failures the dense path would hit
// identically, so falling back cannot recover them.
func isStructuralErr(err error) bool {
	return errors.Is(err, petri.ErrNoStates) ||
		errors.Is(err, ErrNoDeterministic) ||
		errors.Is(err, ErrClockNotAlwaysEnabled) ||
		errors.Is(err, ErrMixedClocks)
}

// isDeadline reports whether err is a typed deadline failure; the fallback
// must not rerun a slower solver against an expired clock.
func isDeadline(err error) bool {
	se, ok := linalg.AsSolveError(err)
	return ok && se.Kind == linalg.FailDeadline
}

// Solve computes the steady-state distribution of the tangible reachability
// graph g, which must enable one deterministic transition (with one common
// delay) in every tangible state. Scratch matrices and Poisson weight
// vectors come from ws (nil allocates), so sweeping a parameter over the
// same model solves allocation-light after the first point; the returned
// Solution owns its vectors either way.
//
// With zero Opts it is the hardened routed entry point: each solve runs
// the formulation the cost model (routeSparse) expects to be cheaper,
// from the state count, the stored generator entries and the
// uniformization mass rate*tau, so short clock periods take the
// matrix-free sparse formulation at any size and long ones the dense
// doubling below a few hundred states. The route is a pure function of
// the model, so a solve's bits do not depend on timing or worker count.
// Panic recovery wraps both kernels, a distribution guard checks every
// candidate result, and any recoverable typed sparse failure (not only
// non-convergence) falls back to dense. The routed_dense/routed_sparse
// counters record the routing decision and recovered_dense the dense
// successes that followed a sparse failure, so observability can tell
// "dense by cost" apart from "sparse path failed and was rescued". The
// returned diag says the same: Path is PathDense, PathSparse or
// PathSparseFallbackDense, with the sparse failure in Fallback.
//
// Opts.Seed is a previous Solution's Embedded vector from a Restamp
// sibling of g. Only the sparse formulation consumes it; the dense route
// and the dense fallback ignore it, and a nil or rejected seed reproduces
// the cold solve bit for bit. diag.PowerIters carries the sparse path's
// embedded-chain cycle count and diag.Seeded whether it started warm.
//
// Opts.Rung "mrgp-dense" or "mrgp-sparse" runs exactly that formulation
// with no cost routing and no fallback: a failing rung surfaces its typed
// error. Like petri.Opts.Rung it exists for shadow verification, where the
// re-solve must stay on the path independent of the one that produced the
// primary answer, and for tests and benchmarks that compare the two. Both
// rungs keep the guarded panic recovery and result validation; diag.Path
// is left zero.
func Solve(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, opts Opts) (*Solution, petri.SolveDiag, error) {
	diag := petri.SolveDiag{States: g.NumStates()}
	switch opts.Rung {
	case "":
	case "mrgp-dense":
		sol, err := solveDenseGuarded(ctx, ws, g)
		return sol, diag, err
	case "mrgp-sparse":
		sol, err := solveSparseGuarded(ctx, ws, g, opts.Seed, &diag)
		return sol, diag, err
	default:
		return nil, diag, fmt.Errorf("mrgp: unknown solver rung %q (want mrgp-dense or mrgp-sparse)", opts.Rung)
	}
	ctx, sp := obs.StartSpan(ctx, "mrgp.solve")
	defer sp.End()
	sp.Int("states", int64(g.NumStates()))
	if err := linalg.CtxError("mrgp.solve", ctx); err != nil {
		sp.Err(err)
		return nil, diag, err
	}
	sparse, ratio := routeSparse(ws, g)
	sp.Float("sparse_dense_cost", ratio)
	if !sparse {
		metRoutedDense.Inc()
		sp.Str("routed", "dense")
		sol, err := solveDenseGuarded(ctx, ws, g)
		sp.Err(err)
		return sol, diag, err
	}
	metRoutedSparse.Inc()
	sp.Str("routed", "sparse")
	diag.Path = petri.PathSparse
	sol, err := solveSparseGuarded(ctx, ws, g, opts.Seed, &diag)
	if err == nil {
		sp.Int("cycles", int64(diag.PowerIters)).
			Str("seeded", map[bool]string{false: "cold", true: "warm"}[diag.Seeded])
		return sol, diag, nil
	}
	if isStructuralErr(err) || isDeadline(err) {
		sp.Err(err)
		return nil, diag, err
	}
	metSolveFallback.Inc()
	diag.Path = petri.PathSparseFallbackDense
	diag.Fallback = err
	sol, err = solveDenseGuarded(ctx, ws, g)
	if err != nil {
		sp.Err(err)
		return nil, diag, err
	}
	metRecoveredDense.Inc()
	sp.Str("recovered", "dense")
	return sol, diag, nil
}

// solveSparseGuarded runs one sparse attempt with panic recovery and
// result guards on both output distributions. On success it records the
// cycle count and seed use in diag.
func solveSparseGuarded(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, seed []float64, diag *petri.SolveDiag) (sol *Solution, err error) {
	ctx, sp := obs.StartSpan(ctx, "mrgp.rung.sparse")
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, linalg.NewPanicError("mrgp.solve.sparse", r)
		}
	}()
	sol, cycles, warm, err := solveSparse(ctx, ws, g, seed)
	if err != nil {
		return nil, err
	}
	if err := validateSolution("mrgp.solve.sparse", sol); err != nil {
		return nil, err
	}
	diag.PowerIters, diag.Seeded = cycles, warm
	return sol, nil
}

// solveDenseGuarded runs one dense attempt with panic recovery and result
// guards.
func solveDenseGuarded(ctx context.Context, ws *linalg.Workspace, g *petri.Graph) (sol *Solution, err error) {
	_, sp := obs.StartSpan(ctx, "mrgp.rung.dense")
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, linalg.NewPanicError("mrgp.solve.dense", r)
		}
	}()
	if err := linalg.CtxError("mrgp.solve.dense", ctx); err != nil {
		return nil, err
	}
	sol, err = solveDense(ws, g)
	if err == nil {
		if verr := validateSolution("mrgp.solve.dense", sol); verr != nil {
			return nil, verr
		}
	}
	return sol, err
}

// validateSolution guards both output vectors of a Solution: the
// time-stationary and the embedded distributions each must be a valid
// point on the probability simplex.
func validateSolution(site string, sol *Solution) error {
	if err := linalg.ValidateDistribution(site, sol.Pi); err != nil {
		return err
	}
	return linalg.ValidateDistribution(site, sol.Embedded)
}

// solveDense computes the solution with the dense kernels (dense
// generator, dense scaling-and-doubling transient series, GTH on the
// embedded chain), unconditionally. It is the reference path the sparse
// solver is validated against and the backstop when the sparse power
// iteration does not converge.
func solveDense(ws *linalg.Workspace, g *petri.Graph) (*Solution, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, petri.ErrNoStates
	}
	if !g.HasDeterministic() {
		return nil, ErrNoDeterministic
	}
	delay, err := commonDelay(g)
	if err != nil {
		return nil, err
	}
	metSolveDense.Inc()

	var pow [stackSquarings]*linalg.Dense
	sq, qt, p, err := denseRoute(ws, g, delay, pow[:0])
	if err != nil {
		return nil, err
	}
	defer sq.release(ws)
	defer ws.PutCSR(qt)
	defer ws.PutMat(p)
	sigma, err := embeddedStationary(ws, p)
	if err != nil {
		return nil, fmt.Errorf("embedded chain: %w", err)
	}

	occupancy := make([]float64, n)
	if err := sq.occupancy(ws, qt, sigma, occupancy); err != nil {
		return nil, err
	}
	linalg.Normalize(occupancy)

	return &Solution{Pi: occupancy, Embedded: sigma, Delay: delay}, nil
}

// denseRoute builds the matrices of one dense solve of g, whose clock
// period is delay, all from the workspace: the squarings of T = e^{Q tau}
// (appended to pow, see newSquarings), Q's transpose in CSR form for the
// occupancy's base-step series, and the embedded kernel P = T D. Release
// them with sq.release, ws.PutCSR(qt) and ws.PutMat(p). They come back
// separately, not in one struct, so that releasing the CSR and P leaks
// nothing of a caller's stack buffer behind pow.
func denseRoute(ws *linalg.Workspace, g *petri.Graph, delay float64, pow []*linalg.Dense) (sq squarings, qt *linalg.CSR, p *linalg.Dense, err error) {
	n := g.NumStates()
	// T = e^{Q tau} via uniformization with scaling and doubling (see
	// transient.go). The occupancy needs only sigma * U(tau), which the
	// retained squarings give without forming U, and its base-step series
	// needs only Q's transpose in CSR form, so the dense generator is
	// released early.
	q, err := g.GeneratorWS(ws)
	if err != nil {
		return squarings{}, nil, nil, err
	}
	sq, _, err = newSquarings(ws, q, delay, false, pow)
	qt = ws.CSRFromDenseT(q)
	ws.PutMat(q)
	if err != nil {
		ws.PutCSR(qt)
		return squarings{}, nil, nil, fmt.Errorf("transient pair: %w", err)
	}

	// D: branching matrix applied at clock firings. P = T D is formed as
	// its transpose Dᵀ Tᵀ, one lane call per column j of D over the rows
	// of Tᵀ that column lists (Dense.MulCSRInto): each element is the sum
	// over column j of D in ascending row order from +0, the gather's
	// order, so P has the bits of the dense product. T is transposed in
	// place and back, and P in place, so no matrix is held beyond P.
	d := ws.Mat(n, n)
	for i, sched := range g.Det {
		for _, pe := range sched.Successors {
			d.Add(i, pe.To, pe.Prob)
		}
	}
	dt := ws.CSRFromDenseT(d)
	ws.PutMat(d)
	defer ws.PutCSR(dt)
	// The in-place transposes of the square T and P cannot fail.
	p = ws.Mat(n, n)
	t := sq.T()
	_ = t.TransposeFrom(t)
	err = p.MulCSRInto(dt, t)
	_ = t.TransposeFrom(t)
	_ = p.TransposeFrom(p)
	if err != nil {
		sq.release(ws)
		ws.PutCSR(qt)
		ws.PutMat(p)
		return squarings{}, nil, nil, err
	}
	return sq, qt, p, nil
}

// embeddedStationary solves sigma = sigma * P for the embedded chain. The
// chain is typically reducible: states visited only mid-cycle are transient
// at regeneration epochs (for instance, markings without a rejuvenation
// wave in flight are never observed immediately after a clock tick). The
// stationary vector is therefore computed on the unique closed recurrent
// class and is zero elsewhere.
func embeddedStationary(ws *linalg.Workspace, p *linalg.Dense) ([]float64, error) {
	n, _ := p.Dims()
	members, err := recurrentClass(p)
	if err != nil {
		return nil, err
	}
	sigma := make([]float64, n)
	if len(members) == 1 {
		sigma[members[0]] = 1
		return sigma, nil
	}
	sub := ws.Mat(len(members), len(members))
	defer ws.PutMat(sub)
	for a, i := range members {
		// Renormalize rows over the class: mass leaking to transient
		// states is truncation noise, and a recurrent class keeps its mass
		// by definition.
		var rowSum float64
		for _, j := range members {
			rowSum += p.At(i, j)
		}
		if rowSum <= 0 {
			return nil, ErrNotErgodic
		}
		for b, j := range members {
			sub.Set(a, b, p.At(i, j)/rowSum)
		}
	}
	subPi := ws.Vec(len(members))
	defer ws.PutVec(subPi)
	if _, err := ws.SteadyStateDTMC(sub, subPi); err != nil {
		return nil, err
	}
	for a, i := range members {
		sigma[i] = subPi[a]
	}
	return sigma, nil
}

// commonDelay verifies the regeneration-class restrictions and returns the
// shared clock period.
func commonDelay(g *petri.Graph) (float64, error) {
	var (
		delay float64
		tref  petri.TransitionRef
		seen  bool
	)
	for i, sched := range g.Det {
		if sched == nil {
			return 0, fmt.Errorf("%w: state %s", ErrClockNotAlwaysEnabled, g.Net.FormatMarking(g.Markings[i]))
		}
		if !seen {
			delay, tref, seen = sched.Delay, sched.Transition, true
			continue
		}
		if sched.Transition != tref || sched.Delay != delay {
			return 0, fmt.Errorf("%w: %q/%g vs %q/%g", ErrMixedClocks,
				g.Net.TransitionName(tref), delay, g.Net.TransitionName(sched.Transition), sched.Delay)
		}
	}
	return delay, nil
}
