package petri

import (
	"context"
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/obs"
)

// ErrNoStates is returned when a graph has an empty tangible state space.
var ErrNoStates = errors.New("petri: graph has no tangible states")

// Generator assembles the CTMC generator matrix over the tangible states
// from the exponential rate edges. Deterministic transitions are not
// represented; callers analyzing a DSPN with a deterministic transition
// should use package mrgp, which combines this generator with the
// deterministic schedules.
func (g *Graph) Generator() (*linalg.Dense, error) {
	return g.GeneratorWS(nil)
}

// GeneratorWS is the workspace-backed form of Generator: the matrix comes
// from ws (release it with ws.PutMat when done). A nil workspace allocates.
func (g *Graph) GeneratorWS(ws *linalg.Workspace) (*linalg.Dense, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, ErrNoStates
	}
	q := ws.Mat(n, n)
	for _, e := range g.Exp {
		q.Add(e.From, e.To, e.Rate)
		q.Add(e.From, e.From, -e.Rate)
	}
	return q, nil
}

// HasDeterministic reports whether any tangible state enables a
// deterministic transition.
func (g *Graph) HasDeterministic() bool {
	for _, d := range g.Det {
		if d != nil {
			return true
		}
	}
	return false
}

// RewardFn maps a tangible marking to a rate reward.
type RewardFn func(Marking) float64

// RewardVector evaluates a reward function over every tangible state.
func (g *Graph) RewardVector(f RewardFn) []float64 {
	r := make([]float64, g.NumStates())
	for i, m := range g.Markings {
		r[i] = f(m)
	}
	return r
}

// SolvePath identifies which solver produced a steady-state result.
// mrgp.Solve reuses PathDense, PathSparse and PathSparseFallbackDense for
// its dense and sparse formulations.
type SolvePath int

// Solver paths, in routing order.
const (
	// PathDense is the dense GTH direct solve.
	PathDense SolvePath = iota
	// PathSparse is the CSR Gauss-Seidel iteration.
	PathSparse
	// PathSparseFallbackDense means the Gauss-Seidel iteration did not
	// converge and the dense GTH backstop produced the result.
	PathSparseFallbackDense
	// PathDenseFallbackPower means the dense GTH solve failed (or its
	// result was rejected by the distribution guard) and the uniformized
	// power backstop produced the result.
	PathDenseFallbackPower
	// PathSparseFallbackPower means both the Gauss-Seidel iteration and
	// the dense GTH backstop failed, and the uniformized power backstop
	// produced the result.
	PathSparseFallbackPower
)

func (p SolvePath) String() string {
	switch p {
	case PathDense:
		return "dense"
	case PathSparse:
		return "sparse"
	case PathSparseFallbackDense:
		return "sparse-fallback-dense"
	case PathDenseFallbackPower:
		return "dense-fallback-power"
	case PathSparseFallbackPower:
		return "sparse-fallback-power"
	default:
		return "unknown"
	}
}

// Attempt records one failed rung of the fallback chain: which solver ran,
// how many iterations it spent, and the typed error that sent the chain to
// the next rung. Successful rungs are not recorded — the SolveDiag Path
// identifies the solver that produced the result — so a clean first-try
// solve allocates nothing here.
type Attempt struct {
	// Solver is "gs", "gth" or "power".
	Solver string
	// Sweeps is the iteration count of the failed attempt (zero for GTH).
	Sweeps int
	// Err is the typed failure that forced the fallback.
	Err error
}

// SolveDiag reports how a steady-state solve went: the path taken, the
// Gauss-Seidel sweep count (zero on the dense path), the first failure
// that forced a fallback (nil otherwise), and the per-attempt outcomes of
// every failed rung. It exists so callers and tests can assert the solver
// behavior that the result vector alone cannot reveal — most importantly
// that a sparse solve did not silently degrade to a backstop.
type SolveDiag struct {
	States   int
	Path     SolvePath
	GSSweeps int
	Fallback error
	Attempts []Attempt

	// PowerIters is the iteration count of the uniformized power rung when
	// it produced the result (zero when power never ran or failed; failed
	// power attempts record their count in Attempts). On the MRGP path it
	// carries the sparse embedded-chain cycle count.
	PowerIters int

	// Seeded reports whether the iterative kernel that produced the result
	// started from an accepted warm-start seed. A seed consumed by a rung
	// that then fell back does not count: fallback rungs always restart
	// from uniform.
	Seeded bool

	// Residual is the final relative L1 residual of the accepting
	// Gauss-Seidel sweep when the sparse rung produced the result (zero
	// for the direct dense path, which has no iteration residual, and for
	// fallback rungs). Serve files it in each solve's compute record: a
	// residual creeping toward the stall band is the early signal of a
	// chain the iterative solver is barely holding.
	Residual float64
}

// Iterations is the total iterative-kernel work of the solve: Gauss-Seidel
// sweeps plus power iterations, including the sweeps of failed attempts
// (GSSweeps already counts a failed GS rung; failed power rungs record
// their iterations in Attempts and are added here).
func (d SolveDiag) Iterations() int {
	total := d.GSSweeps + d.PowerIters
	for _, a := range d.Attempts {
		if a.Solver == "power" {
			total += a.Sweeps
		}
	}
	return total
}

// isDeadline reports whether err is a typed deadline failure — the one
// failure kind the fallback chain must not retry past, because every
// later rung would burn time against a clock that already expired.
func isDeadline(err error) bool {
	se, ok := linalg.AsSolveError(err)
	return ok && se.Kind == linalg.FailDeadline
}

// errDeterministic rejects clocked graphs, which need the MRGP solver.
var errDeterministic = errors.New("petri: graph has deterministic transitions; use mrgp.Solve")

// Opts selects how a steady-state solve runs; the zero value takes the
// default routed chain. The same struct configures the MRGP and model
// layers (mrgp.Opts and nvp.Opts are aliases of it).
type Opts struct {
	// Seed is an optional warm-start vector for the first iterative rung:
	// a previous stationary vector from a Restamp sibling of this graph.
	// The dense direct rung and every fallback rung ignore it, and a nil
	// or rejected seed reproduces the cold solve bit for bit.
	Seed []float64

	// Rung, when set, runs exactly one named rung — "gs" (sparse
	// Gauss-Seidel), "gth" (dense direct) or "power" (uniformized power
	// iteration) — with no size routing and no fallback: a failing rung
	// surfaces its typed error instead of rerouting. It is the
	// shadow-verification primitive (internal/shadow), whose cross-check
	// re-solve must stay on the independent path it was assigned, and the
	// way benchmarks and tests reach one solver on purpose.
	Rung string
}

// SteadyState computes the stationary distribution of a graph with no
// deterministic transitions (a plain GSPN/CTMC) and reports how the solve
// went. The returned vector is freshly allocated; scratch comes from ws
// (nil allocates).
//
// With zero Opts it is the hardened routed chain: state spaces of
// linalg.SparseThreshold states or more start on sparse Gauss-Seidel,
// smaller ones on dense GTH, whose constant factors win there; a typed
// failure falls back along GS -> dense GTH -> uniformized power, with
// panic recovery around every kernel and a distribution guard on every
// candidate result. The contract is that a fault anywhere in the solve
// either recovers on a later rung or surfaces as a typed
// *linalg.SolveError — never a silently wrong vector. The iterative
// kernels check ctx periodically, and the chain stops at the first
// deadline failure instead of retrying slower solvers against a dead
// clock; a nil ctx never expires.
//
// With Opts.Rung set only that rung runs (see Opts); the diag then
// reports its iterative work in GSSweeps or PowerIters and leaves Path
// and the fallback fields zero.
func (g *Graph) SteadyState(ctx context.Context, ws *linalg.Workspace, opts Opts) ([]float64, SolveDiag, error) {
	if opts.Rung != "" {
		return g.steadyStateRung(ctx, ws, opts)
	}
	ctx, sp := obs.StartSpan(ctx, "petri.solve")
	pi, diag, err := g.steadyStateChain(ctx, ws, opts.Seed)
	sp.Int("states", int64(diag.States)).
		Str("path", diag.Path.String()).
		Int("gs_sweeps", int64(diag.GSSweeps)).
		Int("power_iters", int64(diag.PowerIters)).
		Int("fallbacks", int64(len(diag.Attempts))).
		Str("seeded", map[bool]string{false: "cold", true: "warm"}[diag.Seeded]).
		Err(err)
	sp.End()
	return pi, diag, err
}

// steadyStateChain is the routed fallback chain behind SteadyState: the
// sparse route enters at Gauss-Seidel, the dense route at GTH, and both
// share the GTH -> power tail.
func (g *Graph) steadyStateChain(ctx context.Context, ws *linalg.Workspace, seed []float64) ([]float64, SolveDiag, error) {
	if g.HasDeterministic() {
		return nil, SolveDiag{}, errDeterministic
	}
	diag := SolveDiag{States: g.NumStates(), Path: PathDense}
	if err := linalg.CtxError("petri.solve", ctx); err != nil {
		return nil, diag, err
	}
	if g.NumStates() >= linalg.SparseThreshold {
		metSolveSparse.Inc()
		diag.Path = PathSparse
		pi := make([]float64, g.NumStates())
		sweeps, warm, res, err := g.sparseGSGuarded(ctx, ws, pi, seed)
		diag.GSSweeps = sweeps
		if err == nil {
			diag.Seeded = warm
			diag.Residual = res
			return pi, diag, nil
		}
		diag.Fallback = err
		diag.Attempts = append(diag.Attempts, Attempt{Solver: "gs", Sweeps: sweeps, Err: err})
		if isDeadline(err) {
			metSolveFailed.Inc()
			return nil, diag, err
		}
		// Rung 2: dense GTH. The dense generator is assembled independently
		// from the rate edges, so a corrupted CSR stamp does not poison it.
		metSolveFallback.Inc()
		diag.Path = PathSparseFallbackDense
	} else {
		metSolveDense.Inc()
	}
	pi, err := g.steadyStateDenseGuarded(ctx, ws)
	if err == nil {
		if diag.Path == PathSparseFallbackDense {
			metSolveRecovered.Inc()
		}
		return pi, diag, nil
	}
	if diag.Fallback == nil {
		diag.Fallback = err
	}
	diag.Attempts = append(diag.Attempts, Attempt{Solver: "gth", Err: err})
	if isDeadline(err) {
		metSolveFailed.Inc()
		return nil, diag, err
	}
	// Last rung: uniformized power iteration, which needs nothing from the
	// generator beyond matvecs.
	if diag.Path == PathSparseFallbackDense {
		diag.Path = PathSparseFallbackPower
	} else {
		diag.Path = PathDenseFallbackPower
	}
	metSolveFallbackPower.Inc()
	pi, iters, err := g.steadyStatePowerGuarded(ctx, ws)
	if err != nil {
		diag.Attempts = append(diag.Attempts, Attempt{Solver: "power", Sweeps: iters, Err: err})
		metSolveFailed.Inc()
		return nil, diag, err
	}
	diag.PowerIters = iters
	metSolveRecovered.Inc()
	return pi, diag, nil
}

// steadyStateRung runs the single rung opts.Rung names, guard-validated
// like every chain rung but with no fallback.
func (g *Graph) steadyStateRung(ctx context.Context, ws *linalg.Workspace, opts Opts) ([]float64, SolveDiag, error) {
	diag := SolveDiag{States: g.NumStates()}
	if g.HasDeterministic() {
		return nil, diag, errDeterministic
	}
	var (
		pi  []float64
		err error
	)
	switch opts.Rung {
	case "gs":
		pi = make([]float64, g.NumStates())
		diag.GSSweeps, diag.Seeded, diag.Residual, err = g.sparseGSGuarded(ctx, ws, pi, opts.Seed)
	case "gth":
		pi, err = g.steadyStateDenseGuarded(ctx, ws)
	case "power":
		pi, diag.PowerIters, err = g.steadyStatePowerGuarded(ctx, ws)
	default:
		err = fmt.Errorf("petri: unknown solver rung %q (want gs, gth, or power)", opts.Rung)
	}
	if err != nil {
		return nil, diag, err
	}
	return pi, diag, nil
}

// sparseGSGuarded runs one Gauss-Seidel attempt with panic recovery and a
// result guard; pi receives the distribution on success. The rung span
// covers generator stamping plus validation; the nested kernel span
// isolates the Gauss-Seidel iteration itself (the kernel stays
// span-free internally so its NoAlloc guarantees are untouched).
func (g *Graph) sparseGSGuarded(ctx context.Context, ws *linalg.Workspace, pi, seed []float64) (sweeps int, warm bool, residual float64, err error) {
	ctx, sp := obs.StartSpan(ctx, "petri.rung.gs")
	defer func() {
		sp.Int("sweeps", int64(sweeps)).Err(err)
		sp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			err = linalg.NewPanicError("petri.solve.gs", r)
		}
	}()
	qt, err := g.GeneratorCSRTranspose(ws)
	if err != nil {
		return 0, false, 0, err
	}
	_, ksp := obs.StartSpan(ctx, "linalg.gs")
	sweeps, warm, residual, err = ws.SteadyStateGS(ctx, qt, pi, seed)
	ksp.Int("sweeps", int64(sweeps)).Int("nnz", int64(qt.NNZ())).Err(err)
	ksp.End()
	ws.PutCSR(qt)
	if err == nil {
		err = linalg.ValidateDistribution("petri.solve.gs", pi)
	}
	return sweeps, warm, residual, err
}

// steadyStateDenseGuarded runs one dense GTH attempt with panic recovery
// and a result guard. The kernel span covers only the GTH elimination,
// not the generator assembly.
func (g *Graph) steadyStateDenseGuarded(ctx context.Context, ws *linalg.Workspace) (pi []float64, err error) {
	ctx, sp := obs.StartSpan(ctx, "petri.rung.gth")
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			pi, err = nil, linalg.NewPanicError("petri.solve.gth", r)
		}
	}()
	q, err := g.GeneratorWS(ws)
	if err != nil {
		return nil, err
	}
	defer ws.PutMat(q)
	_, ksp := obs.StartSpan(ctx, "linalg.gth")
	pi, err = ws.SteadyStateGTH(q, nil)
	ksp.Err(err)
	ksp.End()
	if err == nil {
		if verr := linalg.ValidateDistribution("petri.solve.gth", pi); verr != nil {
			return nil, verr
		}
	}
	return pi, err
}

// steadyStatePowerGuarded runs one uniformized power-iteration attempt —
// the last rung of the chain — with panic recovery and a result guard.
func (g *Graph) steadyStatePowerGuarded(ctx context.Context, ws *linalg.Workspace) (pi []float64, iters int, err error) {
	ctx, sp := obs.StartSpan(ctx, "petri.rung.power")
	defer func() {
		sp.Int("iters", int64(iters)).Err(err)
		sp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			pi, iters, err = nil, 0, linalg.NewPanicError("petri.solve.power", r)
		}
	}()
	q, err := g.GeneratorCSR(ws)
	if err != nil {
		return nil, 0, err
	}
	pi = make([]float64, g.NumStates())
	_, ksp := obs.StartSpan(ctx, "linalg.power")
	iters, _, err = ws.SteadyStatePower(ctx, q, pi, nil)
	ksp.Int("iters", int64(iters)).Int("nnz", int64(q.NNZ())).Err(err)
	ksp.End()
	ws.PutCSR(q)
	if err == nil {
		err = linalg.ValidateDistribution("petri.solve.power", pi)
	}
	if err != nil {
		return nil, iters, err
	}
	return pi, iters, nil
}
