package linalg

import "nvrel/internal/obs"

// Metric handles for the hot solver kernels. Handles are resolved once
// here; every update short-circuits on one atomic load while obs is
// disabled (the default), so the kernels keep their allocation-free and
// near-zero-overhead properties either way.
var (
	// Gauss-Seidel steady state: solves started, total sweeps across
	// solves, and how each solve ended. Each solve's final relative L1
	// residual (delta/norm) is SolveDiag.Residual.
	metGSSolves    = obs.CounterFor("linalg.gs.solves")
	metGSSweeps    = obs.CounterFor("linalg.gs.sweeps")
	metGSConverged = obs.CounterFor("linalg.gs.converged")
	metGSStalled   = obs.CounterFor("linalg.gs.stalled")
	metGSExhausted = obs.CounterFor("linalg.gs.exhausted")

	// Workspace pools: a hit reuses released scratch, a miss allocates.
	// Nil-workspace callers (no pooling requested) are not counted.
	metWSVecHit      = obs.CounterFor("linalg.workspace.vec.hit")
	metWSVecMiss     = obs.CounterFor("linalg.workspace.vec.miss")
	metWSMatHit      = obs.CounterFor("linalg.workspace.mat.hit")
	metWSMatMiss     = obs.CounterFor("linalg.workspace.mat.miss")
	metWSCSRHit      = obs.CounterFor("linalg.workspace.csr.hit")
	metWSCSRMiss     = obs.CounterFor("linalg.workspace.csr.miss")
	metWSPoissonHit  = obs.CounterFor("linalg.workspace.poisson.hit")
	metWSPoissonMiss = obs.CounterFor("linalg.workspace.poisson.miss")

	// Uniformized power iteration — the last rung of the steady-state
	// fallback chain. Rejected counts inputs/iterates the guards refused
	// (shared with GS: metGSRejected below).
	metPowerSolves    = obs.CounterFor("linalg.power.solves")
	metPowerIters     = obs.CounterFor("linalg.power.iters")
	metPowerConverged = obs.CounterFor("linalg.power.converged")
	metPowerExhausted = obs.CounterFor("linalg.power.exhausted")

	// Guard rejections: generators or iterates refused by the validation
	// layer before or during a GS solve (see validate.go).
	metGSRejected = obs.CounterFor("linalg.gs.rejected")

	// Warm-start seeds: accepted seeds start the iteration from a
	// neighbor's solution; rejected ones (wrong length, non-finite,
	// negative, vanished) silently degrade to the uniform start. The
	// rejected counter is chaos-gate evidence that a corrupted seed was
	// contained (see ApplySeed).
	metSeedWarm     = obs.CounterFor("linalg.seed.warm")
	metSeedRejected = obs.CounterFor("linalg.seed.rejected")

	// Workspace arena: a hit reuses a workspace another worker released;
	// a miss grows the arena by one workspace.
	metArenaHit  = obs.CounterFor("linalg.arena.hit")
	metArenaMiss = obs.CounterFor("linalg.arena.miss")

	// Uniformization: matrix-free series evaluated, series terms run, the
	// row-layout slots (stored plus padding entries) the terms gathered,
	// the distribution of truncation depths K, and the analytic tail mass
	// left beyond the most recent truncation point.
	metUnifSeries  = obs.CounterFor("linalg.unif.series")
	metUnifTerms   = obs.CounterFor("linalg.unif.terms")
	metUnifEntries = obs.CounterFor("linalg.unif.entries")
	metUnifK       = obs.HistogramFor("linalg.unif.truncation_k", []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096})
	metUnifTail    = obs.GaugeFor("linalg.unif.tail_mass")
)
