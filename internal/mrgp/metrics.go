package mrgp

import "nvrel/internal/obs"

// Metric handles for the Markov-regenerative solvers. All updates are
// no-ops while obs is disabled (the default).
var (
	// Solve routing: dense embedded-chain solves, matrix-free sparse
	// solves, general (state-dependent clock) solves, and sparse solves
	// whose power iteration failed to converge and fell back to dense.
	metSolveDense    = obs.CounterFor("mrgp.solve.dense")
	metSolveSparse   = obs.CounterFor("mrgp.solve.sparse")
	metSolveGeneral  = obs.CounterFor("mrgp.solve.general")
	metSolveFallback = obs.CounterFor("mrgp.solve.fallback_dense")

	// Routing vs recovery: routed_* counts which kernel family the cost
	// routing picked; recovered_dense counts solves where the dense path
	// succeeded AFTER the sparse path failed. fallback_dense above counts
	// the fallback attempts themselves (recovered or not), so
	// fallback_dense - recovered_dense is the number of chains that
	// exhausted both paths.
	metRoutedDense    = obs.CounterFor("mrgp.solve.routed_dense")
	metRoutedSparse   = obs.CounterFor("mrgp.solve.routed_sparse")
	metRecoveredDense = obs.CounterFor("mrgp.solve.recovered_dense")

	// Sparse embedded-chain operator applications (Krylov start and power
	// finisher alike, one uniformization series each) across solves. Each
	// solve's final L1 residual is the mrgp.kernel.embedded span's
	// residual attribute.
	metPowerCycles = obs.CounterFor("mrgp.power.cycles")

	// Krylov starts whose result was discarded (breakdown, non-finite,
	// zero mass or more than rounding-level negative mass), leaving the
	// power finisher to run from the original start.
	metKrylovDiscarded = obs.CounterFor("mrgp.krylov.discarded")
)
