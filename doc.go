// Package nvrel reproduces "Enhancing the Reliability of Perception
// Systems using N-version Programming and Rejuvenation" (Mendonça,
// Machida, Völp — DSN 2023) as a Go library.
//
// The paper models perception systems whose N diverse ML modules are
// degraded by faults and attacks and proactively restored by a time-based
// rejuvenation mechanism, and computes the expected output reliability
// E[R_sys] = sum over states (i,j,k) of pi(i,j,k) * R(i,j,k) under
// BFT-style voting (2f+1, or 2f+r+1 with rejuvenation).
//
// This package is the public facade over the implementation packages:
//
//   - internal/petri: DSPN formalism and tangible reachability graphs
//   - internal/mrgp, internal/linalg: stochastic solvers (a plain CTMC is
//     the no-tick case of the mrgp propagator and first passage)
//   - internal/reliability: the paper's R_f4/R_f6 functions and a general
//     dependent-error model
//   - internal/nvp: the perception-system models (Figure 2)
//   - internal/voter, internal/mlsim, internal/percept, internal/des: the
//     event-level simulator used for cross-validation
//   - internal/experiments: one runnable experiment per table and figure
//
// # Quick start
//
//	model, err := nvrel.BuildSixVersion(nvrel.DefaultSixVersion())
//	if err != nil { ... }
//	r, err := model.ExpectedPaperReliability()
//	// r is E[R_6v]; the paper reports 0.93464665 at the defaults.
//
// See README.md for installation and the experiment harness, DESIGN.md for
// the system inventory, and EXPERIMENTS.md for paper-vs-measured results.
package nvrel
