package mrgp

import "nvrel/internal/faultinject"

// Fault-injection sites of the MRGP solvers. Hooks sit behind the
// faultinject global gate (one atomic load, no allocation when chaos is
// off).
var (
	// fiPowerStall forces the sparse embedded-chain power iteration to
	// give up mid-solve with a typed not-converged error, exercising the
	// sparse -> dense recovery fallback.
	fiPowerStall = faultinject.SiteFor("mrgp.power.stall")
	// fiMrgpPanic panics inside the embedded-chain cycle loop, exercising
	// the recover-and-fall-back layer of Solve.
	fiMrgpPanic = faultinject.SiteFor("mrgp.kernel.panic")
	// fiKrylovBreakdown forces a breakdown of the embedded-chain Krylov
	// start, exercising the discard path that hands the original start
	// to the power finisher.
	fiKrylovBreakdown = faultinject.SiteFor("mrgp.krylov.breakdown")
)
