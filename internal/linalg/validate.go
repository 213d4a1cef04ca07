package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
)

// FailureKind classifies why a solve result or input was rejected. It is
// the machine-readable half of SolveError: fallback chains branch on it
// and chaos reports aggregate by it.
type FailureKind uint8

// Failure kinds, roughly in the order the guards check them.
const (
	// FailUnknown is the zero kind, used only for wrapped foreign errors.
	FailUnknown FailureKind = iota
	// FailNaN: a NaN appeared in a vector or matrix.
	FailNaN
	// FailInf: an infinity appeared in a vector or matrix.
	FailInf
	// FailNegative: a probability fell below -NegativeTol.
	FailNegative
	// FailSimplex: a distribution's mass deviated from 1 beyond SimplexTol.
	FailSimplex
	// FailGenerator: a generator matrix violated its sign pattern or
	// conservation (rows of Q sum to zero).
	FailGenerator
	// FailNotConverged: an iterative solver ran out of budget.
	FailNotConverged
	// FailPanic: a solver kernel panicked and was recovered.
	FailPanic
	// FailDeadline: the solve's context expired or was cancelled.
	FailDeadline
)

func (k FailureKind) String() string {
	switch k {
	case FailNaN:
		return "nan"
	case FailInf:
		return "inf"
	case FailNegative:
		return "negative"
	case FailSimplex:
		return "simplex"
	case FailGenerator:
		return "generator"
	case FailNotConverged:
		return "not-converged"
	case FailPanic:
		return "panic"
	case FailDeadline:
		return "deadline"
	default:
		return "unknown"
	}
}

// Validation tolerances. A steady-state or transient probability may dip
// below zero by rounding; beyond NegativeTol it is a wrong answer. A
// distribution's mass is renormalized by the solvers, so SimplexTol only
// has to absorb the float error of the final normalization and reward
// dot products.
const (
	// NegativeTol is the most negative a probability may be before the
	// guard rejects the vector.
	NegativeTol = 1e-9
	// SimplexTol is the largest |sum - 1| a distribution may carry.
	SimplexTol = 1e-8
	// GeneratorTol is the largest relative conservation defect (total
	// entry sum over total absolute mass) a generator may carry.
	GeneratorTol = 1e-8
)

// SolveError is the typed error every hardened solve surfaces: which site
// failed, how, and with what residual evidence. The contract of the
// hardened pipeline is that a fault either recovers or becomes one of
// these — never a silently wrong number.
type SolveError struct {
	// Site names the guard or kernel that rejected the solve, e.g.
	// "linalg.gs", "petri.solve.gth", "nvp.solve".
	Site string
	// Kind classifies the failure.
	Kind FailureKind
	// Index is the offending vector/matrix slot, -1 when not applicable.
	Index int
	// Value is the offending value (the NaN, the negative mass, ...).
	Value float64
	// Residual is the guard's measured defect: |sum-1| for simplex
	// failures, the conservation defect for generators, the final
	// iteration delta for convergence failures.
	Residual float64
	// Err is the wrapped cause, when the failure wraps another error.
	Err error
}

func (e *SolveError) Error() string {
	msg := fmt.Sprintf("solve error at %s [%s]", e.Site, e.Kind)
	if e.Index >= 0 {
		msg += fmt.Sprintf(": entry %d = %g", e.Index, e.Value)
	}
	if e.Residual != 0 {
		msg += fmt.Sprintf(" (residual %.3g)", e.Residual)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the wrapped cause to errors.Is/As chains.
func (e *SolveError) Unwrap() error { return e.Err }

// AsSolveError unwraps err to a *SolveError when one is in the chain.
func AsSolveError(err error) (*SolveError, bool) {
	var se *SolveError
	if err == nil {
		return nil, false
	}
	ok := errors.As(err, &se)
	return se, ok
}

// NewPanicError converts a recovered panic value into a typed SolveError
// carrying the stack, so fallback chains can keep going while chaos
// reports still see what blew up.
func NewPanicError(site string, recovered any) *SolveError {
	return &SolveError{
		Site:  site,
		Kind:  FailPanic,
		Index: -1,
		Err:   fmt.Errorf("recovered panic: %v\n%s", recovered, debug.Stack()),
	}
}

// CtxError wraps a context expiry into a typed SolveError; it returns nil
// when ctx is nil or still live, so it doubles as the solvers' periodic
// deadline check.
func CtxError(site string, ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &SolveError{Site: site, Kind: FailDeadline, Index: -1, Err: err}
	}
	return nil
}

// ValidateDistribution checks a probability vector: every entry finite,
// none below -NegativeTol, total mass within SimplexTol of 1. It is the
// result guard every steady-state and transient solution passes before a
// caller sees it. The success path is allocation-free.
func ValidateDistribution(site string, v []float64) error {
	if len(v) == 0 {
		return &SolveError{Site: site, Kind: FailSimplex, Index: -1, Residual: 1}
	}
	var sum float64
	for i, x := range v {
		if math.IsNaN(x) {
			return &SolveError{Site: site, Kind: FailNaN, Index: i, Value: x}
		}
		if math.IsInf(x, 0) {
			return &SolveError{Site: site, Kind: FailInf, Index: i, Value: x}
		}
		if x < -NegativeTol {
			return &SolveError{Site: site, Kind: FailNegative, Index: i, Value: x, Residual: -x}
		}
		sum += x
	}
	if d := math.Abs(sum - 1); d > SimplexTol {
		return &SolveError{Site: site, Kind: FailSimplex, Index: -1, Residual: d}
	}
	return nil
}

// ValidateGeneratorCSR checks a CTMC generator in CSR form (either
// orientation — the sign pattern and total conservation are transpose
// invariant): every value finite, off-diagonals non-negative, diagonals
// non-positive, and the total entry sum zero relative to the total
// absolute mass. The total-sum check is what catches a single perturbed
// rate: corrupting one off-diagonal without its diagonal twin breaks
// conservation by the full perturbation. The success path is one O(nnz)
// scan with no allocation.
func ValidateGeneratorCSR(site string, q *CSR) error {
	rows, _ := q.Dims()
	var total, totalAbs float64
	for i := 0; i < rows; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			v := q.Vals[k]
			if math.IsNaN(v) {
				return &SolveError{Site: site, Kind: FailNaN, Index: k, Value: v}
			}
			if math.IsInf(v, 0) {
				return &SolveError{Site: site, Kind: FailInf, Index: k, Value: v}
			}
			if q.ColIdx[k] == i {
				if v > 0 {
					return &SolveError{Site: site, Kind: FailGenerator, Index: k, Value: v}
				}
			} else if v < 0 {
				return &SolveError{Site: site, Kind: FailGenerator, Index: k, Value: v}
			}
			total += v
			totalAbs += math.Abs(v)
		}
	}
	if totalAbs > 0 {
		if d := math.Abs(total) / totalAbs; d > GeneratorTol {
			return &SolveError{Site: site, Kind: FailGenerator, Index: -1, Residual: d}
		}
	}
	return nil
}
