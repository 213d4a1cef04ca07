package nvp

import (
	"fmt"
	"math"

	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/reliability"
)

// ErrorProbability returns the per-state probability that one perception
// request produces an erroneous voted output. In states with at least
// Threshold operational modules it is 1 - R(i,j,k) (the paper's R is
// exactly 1 - P(error)); with fewer operational modules the voter can
// never gather Threshold wrong outputs either, so every output is safely
// skipped and the error probability is zero.
func (m *Model) ErrorProbability(rf reliability.StateFn) func(i, j, k int) float64 {
	threshold := m.Params.Scheme().Threshold()
	return func(i, j, k int) float64 {
		if i+j < threshold {
			return 0
		}
		return 1 - rf(i, j, k)
	}
}

// SurvivalProbability returns, for each window [0, t], P(no erroneous
// voted output during [0, t]): perception requests arrive as a Poisson
// process with the given rate, each request is erroneous with the
// state-dependent probability ErrorProbability, and the system starts
// all-healthy with a freshly armed clock. A negative or non-finite rate or
// window fails with mrgp.ErrInvalidInput.
//
// Mathematically this is the Feynman-Kac functional
// E[exp(-Integral_0^t requestRate * perr(X_s) ds)], computed by
// propagating through the defective generator Q' = Q - diag(requestRate *
// perr): the mass lost under the killed propagation is exactly the
// probability an error event occurred. For the clocked architecture the
// propagation alternates e^{Q' tau} with the tick branching matrix.
func (m *Model) SurvivalProbability(rf reliability.StateFn, requestRate float64, windows []float64) ([]float64, error) {
	if !(requestRate >= 0) || math.IsInf(requestRate, 1) {
		return nil, fmt.Errorf("%w: request rate %g must be finite and non-negative", mrgp.ErrInvalidInput, requestRate)
	}
	perr := m.ErrorProbability(rf)
	kill := make([]float64, m.Graph.NumStates())
	for s, mk := range m.Graph.Markings {
		kill[s] = requestRate * perr(m.classify(mk))
	}
	prop, err := m.propagator(kill)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(windows))
	for i, t := range windows {
		pi, err := prop.Distribution(m.Graph.Initial, t)
		if err != nil {
			return nil, err
		}
		out[i] = linalg.Sum(pi)
	}
	return out, nil
}
