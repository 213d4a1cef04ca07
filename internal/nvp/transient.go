package nvp

import (
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/reliability"
)

// ErrTransientUnsupported is returned for model variants without a
// transient solver (currently the waits-for-wave clock policy).
var ErrTransientUnsupported = errors.New("nvp: transient analysis unsupported for this clock policy")

// TransientReliability returns E[R(t)] at each requested time, starting
// from the all-healthy initial marking with a freshly armed clock. It
// shows how output reliability degrades from a pristine deployment toward
// the steady state the paper reports.
func (m *Model) TransientReliability(rf reliability.StateFn, times []float64) ([]float64, error) {
	if m.Arch == WithRejuvenation && m.Params.Clock == ClockWaitsForWave {
		return nil, ErrTransientUnsupported
	}
	reward := m.rewardVector(rf)
	init := m.Graph.Initial

	out := make([]float64, len(times))
	switch {
	case m.Arch != WithRejuvenation:
		// Large state spaces propagate through the matrix-free CSR series;
		// small ones keep the dense kernel and its bit-exact seed behavior.
		var (
			q   *linalg.Dense
			qt  *linalg.CSR
			ws  *linalg.Workspace
			err error
		)
		if m.Graph.NumStates() >= linalg.SparseThreshold {
			qt, err = m.Graph.GeneratorCSRTranspose(nil)
		} else {
			q, err = m.Graph.Generator()
		}
		if err != nil {
			return nil, err
		}
		for i, t := range times {
			if t < 0 {
				return nil, fmt.Errorf("nvp: negative time %g", t)
			}
			var pi []float64
			if qt != nil {
				pi, err = ws.UniformizedPowerCSR(qt, init, t, 0, 1e-12, nil)
			} else {
				pi, err = linalg.UniformizedPower(q, init, t, 0, 1e-12)
			}
			if err != nil {
				return nil, err
			}
			if out[i], err = linalg.Dot(pi, reward); err != nil {
				return nil, err
			}
		}
	default:
		prop, err := mrgp.NewPropagator(m.Graph)
		if err != nil {
			return nil, err
		}
		for i, t := range times {
			pi, err := prop.Distribution(init, t)
			if err != nil {
				return nil, err
			}
			if out[i], err = linalg.Dot(pi, reward); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MissionReliability returns the time-averaged expected reliability over a
// mission window [0, t]: (1/t) Integral_0^t E[R(s)] ds. For short missions
// it exceeds the steady-state value because the system starts all-healthy.
func (m *Model) MissionReliability(rf reliability.StateFn, t float64) (float64, error) {
	if t <= 0 {
		return 0, fmt.Errorf("nvp: mission length %g must be positive", t)
	}
	if m.Arch == WithRejuvenation && m.Params.Clock == ClockWaitsForWave {
		return 0, ErrTransientUnsupported
	}
	reward := m.rewardVector(rf)
	init := m.Graph.Initial

	if m.Arch != WithRejuvenation {
		var occ []float64
		if m.Graph.NumStates() >= linalg.SparseThreshold {
			qt, err := m.Graph.GeneratorCSRTranspose(nil)
			if err != nil {
				return 0, err
			}
			var ws *linalg.Workspace
			if occ, err = ws.UniformizedIntegralCSR(qt, init, t, 0, 1e-12, nil); err != nil {
				return 0, err
			}
		} else {
			q, err := m.Graph.Generator()
			if err != nil {
				return 0, err
			}
			if occ, err = linalg.UniformizedIntegral(q, init, t, 0, 1e-12); err != nil {
				return 0, err
			}
		}
		acc, err := linalg.Dot(occ, reward)
		if err != nil {
			return 0, err
		}
		return acc / t, nil
	}
	prop, err := mrgp.NewPropagator(m.Graph)
	if err != nil {
		return 0, err
	}
	acc, err := prop.AccumulatedReward(init, reward, t)
	if err != nil {
		return 0, err
	}
	return acc / t, nil
}

// rewardVector evaluates rf over the tangible states.
func (m *Model) rewardVector(rf reliability.StateFn) []float64 {
	reward := make([]float64, m.Graph.NumStates())
	for s, mk := range m.Graph.Markings {
		i, j, k := m.classify(mk)
		reward[s] = rf(i, j, k)
	}
	return reward
}
