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
// the steady state the paper reports. A negative or non-finite time
// fails with mrgp.ErrInvalidInput.
func (m *Model) TransientReliability(rf reliability.StateFn, times []float64) ([]float64, error) {
	prop, err := m.propagator(nil)
	if err != nil {
		return nil, err
	}
	reward := m.rewardVector(rf)
	out := make([]float64, len(times))
	for i, t := range times {
		pi, err := prop.Distribution(m.Graph.Initial, t)
		if err != nil {
			return nil, err
		}
		if out[i], err = linalg.Dot(pi, reward); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MissionReliability returns, for each mission window [0, t], the
// time-averaged expected reliability (1/t) Integral_0^t E[R(s)] ds. For
// short missions it exceeds the steady-state value because the system
// starts all-healthy. A window that is not positive and finite fails with
// mrgp.ErrInvalidInput.
func (m *Model) MissionReliability(rf reliability.StateFn, windows []float64) ([]float64, error) {
	prop, err := m.propagator(nil)
	if err != nil {
		return nil, err
	}
	reward := m.rewardVector(rf)
	out := make([]float64, len(windows))
	for i, t := range windows {
		if !(t > 0) {
			return nil, fmt.Errorf("%w: mission length %g must be positive", mrgp.ErrInvalidInput, t)
		}
		acc, err := prop.AccumulatedReward(m.Graph.Initial, reward, t)
		if err != nil {
			return nil, err
		}
		out[i] = acc / t
	}
	return out, nil
}

// propagator returns the transient propagator of m's process with the
// given killing rates: the clocked MRGP with rejuvenation, the plain CTMC
// without.
func (m *Model) propagator(kill []float64) (*mrgp.Propagator, error) {
	if m.Arch == WithRejuvenation && m.Params.Clock == ClockWaitsForWave {
		return nil, ErrTransientUnsupported
	}
	return mrgp.NewPropagator(m.Graph, kill)
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
