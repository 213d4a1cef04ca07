package nvp

import (
	"errors"

	"nvrel/internal/mrgp"
)

// MeanTimeToVoterOutage returns the expected time, starting from the
// all-healthy state, until the voter first cannot reach a decision: fewer
// than 2f+1 (or 2f+r+1) modules remain operational, i.e. the system first
// enters a state with k > N - threshold. This is the architecture's
// MTTF-style safety metric — before this instant every output is either
// correct, erroneous, or deliberately skipped; after it the voter is
// structurally silent until a repair completes.
//
// Both architectures go through mrgp.MeanTimeToTarget: the CTMC one as
// its no-tick case, the clocked one over clock epochs. The waits-for-wave
// clock is outside the MRGP class and returns
// mrgp.ErrClockNotAlwaysEnabled.
func (m *Model) MeanTimeToVoterOutage() (float64, error) {
	target, err := m.outageTarget()
	if err != nil {
		return 0, err
	}
	return mrgp.MeanTimeToTarget(nil, nil, m.Graph, target)
}

// outageTarget flags the markings in which the voter is structurally
// silent; a rejuvenating module counts as down.
func (m *Model) outageTarget() ([]bool, error) {
	scheme := m.Params.Scheme()
	target := make([]bool, m.Graph.NumStates())
	reachable := false
	for s, mk := range m.Graph.Markings {
		_, _, k := m.classify(mk)
		target[s] = scheme.Outage(k)
		reachable = reachable || target[s]
	}
	if !reachable {
		return nil, errors.New("nvp: no voter-outage states are reachable in this model")
	}
	return target, nil
}
