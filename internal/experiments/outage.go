package experiments

import (
	"fmt"
	"io"

	"nvrel/internal/nvp"
	"nvrel/internal/percept"
)

// OutageResult carries the mean-time-to-voter-outage comparison (extension
// experiment E14): the expected time until fewer than 2f+1 (respectively
// 2f+r+1) modules remain operational and the voter falls structurally
// silent.
type OutageResult struct {
	// FourVersionExact is the exact first-passage value for the CTMC
	// architecture.
	FourVersionExact float64
	// FourVersionSim is the simulation estimate (cross-check).
	FourVersionSim *percept.OutageEstimate
	// SixVersionExact is the exact MRGP first-passage value for the
	// clocked architecture. Its DES cross-check runs at stressed
	// parameters in percept's tests; at the defaults an outage takes
	// ~10^9 s and nearly every simulated run would be censored.
	SixVersionExact float64
}

// RunOutage computes E14. The four-version cross-check needs at least one
// replication.
func RunOutage(replications int, seed uint64) (*OutageResult, error) {
	if err := checkReplications(replications); err != nil {
		return nil, err
	}
	m4, err := nvp.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		return nil, err
	}
	exact, err := m4.MeanTimeToVoterOutage()
	if err != nil {
		return nil, err
	}
	sim4, err := percept.EstimateOutage(percept.Config{
		Params:  nvp.DefaultFourVersion(),
		Horizon: 1, // unused by outage runs; must be positive for validation
	}, replications, seed, 100*exact)
	if err != nil {
		return nil, fmt.Errorf("four-version outage simulation: %w", err)
	}
	m6, err := nvp.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		return nil, err
	}
	exact6, err := m6.MeanTimeToVoterOutage()
	if err != nil {
		return nil, fmt.Errorf("six-version outage: %w", err)
	}
	return &OutageResult{
		FourVersionExact: exact,
		FourVersionSim:   sim4,
		SixVersionExact:  exact6,
	}, nil
}

// ReportOutage writes the E14 report.
func ReportOutage(w io.Writer) error {
	res, err := RunOutage(24, 20230706)
	if err != nil {
		return err
	}
	days := func(s float64) float64 { return s / 86400 }
	fmt.Fprintln(w, "E14 (extension): mean time to voter outage (fewer than threshold modules operational)")
	fmt.Fprintf(w, "  four-version exact:     %.0f s (%.1f days)\n", res.FourVersionExact, days(res.FourVersionExact))
	fmt.Fprintf(w, "  four-version simulated: %s (censored %d)\n", res.FourVersionSim.MeanTime, res.FourVersionSim.Censored)
	fmt.Fprintf(w, "  six-version exact:      %.0f s (%.1f days)\n", res.SixVersionExact, days(res.SixVersionExact))
	fmt.Fprintf(w, "  rejuvenation extends voter availability by %.1fx\n", res.SixVersionExact/res.FourVersionExact)
	return nil
}
