package experiments

import (
	"fmt"
	"io"

	"nvrel/internal/mlsim"
	"nvrel/internal/nvp"
	"nvrel/internal/percept"
	"nvrel/internal/voter"
)

// VotingRow compares one label-voting scheme under one wrong-label policy.
type VotingRow struct {
	Scheme      string
	WrongLabels string
	Reliability float64 // P(correct decision)
	Safety      float64 // 1 - P(erroneous decision)
	Skips       float64 // P(inconclusive, output suppressed)
}

// RunVoting simulates the six-version system with label-level voting and
// compares decision schemes under benign (independent wrong labels) and
// adversarial (agreeing wrong labels) misclassification (extension
// experiment E13). The paper abstracts voting to the counting rule of
// A.2/A.3; this experiment quantifies what that abstraction hides: under
// benign errors wrong outputs rarely agree, so threshold voters almost
// never emit an erroneous output, while adversarially coordinated errors
// realize the counting rule's worst case. It needs at least one
// replication and a finite, positive horizon.
func RunVoting(replications int, horizon float64, seed uint64) ([]VotingRow, error) {
	if err := checkRunLength(replications, horizon); err != nil {
		return nil, err
	}
	schemes := []voter.LabelScheme{
		voter.Threshold{K: 4}, // the paper's 2f+r+1 threshold
		voter.Majority{},
		voter.Plurality{},
		voter.Unanimity{},
	}
	policies := []mlsim.WrongLabelPolicy{mlsim.CommonWrongLabel, mlsim.IndependentWrongLabels}

	// One trajectory per policy: every scheme decides on the same sampled
	// labels, which gives each the tallies of its own run at this seed.
	var rows []VotingRow
	for _, policy := range policies {
		cfg := percept.Config{
			Params:          nvp.DefaultSixVersion(),
			Rejuvenation:    true,
			Horizon:         horizon,
			WarmUp:          horizon / 40,
			RequestInterval: 120,
			Classes:         43, // GTSRB-sized label space
			WrongLabels:     policy,
			LabelSchemes:    schemes,
		}
		est, err := percept.Replicate(cfg, replications, seed+uint64(policy)*977)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", policy, err)
		}
		for k, scheme := range schemes {
			rel, safe := est.LabelReliability[k].Mean, est.LabelSafety[k].Mean
			rows = append(rows, VotingRow{
				Scheme:      scheme.Name(),
				WrongLabels: policy.String(),
				Reliability: rel,
				Safety:      safe,
				Skips:       safe - rel,
			})
		}
	}
	return rows, nil
}

// ReportVoting writes the E13 report.
func ReportVoting(w io.Writer) error {
	rows, err := RunVoting(8, 1e6, 20230705)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E13 (extension): label-voting schemes on the six-version system (43 classes)")
	fmt.Fprintf(w, "  %-14s %-26s %-12s %-12s %s\n", "scheme", "wrong labels", "P(correct)", "1-P(error)", "P(skip)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %-26s %-12.4f %-12.4f %.4f\n", r.Scheme, r.WrongLabels, r.Reliability, r.Safety, r.Skips)
	}
	fmt.Fprintln(w, "  (the paper's counting rule corresponds to the adversarial common-wrong-label case)")
	return nil
}
