package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRunVoting(t *testing.T) {
	rows, err := RunVoting(3, 3e5, 77)
	if err != nil {
		t.Fatalf("RunVoting: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (4 schemes x 2 policies)", len(rows))
	}
	byKey := make(map[string]VotingRow, len(rows))
	for _, r := range rows {
		byKey[r.Scheme+"/"+r.WrongLabels] = r
		if r.Reliability < 0 || r.Reliability > 1 || r.Safety < r.Reliability-1e-9 {
			t.Errorf("implausible row %+v", r)
		}
	}
	// Under independent wrong labels, four agreeing wrong outputs over 43
	// classes are essentially impossible: the threshold voter's safety is
	// nearly perfect.
	th := byKey["4-out-of-n/independent-wrong-labels"]
	if th.Safety < 0.999 {
		t.Errorf("threshold safety under benign errors = %.4f, want ~1", th.Safety)
	}
	// Adversarially agreeing wrong labels realize the counting-rule worst
	// case: strictly lower safety than the benign case.
	adv := byKey["4-out-of-n/common-wrong-label"]
	if adv.Safety >= th.Safety {
		t.Errorf("adversarial safety %.4f should be below benign %.4f", adv.Safety, th.Safety)
	}
	// Unanimity skips massively but is the safest scheme under attack.
	un := byKey["unanimity/common-wrong-label"]
	if un.Skips < 0.2 {
		t.Errorf("unanimity skip rate = %.4f, expected large", un.Skips)
	}
	if un.Safety <= adv.Safety {
		t.Errorf("unanimity safety %.4f should beat threshold %.4f under attack", un.Safety, adv.Safety)
	}
}

func TestReportVotingOutput(t *testing.T) {
	// Exercise the registry path with a tiny configuration by calling the
	// underlying runner directly (the registered report uses a longer
	// horizon; it is covered by the CLI smoke tests).
	rows, err := RunVoting(2, 2e5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.Scheme)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"4-out-of-n", "majority", "plurality", "unanimity"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing scheme %s in %s", want, joined)
		}
	}
}

// TestRunLengthValidation: both simulation experiments refuse a
// replication count below one and a horizon that is not finite and
// positive.
func TestRunLengthValidation(t *testing.T) {
	for _, c := range []struct {
		reps    int
		horizon float64
	}{{0, 1e5}, {-1, 1e5}, {2, 0}, {2, -5}, {2, math.NaN()}, {2, math.Inf(1)}} {
		if _, err := RunVoting(c.reps, c.horizon, 1); err == nil {
			t.Errorf("RunVoting(%d, %g) accepted", c.reps, c.horizon)
		}
		if _, err := RunSimulationCheck(c.reps, c.horizon, 1); err == nil {
			t.Errorf("RunSimulationCheck(%d, %g) accepted", c.reps, c.horizon)
		}
	}
}

// TestReplicationCountValidation: the outage and heterogeneity
// experiments refuse a replication count below one with the error that
// names it, instead of substituting a default.
func TestReplicationCountValidation(t *testing.T) {
	for _, reps := range []int{0, -1} {
		want := fmt.Sprintf("replications = %d", reps)
		if _, err := RunOutage(reps, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunOutage(%d): err = %v, want one naming %q", reps, err, want)
		}
		if _, err := RunHetero(reps, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunHetero(%d): err = %v, want one naming %q", reps, err, want)
		}
	}
}
