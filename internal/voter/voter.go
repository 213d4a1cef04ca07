// Package voter implements the output-decision schemes of an N-version
// perception system: the paper's BFT-style counting rule (assumptions
// A.2/A.3, errors only when at least 2f+1 or 2f+r+1 modules output
// incorrectly) and label-level voting schemes (threshold, majority,
// unanimity, plurality) for the event-level simulator.
package voter

import (
	"errors"
	"fmt"
	"slices"
)

// Outcome classifies a single voted perception output.
type Outcome int

// Voting outcomes. A skipped output is "inconclusive but safe": the voter
// could not gather enough agreeing outputs and suppresses the result.
const (
	Correct Outcome = iota + 1
	Erroneous
	Skipped
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Correct:
		return "correct"
	case Erroneous:
		return "erroneous"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ErrBadThreshold is returned for non-positive decision thresholds.
var ErrBadThreshold = errors.New("voter: threshold must be positive")

// CountRule is the paper's abstract voter: given which operational modules
// produced a correct output, the decision is Correct when at least
// Threshold outputs are correct, Erroneous when at least Threshold are
// incorrect, and Skipped otherwise.
type CountRule struct {
	Threshold int
}

// NewCountRule validates and returns a counting rule.
func NewCountRule(threshold int) (CountRule, error) {
	if threshold <= 0 {
		return CountRule{}, ErrBadThreshold
	}
	return CountRule{Threshold: threshold}, nil
}

// Classify applies the rule to per-module correctness flags. Modules that
// are non-operational or rejuvenating simply do not appear in the slice.
func (c CountRule) Classify(correct []bool) Outcome {
	var right, wrong int
	for _, ok := range correct {
		if ok {
			right++
		} else {
			wrong++
		}
	}
	switch {
	case right >= c.Threshold:
		return Correct
	case wrong >= c.Threshold:
		return Erroneous
	default:
		return Skipped
	}
}

// Decision is the result of a label vote.
type Decision struct {
	Label   int
	Decided bool
}

// LabelScheme decides a final label from individual module labels.
type LabelScheme interface {
	// Decide returns the voted label. Decided is false when the scheme
	// cannot reach a decision (the voter skips the output).
	Decide(labels []int) Decision

	// Name identifies the scheme in reports.
	Name() string
}

// Threshold is a k-out-of-n label scheme: a label wins when at least K
// modules vote for it. With the BFT thresholds used here at most one label
// can win; for generic K ties produce a skip.
type Threshold struct {
	K int
}

// NewThreshold validates and returns a threshold scheme.
func NewThreshold(k int) (Threshold, error) {
	if k <= 0 {
		return Threshold{}, ErrBadThreshold
	}
	return Threshold{K: k}, nil
}

// Name implements LabelScheme.
func (t Threshold) Name() string { return fmt.Sprintf("%d-out-of-n", t.K) }

// Decide implements LabelScheme.
func (t Threshold) Decide(labels []int) Decision {
	// Count each distinct label at its first occurrence. A quadratic scan
	// over the at most N labels beats building a map per request, and the
	// outcome does not depend on visiting order: tie ends true exactly
	// when two labels share the top count.
	best, bestCount, tie := 0, 0, false
	for i, label := range labels {
		if slices.Contains(labels[:i], label) {
			continue
		}
		count := 1
		for _, l := range labels[i+1:] {
			if l == label {
				count++
			}
		}
		switch {
		case count > bestCount:
			best, bestCount, tie = label, count, false
		case count == bestCount:
			tie = true
		}
	}
	if bestCount < t.K || tie {
		return Decision{}
	}
	return Decision{Label: best, Decided: true}
}

// Majority decides by simple majority of the votes cast.
type Majority struct{}

// Name implements LabelScheme.
func (Majority) Name() string { return "majority" }

// Decide implements LabelScheme.
func (Majority) Decide(labels []int) Decision {
	if len(labels) == 0 {
		return Decision{}
	}
	return Threshold{K: len(labels)/2 + 1}.Decide(labels)
}

// Unanimity decides only when every module agrees.
type Unanimity struct{}

// Name implements LabelScheme.
func (Unanimity) Name() string { return "unanimity" }

// Decide implements LabelScheme.
func (Unanimity) Decide(labels []int) Decision {
	if len(labels) == 0 {
		return Decision{}
	}
	first := labels[0]
	for _, l := range labels[1:] {
		if l != first {
			return Decision{}
		}
	}
	return Decision{Label: first, Decided: true}
}

// Plurality picks the most voted label; ties skip.
type Plurality struct{}

// Name implements LabelScheme.
func (Plurality) Name() string { return "plurality" }

// Decide implements LabelScheme.
func (Plurality) Decide(labels []int) Decision {
	return Threshold{K: 1}.Decide(labels)
}

// ClassifyDecision compares a label decision against the ground truth.
func ClassifyDecision(d Decision, truth int) Outcome {
	switch {
	case !d.Decided:
		return Skipped
	case d.Label == truth:
		return Correct
	default:
		return Erroneous
	}
}

// Tally counts outcomes over a sequence of decisions.
type Tally struct {
	Correct, Erroneous, Skipped int
}

// Record adds an outcome.
func (t *Tally) Record(o Outcome) {
	switch o {
	case Correct:
		t.Correct++
	case Erroneous:
		t.Erroneous++
	case Skipped:
		t.Skipped++
	}
}

// Total returns the number of recorded outcomes.
func (t *Tally) Total() int { return t.Correct + t.Erroneous + t.Skipped }

// Reliability returns the fraction of outputs that were correct (the
// paper's output reliability metric: skips are safe but not correct).
func (t *Tally) Reliability() float64 {
	if t.Total() == 0 {
		return 0
	}
	return float64(t.Correct) / float64(t.Total())
}

// ErrorRate returns the fraction of outputs that were erroneous.
func (t *Tally) ErrorRate() float64 {
	if t.Total() == 0 {
		return 0
	}
	return float64(t.Erroneous) / float64(t.Total())
}

// Safety returns 1 - ErrorRate: the fraction of outputs that were not
// perception errors. This is the quantity the paper's reliability
// functions R = 1 - P(error) measure — an inconclusive-but-safe skip
// counts toward it, unlike Reliability.
func (t *Tally) Safety() float64 {
	if t.Total() == 0 {
		return 0
	}
	return 1 - t.ErrorRate()
}
