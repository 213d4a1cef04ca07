// Package mlsim simulates the ML modules of an N-version perception
// system at two levels of abstraction:
//
//   - ErrorModel generates correlated per-module correctness outcomes from
//     the paper's parameters (p, p', alpha) using a common-cause chain
//     model. It is the generative counterpart of the analytic dependent-
//     error formulas: a request triggers a common perturbation with
//     probability p, the perturbation fools one healthy module outright
//     and every other healthy module with probability alpha, while
//     compromised modules fail independently with probability p'.
//   - SignBenchmark is a synthetic traffic-sign-like classification task
//     with diverse prototype classifiers. The paper estimates p = 0.08 as
//     the mean inaccuracy of LeNet/AlexNet/ResNet on GTSRB; the benchmark
//     regenerates a comparable scalar without the dataset or the networks
//     (see DESIGN.md, substitutions).
package mlsim

import (
	"errors"
	"fmt"

	"nvrel/internal/des"
)

// ErrorModel draws joint correctness outcomes for the modules of a
// perception system.
type ErrorModel struct {
	// P is a healthy module's marginal exposure to the common-cause
	// perturbation (the paper's p).
	P float64
	// PPrime is a compromised module's independent error probability.
	PPrime float64
	// Alpha is the probability that the perturbation also fools each
	// additional healthy module (the paper's error dependency).
	Alpha float64
}

// NewErrorModel validates the parameters.
func NewErrorModel(p, pPrime, alpha float64) (*ErrorModel, error) {
	for name, v := range map[string]float64{"p": p, "p'": pPrime, "alpha": alpha} {
		if v < 0 || v > 1 || v != v {
			return nil, fmt.Errorf("mlsim: parameter %s = %g outside [0,1]", name, v)
		}
	}
	return &ErrorModel{P: p, PPrime: pPrime, Alpha: alpha}, nil
}

// SampleCorrectness returns per-module correctness for one perception
// request: the first healthy entries then compromised entries. The
// returned slice is freshly allocated.
func (m *ErrorModel) SampleCorrectness(rng *des.RNG, healthy, compromised int) []bool {
	return m.SampleCorrectnessInto(nil, rng, healthy, compromised)
}

// SampleCorrectnessInto is SampleCorrectness writing into dst, which is
// reallocated only when its capacity is short. It makes the same draws in
// the same order, so the output and the rng's state afterwards match
// SampleCorrectness exactly.
func (m *ErrorModel) SampleCorrectnessInto(dst []bool, rng *des.RNG, healthy, compromised int) []bool {
	return sampleErrors(dst, true, false, m, rng, healthy, compromised)
}

// sampleErrors fills healthy+compromised entries of dst (grown if needed)
// with ok, then draws the request's error pattern and overwrites each
// erring module's entry with bad.
func sampleErrors[T any](dst []T, ok, bad T, m *ErrorModel, rng *des.RNG, healthy, compromised int) []T {
	if healthy < 0 || compromised < 0 {
		panic("mlsim: negative module count")
	}
	n := healthy + compromised
	if cap(dst) < n {
		dst = make([]T, n)
	}
	out := dst[:n]
	for i := range out {
		out[i] = ok
	}
	if healthy > 0 && rng.Bernoulli(m.P) {
		// Common-cause perturbation: one healthy module is fooled outright,
		// the rest independently with probability alpha.
		victim := rng.Intn(healthy)
		out[victim] = bad
		for i := 0; i < healthy; i++ {
			if i != victim && rng.Bernoulli(m.Alpha) {
				out[i] = bad
			}
		}
	}
	for i := 0; i < compromised; i++ {
		if rng.Bernoulli(m.PPrime) {
			out[healthy+i] = bad
		}
	}
	return out
}

// WrongLabelPolicy controls which wrong label erring modules output.
type WrongLabelPolicy int

const (
	// CommonWrongLabel makes all erring modules agree on one wrong label
	// (adversarial worst case for a threshold voter: wrong outputs can
	// reach the decision threshold).
	CommonWrongLabel WrongLabelPolicy = iota + 1
	// IndependentWrongLabels draws a wrong label per erring module
	// (benign misclassification: wrong outputs rarely agree).
	IndependentWrongLabels
)

// String returns the policy name.
func (p WrongLabelPolicy) String() string {
	switch p {
	case CommonWrongLabel:
		return "common-wrong-label"
	case IndependentWrongLabels:
		return "independent-wrong-labels"
	default:
		return fmt.Sprintf("WrongLabelPolicy(%d)", int(p))
	}
}

// ErrTooFewClasses is returned when label sampling needs at least two
// classes.
var ErrTooFewClasses = errors.New("mlsim: need at least two classes")

// SampleLabels draws per-module output labels for a request with the given
// ground-truth label. Erring modules output a wrong label chosen by the
// policy. The returned slice is freshly allocated.
func (m *ErrorModel) SampleLabels(rng *des.RNG, truth, classes, healthy, compromised int, policy WrongLabelPolicy) ([]int, error) {
	return m.SampleLabelsInto(nil, rng, truth, classes, healthy, compromised, policy)
}

// SampleLabelsInto is SampleLabels writing into dst, which is reallocated
// only when its capacity is short. It makes the same draws in the same
// order, so the output and the rng's state afterwards match SampleLabels
// exactly.
func (m *ErrorModel) SampleLabelsInto(dst []int, rng *des.RNG, truth, classes, healthy, compromised int, policy WrongLabelPolicy) ([]int, error) {
	if classes < 2 {
		return dst, ErrTooFewClasses
	}
	if truth < 0 || truth >= classes {
		return dst, fmt.Errorf("mlsim: truth label %d outside [0,%d)", truth, classes)
	}
	// Mark erring modules -1 (labels are non-negative), then draw the
	// wrong labels: the common one first, per-module ones in index order.
	labels := sampleErrors(dst, truth, -1, m, rng, healthy, compromised)
	common := wrongLabel(rng, truth, classes)
	for i, l := range labels {
		switch {
		case l >= 0:
		case policy == CommonWrongLabel:
			labels[i] = common
		default:
			labels[i] = wrongLabel(rng, truth, classes)
		}
	}
	return labels, nil
}

// wrongLabel samples a label different from truth.
func wrongLabel(rng *des.RNG, truth, classes int) int {
	l := rng.Intn(classes - 1)
	if l >= truth {
		l++
	}
	return l
}
