package reliability

import (
	"errors"
	"fmt"
)

// Scheme describes the voting rule of an N-version system in the BFT style
// of §II-B: n modules tolerate f compromised modules and r simultaneously
// rejuvenating or recovering modules.
type Scheme struct {
	N int // number of ML module versions
	F int // tolerated compromised modules
	R int // simultaneously rejuvenating/recovering modules (0 = no rejuvenation)
}

// Validate checks the BFT resource bound n >= 3f + 2r + 1.
func (s Scheme) Validate() error {
	if s.N <= 0 || s.F < 0 || s.R < 0 {
		return fmt.Errorf("reliability: scheme %+v has negative or empty fields", s)
	}
	if need := 3*s.F + 2*s.R + 1; s.N < need {
		return fmt.Errorf("reliability: scheme %+v violates n >= 3f+2r+1 (need %d)", s, need)
	}
	return nil
}

// Threshold returns the number of agreeing outputs required for a decision
// (2f+r+1), which is also the number of wrong outputs that constitutes a
// perception error under assumptions A.2/A.3.
func (s Scheme) Threshold() int { return 2*s.F + s.R + 1 }

// MaxDown returns the largest k for which the voting rule can still be
// satisfied: beyond it the voter cannot gather Threshold() outputs.
func (s Scheme) MaxDown() int { return s.N - s.Threshold() }

// Outage reports whether down non-operational modules (failed or
// rejuvenating) leave the voter structurally silent: down > MaxDown().
func (s Scheme) Outage(down int) bool { return down > s.MaxDown() }

// Dependent returns the generalized Ege-style dependent-error reliability
// function for an arbitrary scheme. The probability that exactly m of i
// healthy modules err is modeled as
//
//	P(0) = 1 - p                     (for i >= 1; P(0) = 1 when i = 0)
//	P(m) = C(i,m) p a^(m-1) (1-a)^(i-m)   for 1 <= m <= i
//
// while compromised modules err independently with probability p'. A state
// is an error when at least Threshold() modules err; reliability is zero
// when fewer than Threshold() modules are operational.
func Dependent(pr Params, s Scheme) (StateFn, error) {
	if err := pr.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	if err := s.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	healthy := func(i, m int) float64 { return dependentErrProb(pr.P, pr.Alpha, i, m) }
	return thresholdModel(pr, s, healthy), nil
}

// Generative returns the exact reliability function of the common-cause
// chain model that package mlsim samples from: with probability p a
// perturbation fools one healthy module outright and each remaining
// healthy module independently with probability alpha, while compromised
// modules err independently with probability p'. Unlike the Ege-style
// Dependent model this is a proper probability distribution,
//
//	P(0) = 1 - p
//	P(m) = p C(i-1, m-1) a^(m-1) (1-a)^(i-m)   for 1 <= m <= i,
//
// so it is the right analytic counterpart for cross-validating the
// event-level simulator's request outcomes.
func Generative(pr Params, s Scheme) (StateFn, error) {
	if err := pr.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	if err := s.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	healthy := func(i, m int) float64 {
		switch {
		case m < 0 || m > i:
			return 0
		case m == 0:
			if i == 0 {
				return 1
			}
			return 1 - pr.P
		default:
			return pr.P * float64(binomial(i-1, m-1)) * pow(pr.Alpha, m-1) * pow(1-pr.Alpha, i-m)
		}
	}
	return thresholdModel(pr, s, healthy), nil
}

// OutcomeFn maps a module-population state to the full voted-outcome
// distribution: the probabilities that one request yields a correct
// decision (at least Threshold correct outputs), an erroneous decision
// (at least Threshold wrong outputs), or an inconclusive-but-safe skip.
// The three sum to one.
type OutcomeFn func(i, j, k int) (correct, erroneous, skipped float64)

// Outcomes returns the voted-outcome decomposition under the generative
// error model. The paper's reliability R = 1 - P(error) merges correct
// and skipped outputs; this decomposition separates them, which matters
// operationally: a skip is safe but still leaves the vehicle without a
// perception output.
func Outcomes(pr Params, s Scheme) (OutcomeFn, error) {
	if err := pr.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	if err := s.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	healthy := func(i, m int) float64 {
		switch {
		case m < 0 || m > i:
			return 0
		case m == 0:
			if i == 0 {
				return 1
			}
			return 1 - pr.P
		default:
			return pr.P * float64(binomial(i-1, m-1)) * pow(pr.Alpha, m-1) * pow(1-pr.Alpha, i-m)
		}
	}
	threshold := s.Threshold()
	n := s.N
	return func(i, j, k int) (float64, float64, float64) {
		if i+j+k != n || i < 0 || j < 0 || k < 0 {
			panic(fmt.Sprintf("reliability: state (%d,%d,%d) does not describe %d modules", i, j, k, n))
		}
		operational := i + j
		if operational < threshold {
			return 0, 0, 1 // the voter can never decide
		}
		var pCorrect, pError float64
		for mh := 0; mh <= i; mh++ {
			ph := healthy(i, mh)
			if ph == 0 {
				continue
			}
			for mc := 0; mc <= j; mc++ {
				p := ph * binomialPMF(j, mc, pr.PPrime)
				wrong := mh + mc
				right := operational - wrong
				switch {
				case right >= threshold:
					pCorrect += p
				case wrong >= threshold:
					pError += p
				}
			}
		}
		skip := 1 - pCorrect - pError
		if skip < 0 {
			skip = 0
		}
		return pCorrect, pError, skip
	}, nil
}

// Independent returns a baseline reliability function in which healthy
// modules err i.i.d. with probability p (alpha is ignored).
func Independent(pr Params, s Scheme) (StateFn, error) {
	if err := pr.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	if err := s.Validate(); err != nil {
		return nil, errors.Join(ErrBadParams, err)
	}
	healthy := func(i, m int) float64 { return binomialPMF(i, m, pr.P) }
	return thresholdModel(pr, s, healthy), nil
}

// thresholdModel assembles a StateFn from a healthy-error distribution and
// the independent compromised-error binomial.
func thresholdModel(pr Params, s Scheme, healthy func(i, m int) float64) StateFn {
	threshold := s.Threshold()
	n := s.N
	return func(i, j, k int) float64 {
		if i+j+k != n || i < 0 || j < 0 || k < 0 {
			panic(fmt.Sprintf("reliability: state (%d,%d,%d) does not describe %d modules", i, j, k, n))
		}
		if i+j < threshold {
			return 0 // voter cannot reach a decision; skip counts as not correct
		}
		var perr float64
		for mh := 0; mh <= i; mh++ {
			ph := healthy(i, mh)
			if ph == 0 {
				continue
			}
			for mc := 0; mc <= j; mc++ {
				if mh+mc < threshold {
					continue
				}
				perr += ph * binomialPMF(j, mc, pr.PPrime)
			}
		}
		r := 1 - perr
		if r < 0 {
			// The dependent model's healthy-error mass can exceed one for
			// extreme (p, alpha); clamp like the paper's reward functions.
			r = 0
		}
		return r
	}
}

// dependentErrProb returns the Ege-style probability that exactly m of i
// healthy modules err.
func dependentErrProb(p, a float64, i, m int) float64 {
	switch {
	case m < 0 || m > i:
		return 0
	case m == 0:
		if i == 0 {
			return 1
		}
		return 1 - p
	default:
		return float64(binomial(i, m)) * p * pow(a, m-1) * pow(1-a, i-m)
	}
}

// binomialPMF returns C(n,k) q^k (1-q)^(n-k).
func binomialPMF(n, k int, q float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	return float64(binomial(n, k)) * pow(q, k) * pow(1-q, n-k)
}

// binomial returns C(n,k) for the small n used here.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
	}
	return c
}
