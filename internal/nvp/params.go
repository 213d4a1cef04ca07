// Package nvp builds and solves the paper's N-version perception-system
// models: the DSPN of Figure 2(a) (N ML modules subject to compromise,
// failure, and repair, without rejuvenation) and the DSPN of Figures
// 2(b)+(c) (the same system with a deterministic rejuvenation clock). It
// combines the petri, ctmc/mrgp, and reliability packages into the paper's
// expected output reliability E[R_sys] = sum pi(i,j,k) R(i,j,k).
package nvp

import (
	"errors"
	"fmt"
	"math"

	"nvrel/internal/reliability"
)

// ServerSemantics selects how the exponential module transitions (Tc, Tf,
// Tr) scale with the number of tokens in their input place.
type ServerSemantics int

const (
	// SingleServer fires at a constant rate while at least one token is
	// present (TimeNET's default; reproduces the paper's numbers).
	SingleServer ServerSemantics = iota + 1
	// PerToken fires at rate proportional to the token count
	// (infinite-server semantics: N independent modules).
	PerToken
)

// String returns the semantics name.
func (s ServerSemantics) String() string {
	switch s {
	case SingleServer:
		return "single-server"
	case PerToken:
		return "per-token"
	default:
		return fmt.Sprintf("ServerSemantics(%d)", int(s))
	}
}

// ClockPolicy selects when the rejuvenation clock restarts after firing.
// The paper's Table I guard for Trt is partially garbled (see DESIGN.md);
// both defensible readings are implemented.
type ClockPolicy int

const (
	// ClockFreeRunning restarts the clock as soon as the rejuvenation
	// wave is dispatched (guard g3 read as "#Pmr + #Pac > 0", the printed
	// form): ticks arrive every RejuvenationInterval. This is the default
	// and reproduces the paper's numbers most closely.
	ClockFreeRunning ClockPolicy = iota
	// ClockWaitsForWave restarts the clock only after the dispatched wave
	// completes (guard g3 read as "#Pmr + #Pac = 0"): consecutive ticks
	// are spaced RejuvenationInterval plus the wave duration. This model
	// leaves the synchronous regeneration class and is solved with the
	// general Markov-regenerative solver.
	ClockWaitsForWave
)

// String returns the policy name.
func (c ClockPolicy) String() string {
	switch c {
	case ClockFreeRunning:
		return "free-running"
	case ClockWaitsForWave:
		return "waits-for-wave"
	default:
		return fmt.Sprintf("ClockPolicy(%d)", int(c))
	}
}

// Params collects the model inputs of Table II.
type Params struct {
	// N is the number of ML module versions.
	N int
	// F is the number of tolerated compromised modules.
	F int
	// R is the number of modules that may rejuvenate or recover
	// simultaneously (only used by the rejuvenation architecture).
	R int

	// Alpha is the error-probability dependency between healthy modules.
	Alpha float64
	// P is the output error probability of a healthy module.
	P float64
	// PPrime is the output error probability of a compromised module.
	PPrime float64

	// MeanTimeToCompromise is 1/lambda_c, the mean time for a fault or
	// attack to degrade a healthy module (transition Tc).
	MeanTimeToCompromise float64
	// MeanTimeToFailure is 1/lambda, the mean time for a compromised
	// module to stop entirely (transition Tf).
	MeanTimeToFailure float64
	// MeanTimeToRepair is 1/mu, the mean time to restore a failed module
	// (transition Tr).
	MeanTimeToRepair float64
	// MeanTimeToRejuvenate is the per-module base of 1/mu_r; the effective
	// mean is MeanTimeToRejuvenate x #Pmr (transition Trj).
	MeanTimeToRejuvenate float64
	// RejuvenationInterval is 1/gamma, the deterministic clock period
	// (transition Trc).
	RejuvenationInterval float64

	// Semantics selects the firing semantics of Tc/Tf/Tr. The zero value
	// means SingleServer.
	Semantics ServerSemantics

	// Clock selects the rejuvenation-clock restart policy (only used by
	// the rejuvenation architecture). The zero value is ClockFreeRunning.
	Clock ClockPolicy
}

// Table II defaults.
const (
	defaultAlpha                = 0.5
	defaultP                    = 0.08
	defaultPPrime               = 0.5
	defaultMeanTimeToCompromise = 1523
	defaultMeanTimeToFailure    = 3000
	defaultMeanTimeToRepair     = 3
	defaultMeanTimeToRejuvenate = 3
	defaultRejuvenationInterval = 600
)

// DefaultFourVersion returns the Table II parameters for the four-version
// system without rejuvenation (n = 4, f = 1).
func DefaultFourVersion() Params {
	p := defaults()
	p.N, p.F, p.R = 4, 1, 0
	return p
}

// DefaultSixVersion returns the Table II parameters for the six-version
// system with rejuvenation (n = 6, f = 1, r = 1).
func DefaultSixVersion() Params {
	p := defaults()
	p.N, p.F, p.R = 6, 1, 1
	return p
}

func defaults() Params {
	return Params{
		Alpha:                defaultAlpha,
		P:                    defaultP,
		PPrime:               defaultPPrime,
		MeanTimeToCompromise: defaultMeanTimeToCompromise,
		MeanTimeToFailure:    defaultMeanTimeToFailure,
		MeanTimeToRepair:     defaultMeanTimeToRepair,
		MeanTimeToRejuvenate: defaultMeanTimeToRejuvenate,
		RejuvenationInterval: defaultRejuvenationInterval,
		Semantics:            SingleServer,
	}
}

// Reliability returns the error-probability parameters.
func (p Params) Reliability() reliability.Params {
	return reliability.Params{P: p.P, PPrime: p.PPrime, Alpha: p.Alpha}
}

// GeneratorKey returns p with the reward-only fields F, Alpha, P and
// PPrime cleared. Those fields enter only the reliability function (see
// Reliability and Scheme), never the DSPN: two parameter sets with the
// same key build the same net, stamp the same rates and delays, and solve
// to the same distribution under one architecture. Together with the
// architecture it keys a memo of solved distributions, the same split
// ModelCache's structural key relies on. It does not cover
// attacker-modified builds, whose transitions the parameters do not
// determine.
func (p Params) GeneratorKey() Params {
	p.F, p.Alpha, p.P, p.PPrime = 0, 0, 0, 0
	return p
}

// Scheme returns the BFT voting scheme implied by N, F, R.
func (p Params) Scheme() reliability.Scheme {
	return reliability.Scheme{N: p.N, F: p.F, R: p.R}
}

// Validate checks structural and timing parameters. needRejuvenation adds
// the constraints of the clocked architecture.
func (p Params) Validate(needRejuvenation bool) error {
	var errs []error
	if p.N <= 0 {
		errs = append(errs, fmt.Errorf("nvp: N = %d must be positive", p.N))
	}
	if err := p.Reliability().Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := p.Scheme().Validate(); err != nil {
		errs = append(errs, err)
	}
	checkTime := func(name string, v float64) {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("nvp: %s = %g must be positive and finite", name, v))
		}
	}
	checkTime("MeanTimeToCompromise", p.MeanTimeToCompromise)
	checkTime("MeanTimeToFailure", p.MeanTimeToFailure)
	checkTime("MeanTimeToRepair", p.MeanTimeToRepair)
	if needRejuvenation {
		checkTime("MeanTimeToRejuvenate", p.MeanTimeToRejuvenate)
		checkTime("RejuvenationInterval", p.RejuvenationInterval)
		if p.R <= 0 {
			errs = append(errs, fmt.Errorf("nvp: rejuvenation architecture requires R > 0, got %d", p.R))
		}
	}
	switch p.Semantics {
	case SingleServer, PerToken, 0:
	default:
		errs = append(errs, fmt.Errorf("nvp: unknown semantics %d", p.Semantics))
	}
	switch p.Clock {
	case ClockFreeRunning, ClockWaitsForWave:
	default:
		errs = append(errs, fmt.Errorf("nvp: unknown clock policy %d", p.Clock))
	}
	return errors.Join(errs...)
}

// semantics returns the effective server semantics.
func (p Params) semantics() ServerSemantics {
	if p.Semantics == 0 {
		return SingleServer
	}
	return p.Semantics
}
