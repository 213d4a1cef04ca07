package percept

import (
	"errors"
	"fmt"

	"nvrel/internal/des"
)

// RunUntilOutage runs the dynamics until the voter first becomes
// structurally silent (more than N - threshold modules down) or until
// maxHorizon elapses. It returns the outage time, or a negative value when
// censored by the horizon. The system must be fresh (not yet Run).
func (s *System) RunUntilOutage(maxHorizon float64) (float64, error) {
	if err := des.CheckFinite("max horizon", maxHorizon); err != nil {
		return 0, fmt.Errorf("percept: %w", err)
	}
	if maxHorizon <= 0 {
		return 0, fmt.Errorf("percept: max horizon %g must be positive", maxHorizon)
	}
	s.armDynamics()
	for s.firstOutage < 0 && s.sim.Now() < maxHorizon {
		if !s.sim.Step() {
			break
		}
	}
	return s.firstOutage, nil
}

// OutageEstimate summarizes replicated mean-time-to-outage runs.
type OutageEstimate struct {
	// MeanTime summarizes the outage times of uncensored replications.
	MeanTime des.Summary
	// Censored counts replications that reached maxHorizon without an
	// outage (their times are excluded from MeanTime, so the estimate is
	// biased low when Censored > 0).
	Censored int
}

// EstimateOutage replicates RunUntilOutage. Request sampling and warm-up
// are ignored; only the lifecycle dynamics run.
func EstimateOutage(cfg Config, n int, seed uint64, maxHorizon float64) (*OutageEstimate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("percept: replication count must be positive")
	}
	var (
		acc      des.Accumulator
		censored int
	)
	master := des.NewRNG(seed)
	for rep := 0; rep < n; rep++ {
		sys, err := New(cfg, master.Fork())
		if err != nil {
			return nil, err
		}
		tOut, err := sys.RunUntilOutage(maxHorizon)
		if err != nil {
			return nil, err
		}
		if tOut < 0 {
			censored++
			continue
		}
		acc.Add(tOut)
	}
	return &OutageEstimate{MeanTime: acc.Summarize(), Censored: censored}, nil
}
