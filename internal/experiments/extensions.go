package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
	"nvrel/internal/percept"
)

// OptimalInterval is the result of the rejuvenation-interval optimization
// (E9): the interval in [lo, hi] maximizing E[R_6v].
type OptimalInterval struct {
	Interval    float64
	Reliability float64
	// Boundary reports that the optimum sits on an endpoint of the search
	// range (the reliability is monotone over the range).
	Boundary bool
}

// RunOptimize searches [lo, hi] for the rejuvenation interval maximizing
// the six-version expected reliability using golden-section search with a
// final boundary check. The paper performs this search visually on
// Figure 3 ("the maximum reliability is reached for 400-450 s").
func RunOptimize(lo, hi, tol float64) (OptimalInterval, error) {
	if lo <= 0 || hi <= lo {
		return OptimalInterval{}, errors.New("experiments: need 0 < lo < hi")
	}
	if tol <= 0 {
		tol = 1
	}
	memo := newSolveMemo()
	eval := func(ctx context.Context, tau float64) (float64, error) {
		p := nvp.DefaultSixVersion()
		p.RejuvenationInterval = tau
		return evalSix(ctx, memo, p)
	}
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	// The two initial probes are independent; later iterations reuse one
	// of them and are inherently sequential.
	var f1, f2 float64
	probes := [2]float64{x1, x2}
	results := [2]float64{}
	err := parallel.ForEachCtx(context.Background(), 2, func(ctx context.Context, i int) error {
		v, err := eval(ctx, probes[i])
		results[i] = v
		return err
	})
	if err != nil {
		return OptimalInterval{}, err
	}
	f1, f2 = results[0], results[1]
	for b-a > tol {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			if f2, err = eval(context.Background(), x2); err != nil {
				return OptimalInterval{}, err
			}
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			if f1, err = eval(context.Background(), x1); err != nil {
				return OptimalInterval{}, err
			}
		}
	}
	best := OptimalInterval{Interval: (a + b) / 2}
	// Golden-section assumes unimodality; when the response is monotone
	// over the range the true optimum is an endpoint. Evaluate the interior
	// candidate and both endpoints concurrently, then compare in order.
	finals := [3]float64{best.Interval, lo, hi}
	vals := [3]float64{}
	if err := parallel.ForEachCtx(context.Background(), 3, func(ctx context.Context, i int) error {
		v, err := eval(ctx, finals[i])
		vals[i] = v
		return err
	}); err != nil {
		return OptimalInterval{}, err
	}
	best.Reliability = vals[0]
	for i, edge := range []float64{lo, hi} {
		if vals[i+1] > best.Reliability {
			best = OptimalInterval{Interval: edge, Reliability: vals[i+1], Boundary: true}
		}
	}
	return best, nil
}

// SimulationCheck cross-validates the analytic solvers against the
// discrete-event simulator (E8).
type SimulationCheck struct {
	Architecture string
	Analytic     float64
	Simulated    percept.Estimate
	// Covered reports whether the analytic value lies inside the
	// simulation's 95% confidence interval.
	Covered bool
}

// checkRunLength rejects a replication count below one and a horizon that
// is not finite and positive, naming the value.
func checkRunLength(replications int, horizon float64) error {
	if err := checkReplications(replications); err != nil {
		return err
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return fmt.Errorf("experiments: horizon = %g, want a finite positive number of seconds", horizon)
	}
	return nil
}

// checkReplications rejects a replication count below one, naming it.
func checkReplications(replications int) error {
	if replications < 1 {
		return fmt.Errorf("experiments: replications = %d, want at least 1", replications)
	}
	return nil
}

// RunSimulationCheck simulates both architectures at the defaults and
// compares them against the exact solvers. It needs at least one
// replication and a finite, positive horizon.
func RunSimulationCheck(replications int, horizon float64, seed uint64) ([]SimulationCheck, error) {
	if err := checkRunLength(replications, horizon); err != nil {
		return nil, err
	}
	var out []SimulationCheck
	memo := newSolveMemo()

	a4, err := evalFour(context.Background(), memo, nvp.DefaultFourVersion())
	if err != nil {
		return nil, err
	}
	est4, err := percept.Replicate(percept.Config{
		Params:  nvp.DefaultFourVersion(),
		Horizon: horizon,
		WarmUp:  horizon / 40,
	}, replications, seed)
	if err != nil {
		return nil, fmt.Errorf("four-version simulation: %w", err)
	}
	out = append(out, SimulationCheck{
		Architecture: "four-version (no rejuvenation)",
		Analytic:     a4,
		Simulated:    *est4,
		Covered:      est4.AnalyticReward.Contains(a4),
	})

	a6, err := evalSix(context.Background(), memo, nvp.DefaultSixVersion())
	if err != nil {
		return nil, err
	}
	est6, err := percept.Replicate(percept.Config{
		Params:       nvp.DefaultSixVersion(),
		Rejuvenation: true,
		Horizon:      horizon,
		WarmUp:       horizon / 40,
	}, replications, seed+1)
	if err != nil {
		return nil, fmt.Errorf("six-version simulation: %w", err)
	}
	out = append(out, SimulationCheck{
		Architecture: "six-version (with rejuvenation)",
		Analytic:     a6,
		Simulated:    *est6,
		Covered:      est6.AnalyticReward.Contains(a6),
	})
	return out, nil
}

// ParamRow is one Table II entry.
type ParamRow struct {
	Name       string
	Transition string
	Value      string
}

// TableII returns the default input parameters as the paper lists them.
func TableII() []ParamRow {
	return []ParamRow{
		{Name: "N", Transition: "-", Value: "4 or 6"},
		{Name: "f", Transition: "-", Value: "1"},
		{Name: "r", Transition: "-", Value: "1"},
		{Name: "alpha", Transition: "-", Value: "0.5"},
		{Name: "p", Transition: "-", Value: "0.08"},
		{Name: "p'", Transition: "-", Value: "0.5"},
		{Name: "1/lambda_c", Transition: "Tc", Value: "1523 s"},
		{Name: "1/lambda", Transition: "Tf", Value: "3000 s"},
		{Name: "1/mu", Transition: "Tr", Value: "3 s"},
		{Name: "1/mu_r", Transition: "Trj", Value: "#Pmr x 3 s"},
		{Name: "1/gamma", Transition: "Trc", Value: "600 s"},
	}
}
