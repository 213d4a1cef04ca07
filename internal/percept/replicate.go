package percept

import (
	"errors"

	"nvrel/internal/des"
	"nvrel/internal/parallel"
)

// Estimate aggregates replicated simulation runs.
type Estimate struct {
	// AnalyticReward summarizes the simulation estimate of E[R_sys] under
	// the paper's reliability functions.
	AnalyticReward des.Summary

	// RequestReliability summarizes the fraction of correct voted outputs
	// under the generative error model (zero-valued when request sampling
	// is disabled).
	RequestReliability des.Summary

	// RequestErrorRate summarizes the fraction of erroneous voted outputs.
	RequestErrorRate des.Summary

	// RequestSafety summarizes 1 - error rate: the generative-model
	// counterpart of the paper's R = 1 - P(error) (safe skips count).
	RequestSafety des.Summary

	// LabelReliability and LabelSafety summarize the label-voting tallies,
	// one entry per label scheme in Config.LabelSchemes order (one for the
	// default scheme); nil unless Config.Classes enables label voting.
	LabelReliability []des.Summary
	LabelSafety      []des.Summary
}

// Replicate runs n independent replications of the configured simulation
// and summarizes the estimates with 95% confidence intervals.
func Replicate(cfg Config, n int, seed uint64) (*Estimate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("percept: replication count must be positive")
	}
	// Fork every replication's stream before any runs, run the
	// replications in parallel, and accumulate in replication order: the
	// estimate is bit-identical at every worker count.
	rngs := des.Streams(seed, n)
	results := make([]*Result, n)
	err := parallel.ForEach(n, func(rep int) error {
		sys, err := New(cfg, rngs[rep])
		if err != nil {
			return err
		}
		res, err := sys.Run()
		if err != nil {
			return err
		}
		results[rep] = res
		metReplications.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rewards, reliab, errRate, safety des.Accumulator
	schemes := len(results[0].LabelTallies)
	labelRel := make([]des.Accumulator, schemes)
	labelSafe := make([]des.Accumulator, schemes)
	for _, res := range results {
		rewards.Add(res.AnalyticReward)
		if cfg.RequestInterval > 0 {
			reliab.Add(res.Tally.Reliability())
			errRate.Add(res.Tally.ErrorRate())
			safety.Add(res.Tally.Safety())
			for k, tally := range res.LabelTallies {
				labelRel[k].Add(tally.Reliability())
				labelSafe[k].Add(tally.Safety())
			}
		}
	}
	est := &Estimate{
		AnalyticReward:     rewards.Summarize(),
		RequestReliability: reliab.Summarize(),
		RequestErrorRate:   errRate.Summarize(),
		RequestSafety:      safety.Summarize(),
	}
	for k := range schemes {
		est.LabelReliability = append(est.LabelReliability, labelRel[k].Summarize())
		est.LabelSafety = append(est.LabelSafety, labelSafe[k].Summarize())
	}
	return est, nil
}
