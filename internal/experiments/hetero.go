package experiments

import (
	"fmt"
	"io"

	"nvrel/internal/des"
	"nvrel/internal/mlsim"
	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
	"nvrel/internal/percept"
	"nvrel/internal/reliability"
)

// HeteroResult compares evaluating an N-version system with one averaged
// accuracy (the paper's approach: p = mean inaccuracy of the three
// networks) against keeping each version's measured accuracy (extension
// experiment E20).
type HeteroResult struct {
	// PerVersion are the measured per-version inaccuracies from the
	// synthetic benchmark.
	PerVersion []float64
	// AveragedP is their mean (what the paper would use).
	AveragedP float64
	// AveragedE is E[R_4v] with the averaged p under the independent
	// model (the apples-to-apples baseline for Heterogeneous, which
	// assumes independent errors).
	AveragedE float64
	// HeterogeneousE is E[R_4v] with per-version rates.
	HeterogeneousE float64
	// Simulated is the identity-tracking simulator's estimate of the
	// heterogeneous value (95% CI).
	Simulated des.Summary
	// Covered reports whether HeterogeneousE lies in the simulated CI.
	Covered bool
}

// RunHetero measures per-version accuracies on the synthetic benchmark
// and evaluates the four-version system both ways. The simulated check
// needs at least one replication.
func RunHetero(replications int, seed uint64) (*HeteroResult, error) {
	if err := checkReplications(replications); err != nil {
		return nil, err
	}
	bench, err := mlsim.NewSignBenchmark(mlsim.DefaultBenchmarkConfig())
	if err != nil {
		return nil, err
	}
	params := nvp.DefaultFourVersion()
	res := &HeteroResult{PerVersion: make([]float64, params.N)}
	// Each version's estimate draws from its own stream, so the four run
	// on the pool and the result does not depend on the worker count.
	rngs := des.Streams(seed, params.N)
	err = parallel.ForEach(params.N, func(i int) error {
		c, err := bench.NewClassifier(mlsim.DefaultDiversity, seed+uint64(i)+1)
		if err != nil {
			return err
		}
		res.PerVersion[i], err = bench.EstimateInaccuracy(c, 20000, rngs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, p := range res.PerVersion {
		res.AveragedP += p
	}
	res.AveragedP /= float64(params.N)

	model, err := nvp.BuildNoRejuvenation(params)
	if err != nil {
		return nil, err
	}
	avgRF, err := reliability.Independent(reliability.Params{
		P: res.AveragedP, PPrime: params.PPrime, Alpha: params.Alpha,
	}, params.Scheme())
	if err != nil {
		return nil, err
	}
	if res.AveragedE, err = model.ExpectedReliability(avgRF); err != nil {
		return nil, err
	}
	hetRF, err := reliability.Heterogeneous(reliability.HeterogeneousParams{
		HealthyErr:     res.PerVersion,
		CompromisedErr: params.PPrime,
	}, params.Scheme())
	if err != nil {
		return nil, err
	}
	if res.HeterogeneousE, err = model.ExpectedReliability(hetRF); err != nil {
		return nil, err
	}

	// des.Replicate's stream i is the (i+1)-th fork of des.NewRNG(seed+99),
	// the stream this loop ran on when it forked serially.
	res.Simulated, err = des.Replicate(replications, seed+99, func(_ int, rng *des.RNG) (float64, error) {
		tally, err := percept.RunHeterogeneous(percept.HeteroConfig{
			Params:          params,
			HealthyErr:      res.PerVersion,
			Horizon:         1.5e6,
			WarmUp:          5e4,
			RequestInterval: 200,
		}, rng)
		if err != nil {
			return 0, err
		}
		return tally.Safety(), nil
	})
	if err != nil {
		return nil, err
	}
	res.Covered = res.Simulated.Contains(res.HeterogeneousE)
	return res, nil
}

// ReportHetero writes the E20 report.
func ReportHetero(w io.Writer) error {
	res, err := RunHetero(16, 20230708)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E20 (extension): per-version accuracies vs the paper's averaged p")
	fmt.Fprint(w, "  measured inaccuracies:")
	for _, p := range res.PerVersion {
		fmt.Fprintf(w, " %.4f", p)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  averaged p = %.4f -> E[R_4v] = %.6f (independent model)\n", res.AveragedP, res.AveragedE)
	fmt.Fprintf(w, "  per-version rates        -> E[R_4v] = %.6f (Poisson-binomial model)\n", res.HeterogeneousE)
	status := "OK"
	if !res.Covered {
		status = "MISMATCH"
	}
	fmt.Fprintf(w, "  identity-tracking simulation: %s [%s]\n", res.Simulated, status)
	fmt.Fprintln(w, "  (averaging is a good approximation when version accuracies are similar;")
	fmt.Fprintln(w, "  the gap widens with accuracy spread)")
	return nil
}
