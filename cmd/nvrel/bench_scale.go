package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/nvp"
	"nvrel/internal/petri"
)

// ScalePoint is one (family, model size) dense-vs-sparse comparison.
type ScalePoint struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	States int    `json:"states"`
	NNZ    int    `json:"nnz"`

	SparseSeconds    float64 `json:"sparse_seconds"`
	SparseAllocBytes uint64  `json:"sparse_alloc_bytes"`

	// Dense figures are absent when the dense solver was skipped because a
	// smaller size already blew the time budget.
	DenseSkipped    bool    `json:"dense_skipped"`
	DenseSeconds    float64 `json:"dense_seconds,omitempty"`
	DenseAllocBytes uint64  `json:"dense_alloc_bytes,omitempty"`

	// Speedup is dense_seconds / sparse_seconds; MaxAbsDiff is the largest
	// elementwise disagreement of the two result vectors. Both only when
	// dense ran.
	Speedup    float64 `json:"speedup,omitempty"`
	MaxAbsDiff float64 `json:"max_abs_diff,omitempty"`
}

// ScaleReport is the JSON document `nvrel bench -scale` writes.
type ScaleReport struct {
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	NumCPU        int     `json:"num_cpu"`
	Timestamp     string  `json:"timestamp"`
	BudgetSeconds float64 `json:"dense_budget_seconds"`

	// SparseThreshold is the routing threshold compiled into this build;
	// CrossoverStates is the smallest measured state count at which the
	// sparse path beat the dense one, i.e. the data the threshold is
	// chosen from.
	SparseThreshold int `json:"sparse_threshold"`
	CrossoverStates int `json:"crossover_states,omitempty"`

	Results []ScalePoint `json:"results"`
}

// scaleFamily describes one model family swept over N with a dense and a
// sparse solver to race. Both solvers return the vector the family is
// ultimately after (a distribution), so agreement is checked end to end.
type scaleFamily struct {
	name   string
	sizes  []int
	build  func(n int) (*petri.Graph, error)
	dense  func(g *petri.Graph) ([]float64, error)
	sparse func(g *petri.Graph) ([]float64, error)
}

// ctmcRung returns a solver pinned to one steady-state rung of a plain
// CTMC graph ("gth" or "gs"), with no fallback to blur the timing.
func ctmcRung(rung string) func(*petri.Graph) ([]float64, error) {
	return func(g *petri.Graph) ([]float64, error) {
		pi, _, err := g.SteadyState(nil, nil, petri.Opts{Rung: rung})
		return pi, err
	}
}

// mrgpRung returns a solver pinned to one MRGP formulation
// ("mrgp-dense" or "mrgp-sparse").
func mrgpRung(rung string) func(*petri.Graph) ([]float64, error) {
	return func(g *petri.Graph) ([]float64, error) {
		sol, _, err := mrgp.Solve(nil, nil, g, mrgp.Opts{Rung: rung})
		if err != nil {
			return nil, err
		}
		return sol.Pi, nil
	}
}

func scaleFamilies() []scaleFamily {
	noRejuv := func(n int) (*petri.Graph, error) {
		p := nvp.DefaultFourVersion()
		p.N = n
		m, err := nvp.BuildNoRejuvenation(p)
		if err != nil {
			return nil, err
		}
		return m.Graph, nil
	}
	withRejuv := func(n int) (*petri.Graph, error) {
		p := nvp.DefaultSixVersion()
		p.N = n
		m, err := nvp.BuildWithRejuvenation(p)
		if err != nil {
			return nil, err
		}
		return m.Graph, nil
	}
	return []scaleFamily{
		{
			// CTMC steady state: dense GTH elimination vs the CSR
			// Gauss-Seidel iteration.
			name:   "steady-norejuv",
			sizes:  []int{6, 10, 16, 24, 40, 60, 90, 130, 180},
			build:  noRejuv,
			dense:  ctmcRung("gth"),
			sparse: ctmcRung("gs"),
		},
		{
			// MRGP steady state: dense embedded-chain construction vs the
			// matrix-free sparse power iteration.
			name:   "steady-rejuv",
			sizes:  []int{6, 8, 10, 12, 14, 16, 20, 24, 30},
			build:  withRejuv,
			dense:  mrgpRung("mrgp-dense"),
			sparse: mrgpRung("mrgp-sparse"),
		},
	}
}

// cmdBenchScale sweeps each family's model size upward, racing the dense
// solver against the sparse one at every point. The dense solver drops out
// of a family once a solve exceeds the time budget — the remaining sizes
// are exactly the ones the sparse engine opens up. The `-only` flag
// selects families by name through the same helper as the other bench
// modes.
func cmdBenchScale(output string, budget float64, only string, out io.Writer) error {
	families, err := filterOnly(only, scaleFamilies(), func(f scaleFamily) string { return f.name })
	if err != nil {
		return err
	}
	report := ScaleReport{
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		BudgetSeconds:   budget,
		SparseThreshold: linalg.SparseThreshold,
	}
	fmt.Fprintf(out, "bench -scale: dense budget %.0fs per solve\n", budget)
	fmt.Fprintf(out, "  %-18s %-5s %-7s %-8s %-12s %-12s %-9s %s\n",
		"family", "N", "states", "nnz", "dense (s)", "sparse (s)", "speedup", "max|diff|")

	for _, fam := range families {
		denseAlive := true
		var lastDenseSec float64
		var lastDenseStates int
		for _, n := range fam.sizes {
			g, err := fam.build(n)
			if err != nil {
				return fmt.Errorf("bench -scale: %s N=%d: %w", fam.name, n, err)
			}
			pt := ScalePoint{Family: fam.name, N: n, States: g.NumStates(), NNZ: g.SparsePlan().NNZ()}

			sparsePi, sparseSec, sparseAlloc, err := timedSolve(fam.sparse, g)
			if err != nil {
				return fmt.Errorf("bench -scale: %s N=%d sparse: %w", fam.name, n, err)
			}
			pt.SparseSeconds, pt.SparseAllocBytes = sparseSec, sparseAlloc

			// Predictive skip: the dense solvers are O(states^3), so project
			// this size's cost from the previous dense point and drop dense
			// for the rest of the family once the projection blows the
			// budget — never start a solve expected to run far past it.
			if denseAlive && lastDenseStates > 0 {
				ratio := float64(pt.States) / float64(lastDenseStates)
				if lastDenseSec*ratio*ratio*ratio > budget {
					denseAlive = false
				}
			}
			if denseAlive {
				densePi, denseSec, denseAlloc, err := timedSolve(fam.dense, g)
				if err != nil {
					return fmt.Errorf("bench -scale: %s N=%d dense: %w", fam.name, n, err)
				}
				pt.DenseSeconds, pt.DenseAllocBytes = denseSec, denseAlloc
				pt.Speedup = denseSec / sparseSec
				pt.MaxAbsDiff = maxAbsDiff(densePi, sparsePi)
				lastDenseSec, lastDenseStates = denseSec, pt.States
				if denseSec > budget {
					denseAlive = false
				}
			} else {
				pt.DenseSkipped = true
			}

			report.Results = append(report.Results, pt)
			denseCol, speedupCol := "skipped", "-"
			if !pt.DenseSkipped {
				denseCol = fmt.Sprintf("%.6f", pt.DenseSeconds)
				speedupCol = fmt.Sprintf("%.2fx", pt.Speedup)
			}
			fmt.Fprintf(out, "  %-18s %-5d %-7d %-8d %-12s %-12.6f %-9s %.3g\n",
				fam.name, pt.N, pt.States, pt.NNZ, denseCol, pt.SparseSeconds, speedupCol, pt.MaxAbsDiff)
		}
	}

	// The crossover is the smallest state count from which the sparse path
	// wins uniformly: every measured point at or above it, in every family,
	// has speedup >= 1. A single fast family winning early does not pull it
	// down.
	crossover := 0
	for _, cand := range report.Results {
		if cand.DenseSkipped {
			continue
		}
		allWin := true
		for _, pt := range report.Results {
			if !pt.DenseSkipped && pt.States >= cand.States && pt.Speedup < 1 {
				allWin = false
				break
			}
		}
		if allWin && (crossover == 0 || cand.States < crossover) {
			crossover = cand.States
		}
	}
	report.CrossoverStates = crossover
	if crossover > 0 {
		fmt.Fprintf(out, "sparse first wins at %d states (threshold compiled as %d)\n",
			crossover, linalg.SparseThreshold)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if output == "" {
		_, err := out.Write(data)
		return err
	}
	if err := os.WriteFile(output, data, 0o644); err != nil {
		return fmt.Errorf("bench -scale: writing report: %w", err)
	}
	fmt.Fprintf(out, "wrote %s\n", output)
	return nil
}

// timedSolve runs one solve, returning its result, wall time, and bytes
// allocated (runtime.MemStats.TotalAlloc delta — the allocation pressure
// the path puts on the collector).
func timedSolve(solve func(*petri.Graph) ([]float64, error), g *petri.Graph) ([]float64, float64, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	pi, err := solve(g)
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	return pi, elapsed, after.TotalAlloc - before.TotalAlloc, nil
}

func maxAbsDiff(a, b []float64) float64 {
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
