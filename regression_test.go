package nvrel_test

import (
	"runtime"
	"testing"
	"time"

	"nvrel"
	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
)

// TestSweepRegressionGate bounds each paper experiment's heap allocation
// and wall time per run at 1 and 2 workers, after one warm-up run fills
// the graph cache and workspace pools. Allocation is deterministic up to
// pool scheduling, so its gate is tight: at most 1.5x the ceiling, the
// per-run minimum measured on linux/amd64 with 2 CPUs and Go 1.24. Wall
// time crosses machine shapes, so its gate is a sanity bound that catches
// algorithmic blowups, not percent-level drift: at most 25x the baseline
// recorded on the same machine, with baselines under 0.5 ms, where
// scheduler and collector jitter dominate, raised to 0.5 ms. Both bounds
// hold under -race too. Per-figure timings come from the benchmarks in
// bench_test.go and end-to-end ones from perfbench.
func TestSweepRegressionGate(t *testing.T) {
	// gs-sparse is the four-version model widened to N=24 (325 states):
	// the paper-scale experiments stay below linalg.SparseThreshold, so
	// this repeat solve through a model cache and warm registry is the one
	// probe of the Gauss-Seidel route.
	gsCache, gsReg, gsWS := nvp.NewModelCache(), nvp.NewWarmRegistry(), linalg.NewWorkspace()
	gsSparse := func() error {
		p := nvp.DefaultFourVersion()
		p.N = 24
		m, err := gsCache.BuildNoRejuvenation(p)
		if err != nil {
			return err
		}
		_, _, err = gsReg.SolveDiagCtxWS(nil, m, gsWS)
		return err
	}
	sweep := func(f func([]float64) (nvrel.Series, error)) func() error {
		return func() error { _, err := f(nil); return err }
	}
	probes := []struct {
		name string
		run  func() error
		// allocCeiling and baseSeconds per worker count (1, 2).
		allocCeiling [2]uint64
		baseSeconds  [2]float64
	}{
		{"headline", func() error { _, err := nvrel.Headline(); return err }, [2]uint64{27792, 27792}, [2]float64{0.00266, 0.00251}},
		{"fig3", sweep(nvrel.Fig3), [2]uint64{1582456, 1582712}, [2]float64{0.0786, 0.0460}},
		{"fig4a", sweep(nvrel.Fig4a), [2]uint64{518616, 508912}, [2]float64{0.0397, 0.0262}},
		{"fig4b", sweep(nvrel.Fig4b), [2]uint64{253552, 253576}, [2]float64{0.00269, 0.00289}},
		{"fig4c", sweep(nvrel.Fig4c), [2]uint64{278624, 278744}, [2]float64{0.00447, 0.00361}},
		{"fig4d", sweep(nvrel.Fig4d), [2]uint64{278624, 278744}, [2]float64{0.00530, 0.00520}},
		{"gs-sparse", gsSparse, [2]uint64{89208, 89208}, [2]float64{0.000055, 0.000056}},
	}
	prev := nvrel.SetWorkers(0)
	defer nvrel.SetWorkers(prev)
	var before, after runtime.MemStats
	for _, p := range probes {
		if err := p.run(); err != nil {
			t.Fatalf("%s warm-up: %v", p.name, err)
		}
		for i, workers := range []int{1, 2} {
			nvrel.SetWorkers(workers)
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := p.run(); err != nil {
				t.Fatalf("%s at %d workers: %v", p.name, workers, err)
			}
			elapsed := time.Since(start).Seconds()
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%-9s workers=%d  %9.6f s  %8d B", p.name, workers, elapsed, alloc)
			if limit := 1.5 * float64(p.allocCeiling[i]); float64(alloc) > limit {
				t.Errorf("%s at %d workers allocated %d B, over 1.5x its %d B ceiling", p.name, workers, alloc, p.allocCeiling[i])
			}
			if limit := 25 * max(p.baseSeconds[i], 0.0005); elapsed > limit {
				t.Errorf("%s at %d workers took %.6f s, over 25x its %.6f s baseline", p.name, workers, elapsed, p.baseSeconds[i])
			}
		}
	}
}
