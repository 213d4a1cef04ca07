package nvp

import (
	"fmt"
	"math"
	"testing"

	"nvrel/internal/mrgp"
	"nvrel/internal/petri"
)

// TestSparseSolversMatchDenseOnPaperModels: the acceptance bar of the
// sparse engine — on the paper's own configurations (and N-scaled
// variants of them) the sparse and dense steady-state paths agree to
// 1e-12 elementwise.
func TestSparseSolversMatchDenseOnPaperModels(t *testing.T) {
	t.Run("no-rejuvenation", func(t *testing.T) {
		for _, n := range []int{4, 6, 12} {
			p := DefaultFourVersion()
			p.N = n
			m, err := BuildNoRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
			want, _, err := m.Graph.SteadyState(nil, nil, petri.Opts{Rung: "gth"})
			if err != nil {
				t.Fatalf("N=%d dense: %v", n, err)
			}
			got, _, err := m.Graph.SteadyState(nil, nil, petri.Opts{Rung: "gs"})
			if err != nil {
				t.Fatalf("N=%d sparse: %v", n, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Errorf("N=%d: pi[%d] = %.17g, want %.17g", n, i, got[i], want[i])
				}
			}
		}
	})
	t.Run("with-rejuvenation", func(t *testing.T) {
		for _, n := range []int{6, 10} {
			p := DefaultSixVersion()
			p.N = n
			m, err := BuildWithRejuvenation(p)
			if err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
			want, _, err := mrgp.Solve(nil, nil, m.Graph, mrgp.Opts{Rung: "mrgp-dense"})
			if err != nil {
				t.Fatalf("N=%d dense: %v", n, err)
			}
			got, _, err := mrgp.Solve(nil, nil, m.Graph, mrgp.Opts{Rung: "mrgp-sparse"})
			if err != nil {
				t.Fatalf("N=%d sparse: %v", n, err)
			}
			for i := range want.Pi {
				if math.Abs(got.Pi[i]-want.Pi[i]) > 1e-12 {
					t.Errorf("N=%d: Pi[%d] = %.17g, want %.17g", n, i, got.Pi[i], want.Pi[i])
				}
			}
		}
	})
}

// TestKrylovSparseMatchesDense: the sparse MRGP route (Krylov start plus
// power finisher) agrees with the dense rung to 1e-12 across the serving
// box of six-version points (N 10 and 12, MTTC 600-3000 s, interval
// 300-450 s), both from the uniform start and seeded with the embedded
// vector of a nearby point on the same topology. The dense rung is the
// expensive part (~1 s at N=12, far more under -race), so the box is
// sampled at two corners and its centre.
func TestKrylovSparseMatchesDense(t *testing.T) {
	points := []struct {
		n              int
		mttc, interval float64
	}{
		{10, 600, 300}, {10, 3000, 450}, {12, 1500, 375},
	}
	cache := NewModelCache()
	build := func(n int, mttc, interval float64) *Model {
		t.Helper()
		p := DefaultSixVersion()
		p.N, p.MeanTimeToCompromise, p.RejuvenationInterval = n, mttc, interval
		m, err := cache.BuildWithRejuvenation(p)
		if err != nil {
			t.Fatalf("N=%d mttc=%g interval=%g: %v", n, mttc, interval, err)
		}
		return m
	}
	for _, pt := range points {
		neighbour, _, err := mrgp.Solve(nil, nil, build(pt.n, pt.mttc*1.05, pt.interval*0.95).Graph, mrgp.Opts{Rung: "mrgp-sparse"})
		if err != nil {
			t.Fatalf("%+v neighbour: %v", pt, err)
		}
		m := build(pt.n, pt.mttc, pt.interval)
		want, _, err := mrgp.Solve(nil, nil, m.Graph, mrgp.Opts{Rung: "mrgp-dense"})
		if err != nil {
			t.Fatalf("%+v dense: %v", pt, err)
		}
		for _, seed := range [][]float64{nil, neighbour.Embedded} {
			got, diag, err := mrgp.Solve(nil, nil, m.Graph, mrgp.Opts{Rung: "mrgp-sparse", Seed: seed})
			if err != nil {
				t.Fatalf("%+v seeded=%v: %v", pt, seed != nil, err)
			}
			if diag.Seeded != (seed != nil) {
				t.Fatalf("%+v: Seeded = %v with seed %v", pt, diag.Seeded, seed != nil)
			}
			var worst float64
			for i := range want.Pi {
				worst = math.Max(worst, math.Abs(got.Pi[i]-want.Pi[i]))
				worst = math.Max(worst, math.Abs(got.Embedded[i]-want.Embedded[i]))
			}
			t.Logf("%+v seeded=%v: %d applications, max|sparse-dense| %.3g", pt, diag.Seeded, diag.PowerIters, worst)
			if worst > 1e-12 {
				t.Errorf("%+v seeded=%v: max|sparse-dense| = %.3g", pt, diag.Seeded, worst)
			}
		}
	}
}

// BenchmarkSolveScale times each steady-state rung over model size N:
// dense GTH against sparse Gauss-Seidel on the no-rejuvenation CTMC, and
// the dense embedded chain against the sparse MRGP route on the
// rejuvenation DSPN. The dense rungs stop at the largest N that finished
// inside a 5 s budget on linux/amd64 (gth: N=90, 4186 states, 1.5 s;
// mrgp-dense: N=24, 925 states, 3 s); past it they cost minutes and
// gigabytes. The crossover points behind linalg.SparseThreshold and the
// MRGP route's cost rule are re-measured here; the whole list takes ~5 s
// at -benchtime=1x on linux/amd64 with 2 CPUs:
//
//	go test -run '^$' -bench SolveScale -benchtime 1x ./internal/nvp
func BenchmarkSolveScale(b *testing.B) {
	for _, fam := range []struct {
		build     func(Params) (*Model, error)
		params    func() Params
		sizes     []int
		rungs     [2]string // dense, sparse
		denseMaxN int
	}{
		{BuildNoRejuvenation, DefaultFourVersion, []int{6, 10, 16, 24, 40, 60, 90, 130, 180}, [2]string{"gth", "gs"}, 90},
		{BuildWithRejuvenation, DefaultSixVersion, []int{6, 8, 10, 12, 14, 16, 20, 24, 30}, [2]string{"mrgp-dense", "mrgp-sparse"}, 24},
	} {
		for _, n := range fam.sizes {
			for i, rung := range fam.rungs {
				if i == 0 && n > fam.denseMaxN {
					continue
				}
				b.Run(fmt.Sprintf("%s/N=%d", rung, n), func(b *testing.B) {
					p := fam.params()
					p.N = n
					m, err := fam.build(p)
					if err != nil {
						b.Fatal(err)
					}
					m.Graph.SparsePlan() // memoized: build it outside the timer
					b.ReportAllocs()
					b.ResetTimer()
					for range b.N {
						if _, _, err := m.SolveWith(nil, nil, Opts{Rung: rung}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(m.Graph.NumStates()), "states")
				})
			}
		}
	}
}
