package nvp

import (
	"math"
	"testing"

	"nvrel/internal/linalg"
)

// TestGoldenBitsPerRoute pins math.Float64bits of E[R] on every solver
// route the models take: dense GTH, sparse Gauss-Seidel, dense and sparse
// clock-synchronous MRGP, the general MRGP solver, and a warm-started
// sparse MRGP solve seeded by a neighbouring point. The headline goldens
// only check E[R] to 5e-7; these catch any change in floating-point
// evaluation order along a route, however small.
func TestGoldenBitsPerRoute(t *testing.T) {
	six := func(n int, clock ClockPolicy) Params {
		p := DefaultSixVersion()
		if n > 0 {
			p.N = n
		}
		p.Clock = clock
		return p
	}
	four := func(n int) Params {
		p := DefaultFourVersion()
		p.N = n
		return p
	}
	neighbour := six(10, ClockFreeRunning)
	neighbour.MeanTimeToCompromise *= 1.01

	cases := []struct {
		name   string
		rejuv  bool
		p      Params
		warm   *Params // solved first through the same registry
		sparse bool
		bits   uint64
	}{
		{"4v-N4-dense-gth", false, four(4), nil, false, 0x3fea50ae2ff60c60},
		{"4v-N24-sparse-gs", false, four(24), nil, true, 0x3ef485d90ad15826},
		{"6v-default-dense-mrgp", true, six(0, ClockFreeRunning), nil, false, 0x3fee19ca934d3a3c},
		{"6v-N10-sparse-mrgp", true, six(10, ClockFreeRunning), nil, true, 0x3fead149e9b6cdbf},
		{"6v-general-mrgp", true, six(0, ClockWaitsForWave), nil, false, 0x3fee19353cecf949},
		{"6v-N10-warm-mrgp", true, six(10, ClockFreeRunning), &neighbour, true, 0x3fead149e9b6cdc8},
	}
	build := func(cache *ModelCache, rejuv bool, p Params) *Model {
		t.Helper()
		fn := cache.BuildNoRejuvenation
		if rejuv {
			fn = cache.BuildWithRejuvenation
		}
		m, err := fn(p)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return m
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The registry only seeds restamped siblings of one topology,
			// which the model cache produces; a nil cache builds afresh.
			var (
				cache *ModelCache
				reg   *WarmRegistry
			)
			if c.warm != nil {
				cache, reg = NewModelCache(), NewWarmRegistry()
				if _, _, err := reg.SolveDiagCtxWS(nil, build(cache, c.rejuv, *c.warm), nil); err != nil {
					t.Fatalf("neighbour solve: %v", err)
				}
			}
			m := build(cache, c.rejuv, c.p)
			if got := m.Graph.NumStates() >= linalg.SparseThreshold; got != c.sparse {
				t.Fatalf("%d states: sparse routing = %v, want %v", m.Graph.NumStates(), got, c.sparse)
			}
			pi, diag, err := reg.SolveDiagCtxWS(nil, m, nil)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if diag.Seeded != (c.warm != nil) {
				t.Fatalf("Seeded = %v, want %v", diag.Seeded, c.warm != nil)
			}
			e, err := m.ExpectedPaperReliabilityFrom(pi)
			if err != nil {
				t.Fatalf("reward: %v", err)
			}
			if got := math.Float64bits(e); got != c.bits {
				t.Errorf("E[R] = %.17g bits %#x, want %#x", e, got, c.bits)
			}
			if c.warm == nil {
				one, err := m.ExpectedPaperReliability()
				if err != nil {
					t.Fatalf("one-call: %v", err)
				}
				if math.Float64bits(one) != math.Float64bits(e) {
					t.Errorf("one-call E[R] bits %#x differ from solve+weigh %#x", math.Float64bits(one), math.Float64bits(e))
				}
			}
		})
	}
}
