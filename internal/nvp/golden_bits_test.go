package nvp

import (
	"math"
	"testing"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// Dense MRGP rung pins. denseDefaultBits is E[R] of the six-version
// default (70 states, which the routing sends dense); denseN10Bits is E[R]
// of six-version N=10, and the sparse route's pins below must stay within
// 1e-12 of it.
const (
	denseDefaultBits uint64 = 0x3fee19ca934d3a3b
	denseN10Bits     uint64 = 0x3fead149e9b6cdbf
)

// goldenCase is one pinned solver route.
type goldenCase struct {
	name   string
	rejuv  bool
	p      Params
	warm   *Params // solved first through the same registry
	sparse bool
	bits   uint64
}

func sixVersion(n int, clock ClockPolicy) Params {
	p := DefaultSixVersion()
	if n > 0 {
		p.N = n
	}
	p.Clock = clock
	return p
}

// sparseMRGPNeighbour is the warm case's seed point: N=10 with the mean
// time to compromise 1% off the default.
func sparseMRGPNeighbour() *Params {
	p := sixVersion(10, ClockFreeRunning)
	p.MeanTimeToCompromise *= 1.01
	return &p
}

// solveGolden solves c's model through a warm-start registry (seeded by
// c.warm first when set) and returns E[R] with the solve's diag.
func solveGolden(t *testing.T, c goldenCase) (float64, *Model, petri.SolveDiag) {
	t.Helper()
	build := func(cache *ModelCache, p Params) *Model {
		t.Helper()
		fn := cache.BuildNoRejuvenation
		if c.rejuv {
			fn = cache.BuildWithRejuvenation
		}
		m, err := fn(p)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return m
	}
	// The registry only seeds restamped siblings of one topology, which
	// the model cache produces; a nil cache builds afresh.
	var (
		cache *ModelCache
		reg   *WarmRegistry
	)
	if c.warm != nil {
		cache, reg = NewModelCache(), NewWarmRegistry()
		if _, _, err := reg.SolveDiagCtxWS(nil, build(cache, *c.warm), nil); err != nil {
			t.Fatalf("neighbour solve: %v", err)
		}
	}
	m := build(cache, c.p)
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
	return e, m, diag
}

// TestGoldenBitsPerRoute pins math.Float64bits of E[R] on every solver
// route the models take: dense GTH, sparse Gauss-Seidel, dense and sparse
// clock-synchronous MRGP, the general MRGP solver, and a warm-started
// sparse MRGP solve seeded by a neighbouring point. The headline goldens
// only check E[R] to 5e-7; these catch any change in floating-point
// evaluation order along a route, however small.
func TestGoldenBitsPerRoute(t *testing.T) {
	four := func(n int) Params {
		p := DefaultFourVersion()
		p.N = n
		return p
	}
	cases := []goldenCase{
		{"4v-N4-dense-gth", false, four(4), nil, false, 0x3fea50ae2ff60c60},
		{"4v-N24-sparse-gs", false, four(24), nil, true, 0x3ef485d90ad15826},
		{"6v-default-dense-mrgp", true, sixVersion(0, ClockFreeRunning), nil, false, denseDefaultBits},
		{"6v-N10-sparse-mrgp", true, sixVersion(10, ClockFreeRunning), nil, true, 0x3fead149e9b6cdba},
		{"6v-general-mrgp", true, sixVersion(0, ClockWaitsForWave), nil, false, 0x3fee19353cecf949},
		{"6v-N10-warm-mrgp", true, sixVersion(10, ClockFreeRunning), sparseMRGPNeighbour(), true, 0x3fead149e9b6cdc1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, m, _ := solveGolden(t, c)
			if got := math.Float64bits(e); got != c.bits {
				t.Errorf("E[R] = %.17g bits %#x, want %#x", e, got, c.bits)
			}
			if c.rejuv && c.sparse {
				if d := math.Abs(e - math.Float64frombits(denseN10Bits)); d > 1e-12 {
					t.Errorf("E[R] = %.17g is %.3g from the dense rung", e, d)
				}
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

// TestKrylovBreakdownKeepsPowerOnlyBits: when every Krylov start of the
// sparse MRGP route breaks down, its result is discarded and the power
// finisher runs from the original start, so both sparse cases reproduce
// bit for bit the E[R] the power-only iteration pinned before the Krylov
// stage existed.
func TestKrylovBreakdownKeepsPowerOnlyBits(t *testing.T) {
	cases := []goldenCase{
		{"6v-N10-sparse-mrgp", true, sixVersion(10, ClockFreeRunning), nil, true, 0x3fead149e9b6cdbf},
		{"6v-N10-warm-mrgp", true, sixVersion(10, ClockFreeRunning), sparseMRGPNeighbour(), true, 0x3fead149e9b6cdc8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			faultinject.Reset()
			if err := faultinject.Arm(faultinject.Fault{Site: "mrgp.krylov.breakdown", Count: 1 << 30}, 1); err != nil {
				t.Fatal(err)
			}
			faultinject.Enable()
			t.Cleanup(func() {
				faultinject.Disable()
				faultinject.Reset()
			})
			e, _, diag := solveGolden(t, c)
			if got := math.Float64bits(e); got != c.bits {
				t.Errorf("E[R] = %.17g bits %#x, want the power-only %#x", e, got, c.bits)
			}
			if fired := faultinject.SiteFor("mrgp.krylov.breakdown").Fired(); fired == 0 {
				t.Error("breakdown never fired")
			}
			if diag.Path != petri.PathSparse {
				t.Errorf("path = %q, want the sparse route to absorb the breakdown", diag.Path)
			}
		})
	}
}

// TestDenseMRGPRungPins re-derives the dense MRGP rung's pins and checks
// each against the sparse rung at the same point: the default point (70
// states, routed dense, pinned in TestGoldenBitsPerRoute) and N=10, whose
// denseN10Bits is the reference the sparse route's pins are measured
// against.
func TestDenseMRGPRungPins(t *testing.T) {
	cases := []struct {
		name string
		n    int
		bits uint64
	}{
		{"6v-default", 0, denseDefaultBits},
		{"6v-N10", 10, denseN10Bits},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := BuildWithRejuvenation(sixVersion(c.n, ClockFreeRunning))
			if err != nil {
				t.Fatal(err)
			}
			rung := func(name string) float64 {
				t.Helper()
				pi, _, err := m.SolveWith(nil, nil, Opts{Rung: name})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				e, err := m.ExpectedPaperReliabilityFrom(pi)
				if err != nil {
					t.Fatalf("%s reward: %v", name, err)
				}
				return e
			}
			dense, sparse := rung("mrgp-dense"), rung("mrgp-sparse")
			if got := math.Float64bits(dense); got != c.bits {
				t.Errorf("dense E[R] = %.17g bits %#x, want %#x", dense, got, c.bits)
			}
			if d := math.Abs(dense - sparse); d > 1e-12 {
				t.Errorf("dense E[R] = %.17g is %.3g from the sparse rung's %.17g", dense, d, sparse)
			}
		})
	}
}
