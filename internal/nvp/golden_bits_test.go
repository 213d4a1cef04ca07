package nvp

import (
	"math"
	"testing"

	"nvrel/internal/faultinject"
	"nvrel/internal/petri"
)

// Dense MRGP rung pins. denseDefaultBits is E[R] of the six-version
// default (70 states) and denseN10Bits of six-version N=10; the cost
// model routes both sparse, and the sparse route's pins below must stay
// within 1e-12 of them.
const (
	denseDefaultBits uint64 = 0x3fee19ca934d3a3b
	denseN10Bits     uint64 = 0x3fead149e9b6cdbf
)

// goldenCase is one pinned solver route. sparse is the route the solve
// must report in diag.Path; rung, when set, pins the solver instead of
// routing. dense, when set, is the dense rung's E[R] the result must
// agree with within 1e-12.
type goldenCase struct {
	name   string
	rejuv  bool
	p      Params
	warm   *Params // solved first through the same registry
	rung   string
	sparse bool
	bits   uint64
	dense  uint64
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
// c.warm first when set), or on c.rung, and returns E[R] with the
// solve's diag.
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
	var (
		pi   []float64
		diag petri.SolveDiag
		err  error
	)
	if c.rung != "" {
		pi, diag, err = m.SolveWith(nil, nil, Opts{Rung: c.rung})
	} else {
		pi, diag, err = reg.SolveDiagCtxWS(nil, m, nil)
	}
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if got := diag.Path == petri.PathSparse; got != c.sparse {
		t.Fatalf("%d states: path %v, want sparse = %v", m.Graph.NumStates(), diag.Path, c.sparse)
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
// route the models take: dense GTH, sparse Gauss-Seidel, the dense MRGP
// rung, sparse clock-synchronous MRGP as routed at 70 and 176 states, the
// general MRGP solver, and a warm-started sparse MRGP solve seeded by a
// neighbouring point. The headline goldens only check E[R] to 5e-7; these
// catch any change in floating-point evaluation order along a route,
// however small.
func TestGoldenBitsPerRoute(t *testing.T) {
	four := func(n int) Params {
		p := DefaultFourVersion()
		p.N = n
		return p
	}
	cases := []goldenCase{
		{"4v-N4-dense-gth", false, four(4), nil, "", false, 0x3fea50ae2ff60c60, 0},
		{"4v-N24-sparse-gs", false, four(24), nil, "", true, 0x3ef485d90ad15826, 0},
		{"6v-default-dense-mrgp", true, sixVersion(0, ClockFreeRunning), nil, "mrgp-dense", false, denseDefaultBits, 0},
		{"6v-default-routed-mrgp", true, sixVersion(0, ClockFreeRunning), nil, "", true, 0x3fee19ca934d3a3b, denseDefaultBits},
		{"6v-N10-sparse-mrgp", true, sixVersion(10, ClockFreeRunning), nil, "", true, 0x3fead149e9b6cdc1, denseN10Bits},
		{"6v-general-mrgp", true, sixVersion(0, ClockWaitsForWave), nil, "", false, 0x3fee19353cecf949, 0},
		{"6v-N10-warm-mrgp", true, sixVersion(10, ClockFreeRunning), sparseMRGPNeighbour(), "", true, 0x3fead149e9b6cdc2, denseN10Bits},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, m, _ := solveGolden(t, c)
			if got := math.Float64bits(e); got != c.bits {
				t.Errorf("E[R] = %.17g bits %#x, want %#x", e, got, c.bits)
			}
			if c.dense != 0 {
				if d := math.Abs(e - math.Float64frombits(c.dense)); d > 1e-12 {
					t.Errorf("E[R] = %.17g is %.3g from the dense rung", e, d)
				}
			}
			if c.warm == nil && c.rung == "" {
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
// bit for bit the E[R] of the power-only iteration, within 1e-12 of the
// dense rung.
func TestKrylovBreakdownKeepsPowerOnlyBits(t *testing.T) {
	cases := []goldenCase{
		{"6v-N10-sparse-mrgp", true, sixVersion(10, ClockFreeRunning), nil, "", true, 0x3fead149e9b6cda8, denseN10Bits},
		{"6v-N10-warm-mrgp", true, sixVersion(10, ClockFreeRunning), sparseMRGPNeighbour(), "", true, 0x3fead149e9b6cdd8, denseN10Bits},
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
			if d := math.Abs(e - math.Float64frombits(c.dense)); d > 1e-12 {
				t.Errorf("E[R] = %.17g is %.3g from the dense rung", e, d)
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
// states) and N=10, whose pins are the references the sparse route's
// pins in TestGoldenBitsPerRoute are measured against.
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
