package petri

import (
	"math"
	"math/rand"
	"testing"

	"nvrel/internal/linalg"
)

// randomReachabilityGraph fabricates a Graph shaped like an explored
// reachability graph: n tangible states, each with a ring successor (for
// irreducibility) plus a few random rate edges, rates spanning the
// repair-vs-failure magnitudes of the paper's models.
func randomReachabilityGraph(rng *rand.Rand, n int) *Graph {
	g := &Graph{
		Markings: make([]Marking, n),
		Det:      make([]*DetSchedule, n),
	}
	for i := 0; i < n; i++ {
		add := func(j int) {
			g.Exp = append(g.Exp, RateEdge{
				From: i, To: j,
				Rate: math.Pow(10, -3+4*rng.Float64()),
			})
		}
		add((i + 1) % n)
		for extra := rng.Intn(4); extra > 0; extra-- {
			if j := rng.Intn(n); j != i {
				add(j)
			}
		}
	}
	return g
}

// TestGeneratorCSRMatchesDense: the plan-stamped CSR (and its transpose)
// must carry exactly the entries of the dense generator.
func TestGeneratorCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := linalg.NewWorkspace()
	for rep := 0; rep < 20; rep++ {
		n := 2 + rng.Intn(40)
		g := randomReachabilityGraph(rng, n)
		dense, err := g.Generator()
		if err != nil {
			t.Fatalf("Generator: %v", err)
		}
		c, err := g.GeneratorCSR(ws)
		if err != nil {
			t.Fatalf("GeneratorCSR: %v", err)
		}
		ct, err := g.GeneratorCSRTranspose(ws)
		if err != nil {
			t.Fatalf("GeneratorCSRTranspose: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := c.At(i, j), dense.At(i, j); got != want {
					t.Fatalf("rep %d: Q[%d][%d] = %v, want %v", rep, i, j, got, want)
				}
				if got, want := ct.At(j, i), dense.At(i, j); got != want {
					t.Fatalf("rep %d: Qt[%d][%d] = %v, want %v", rep, j, i, got, want)
				}
			}
		}
		ws.PutCSR(c)
		ws.PutCSR(ct)
	}
}

// TestSteadyStateSparseMatchesDense: property-style agreement of the GS
// steady state with dense GTH on random reachability-shaped chains.
func TestSteadyStateSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := linalg.NewWorkspace()
	for rep := 0; rep < 20; rep++ {
		n := 1 + rng.Intn(50)
		g := randomReachabilityGraph(rng, n)
		want, _, err := g.SteadyState(nil, ws, Opts{Rung: "gth"})
		if err != nil {
			t.Fatalf("rep %d: dense: %v", rep, err)
		}
		got, _, err := g.SteadyState(nil, ws, Opts{Rung: "gs"})
		if err != nil {
			t.Fatalf("rep %d: sparse: %v", rep, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("rep %d (n=%d): pi[%d] = %.17g, want %.17g", rep, n, i, got[i], want[i])
			}
		}
	}
}

// TestUniformizationSparseMatchesDense: transient propagation through the
// stamped CSR agrees with propagation through the dense generator (taken
// to CSR form directly) on random graphs.
func TestUniformizationSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := linalg.NewWorkspace()
	for rep := 0; rep < 10; rep++ {
		n := 1 + rng.Intn(30)
		g := randomReachabilityGraph(rng, n)
		q, err := g.Generator()
		if err != nil {
			t.Fatalf("Generator: %v", err)
		}
		ct, err := g.GeneratorCSRTranspose(ws)
		if err != nil {
			t.Fatalf("GeneratorCSRTranspose: %v", err)
		}
		pi := make([]float64, n)
		pi[rng.Intn(n)] = 1
		for _, horizon := range []float64{0.4, 9} {
			want, got := make([]float64, n), make([]float64, n)
			if err := ws.UniformizedSELL(ws.SeriesLayout(linalg.CSRFromDenseT(q)), pi, horizon, linalg.UniformizationRate(q.MaxAbsDiag()), 1e-12, want, nil); err != nil {
				t.Fatalf("dense: %v", err)
			}
			if err := ws.UniformizedSELL(ws.SeriesLayout(ct), pi, horizon, linalg.UniformizationRate(ct.MaxAbsDiag()), 1e-12, got, nil); err != nil {
				t.Fatalf("sparse: %v", err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("rep %d t=%g: pi[%d] = %.17g, want %.17g", rep, horizon, i, got[i], want[i])
				}
			}
		}
		ws.PutCSR(ct)
	}
}

// buildRing returns a three-place cyclic net whose CTMC states are the
// token distributions; rates are parameters so the net can be restamped.
func buildRing(t testing.TB, tokens int, r1, r2, r3 float64) *Net {
	t.Helper()
	b := NewBuilder("ring")
	pa := b.AddPlace("a", tokens)
	pb := b.AddPlace("b", 0)
	pc := b.AddPlace("c", 0)
	step := func(name string, rate float64, from, to PlaceRef) {
		b.AddTransition(Spec{
			Name: name, Kind: Exponential, Rate: rate,
			Inputs:  []Arc{{Place: from}},
			Outputs: []Arc{{Place: to}},
		})
	}
	step("t1", r1, pa, pb)
	step("t2", r2, pb, pc)
	step("t3", r3, pc, pa)
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// TestRestampSharesSparsePlan: restamped siblings must reuse the explored
// graph's assembly plan (same pointer) and stamp values identical to a
// fresh exploration of the re-parameterized net.
func TestRestampSharesSparsePlan(t *testing.T) {
	g, err := Explore(buildRing(t, 5, 1, 2, 3), ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	plan := g.SparsePlan()
	restamped, err := g.Restamp(buildRing(t, 5, 4, 5, 6))
	if err != nil {
		t.Fatalf("Restamp: %v", err)
	}
	if restamped.SparsePlan() != plan {
		t.Fatal("restamped graph did not share the generator plan")
	}
	fresh, err := Explore(buildRing(t, 5, 4, 5, 6), ExploreOptions{})
	if err != nil {
		t.Fatalf("fresh Explore: %v", err)
	}
	want, err := fresh.GeneratorCSR(nil)
	if err != nil {
		t.Fatalf("fresh GeneratorCSR: %v", err)
	}
	got, err := restamped.GeneratorCSR(nil)
	if err != nil {
		t.Fatalf("restamped GeneratorCSR: %v", err)
	}
	n := g.NumStates()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("Q[%d][%d] = %v, fresh exploration has %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestPlanRejectsForeignGraph: stamping a graph with a different shape
// through a plan must fail, not corrupt memory.
func TestPlanRejectsForeignGraph(t *testing.T) {
	g, err := Explore(buildRing(t, 4, 1, 2, 3), ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	other, err := Explore(buildRing(t, 7, 1, 2, 3), ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore other: %v", err)
	}
	if _, err := g.SparsePlan().Stamp(other, nil); err == nil {
		t.Fatal("Stamp accepted a graph from a different topology")
	}
}

// TestRestampedCSRSolveNoAlloc: the production sweep loop — restamp,
// stamp the transpose CSR through the shared plan, Gauss-Seidel solve into
// a caller-owned vector — must be allocation-free once pools are warm.
func TestRestampedCSRSolveNoAlloc(t *testing.T) {
	g, err := Explore(buildRing(t, 12, 1, 2, 3), ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	restamped, err := g.Restamp(buildRing(t, 12, 2.5, 1.5, 0.5))
	if err != nil {
		t.Fatalf("Restamp: %v", err)
	}
	ws := linalg.NewWorkspace()
	dst := make([]float64, g.NumStates())
	solve := func() {
		qt, err := restamped.GeneratorCSRTranspose(ws)
		if err != nil {
			t.Fatalf("GeneratorCSRTranspose: %v", err)
		}
		if _, _, _, err := ws.SteadyStateGS(nil, qt, dst, nil); err != nil {
			t.Fatalf("SteadyStateGS: %v", err)
		}
		ws.PutCSR(qt)
	}
	solve() // warm-up: builds the plan and fills the pools
	if allocs := testing.AllocsPerRun(50, solve); allocs != 0 {
		t.Errorf("allocations per re-stamped solve = %v, want 0", allocs)
	}
}

// BenchmarkRestampedCSRSolveNoAlloc guards the same property in benchmark
// form; -benchmem must report 0 allocs/op.
func BenchmarkRestampedCSRSolveNoAlloc(b *testing.B) {
	g, err := Explore(buildRing(b, 12, 1, 2, 3), ExploreOptions{})
	if err != nil {
		b.Fatalf("Explore: %v", err)
	}
	ws := linalg.NewWorkspace()
	dst := make([]float64, g.NumStates())
	qt, err := g.GeneratorCSRTranspose(ws)
	if err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	if _, _, _, err := ws.SteadyStateGS(nil, qt, dst, nil); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	ws.PutCSR(qt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qt, err := g.GeneratorCSRTranspose(ws)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := ws.SteadyStateGS(nil, qt, dst, nil); err != nil {
			b.Fatal(err)
		}
		ws.PutCSR(qt)
	}
}
