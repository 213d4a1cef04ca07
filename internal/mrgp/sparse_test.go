package mrgp

import (
	"math"
	"math/rand"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// buildClockedPopulation builds a clock-synchronous DSPN with a population
// of size modules cycling fresh -> degraded -> down -> fresh at exponential
// rates, plus a deterministic clock (period tau) whose firing restores all
// degraded modules instantly. Every tangible marking enables the clock, so
// the model is in Solve's regeneration class, and the state space grows
// quadratically with the population — enough to exercise the sparse path.
func buildClockedPopulation(t testing.TB, modules int, tau float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("clocked-population")
	fresh := b.AddPlace("fresh", modules)
	deg := b.AddPlace("deg", 0)
	down := b.AddPlace("down", 0)
	clock := b.AddPlace("clock", 1)
	fired := b.AddPlace("fired", 0)
	b.AddTransition(petri.Spec{
		Name: "degrade", Kind: petri.Exponential, Rate: 1.0 / 40,
		Inputs:  []petri.Arc{{Place: fresh}},
		Outputs: []petri.Arc{{Place: deg}},
	})
	b.AddTransition(petri.Spec{
		Name: "fail", Kind: petri.Exponential, Rate: 1.0 / 25,
		Inputs:  []petri.Arc{{Place: deg}},
		Outputs: []petri.Arc{{Place: down}},
	})
	b.AddTransition(petri.Spec{
		Name: "repair", Kind: petri.Exponential, Rate: 1.0 / 2,
		Inputs:  []petri.Arc{{Place: down}},
		Outputs: []petri.Arc{{Place: fresh}},
	})
	b.AddTransition(petri.Spec{
		Name: "tick", Kind: petri.Deterministic, Delay: tau,
		Inputs:  []petri.Arc{{Place: clock}},
		Outputs: []petri.Arc{{Place: fired}},
	})
	b.AddTransition(petri.Spec{
		Name: "sweep", Kind: petri.Immediate, Rate: 1, Priority: 2,
		Guard:   func(m petri.Marking) bool { return m[deg] > 0 },
		Inputs:  []petri.Arc{{Place: fired}, {Place: deg, WeightFn: func(m petri.Marking) int { return m[deg] }}},
		Outputs: []petri.Arc{{Place: clock}, {Place: fresh, WeightFn: func(m petri.Marking) int { return m[deg] }}},
	})
	b.AddTransition(petri.Spec{
		Name: "rearm", Kind: petri.Immediate, Rate: 1, Priority: 1,
		Inputs:  []petri.Arc{{Place: fired}},
		Outputs: []petri.Arc{{Place: clock}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// TestSolveSparseMatchesDense: the matrix-free solver must agree with the
// dense reference to 1e-12 across model shapes and clock periods.
func TestSolveSparseMatchesDense(t *testing.T) {
	tests := []struct {
		name    string
		net     *petri.Net
		modules int
	}{
		{name: "toy frequent clock", net: buildRejuvenationToy(t, 0.1, 1)},
		{name: "toy rare clock", net: buildRejuvenationToy(t, 2, 10)},
		{name: "toy paper scales", net: buildRejuvenationToy(t, 1.0/1523, 600)},
		{name: "population small", net: buildClockedPopulation(t, 4, 15)},
		{name: "population larger", net: buildClockedPopulation(t, 9, 30)},
	}
	ws := linalg.NewWorkspace()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := explore(t, tt.net)
			want, _, err := Solve(nil, ws, g, Opts{Rung: "mrgp-dense"})
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			got, _, err := Solve(nil, ws, g, Opts{Rung: "mrgp-sparse"})
			if err != nil {
				t.Fatalf("sparse: %v", err)
			}
			if got.Delay != want.Delay {
				t.Errorf("Delay = %g, want %g", got.Delay, want.Delay)
			}
			for i := range want.Pi {
				if math.Abs(got.Pi[i]-want.Pi[i]) > 1e-12 {
					t.Errorf("Pi[%d] = %.17g, want %.17g (diff %g)", i, got.Pi[i], want.Pi[i], got.Pi[i]-want.Pi[i])
				}
				if math.Abs(got.Embedded[i]-want.Embedded[i]) > 1e-12 {
					t.Errorf("Embedded[%d] = %.17g, want %.17g", i, got.Embedded[i], want.Embedded[i])
				}
			}
		})
	}
}

// TestSolveRoutesByCost: Solve takes the route the cost model picks —
// sparse for a short clock period, dense for one whose series would run
// thousands of terms — reports it in diag.Path, and agrees with the
// dense rung within 1e-12 either way.
func TestSolveRoutesByCost(t *testing.T) {
	for _, c := range []struct {
		tau    float64
		sparse bool
	}{{15, true}, {5000, false}} {
		g := explore(t, buildClockedPopulation(t, 4, c.tau))
		if got, _ := routeSparse(nil, g); got != c.sparse {
			t.Fatalf("tau=%g: routeSparse = %v, want %v", c.tau, got, c.sparse)
		}
		dense, _, err := Solve(nil, nil, g, Opts{Rung: "mrgp-dense"})
		if err != nil {
			t.Fatalf("tau=%g dense rung: %v", c.tau, err)
		}
		routed, diag, err := Solve(nil, nil, g, Opts{})
		if err != nil {
			t.Fatalf("tau=%g routed: %v", c.tau, err)
		}
		if want := map[bool]petri.SolvePath{false: petri.PathDense, true: petri.PathSparse}[c.sparse]; diag.Path != want {
			t.Errorf("tau=%g: path %v, want %v", c.tau, diag.Path, want)
		}
		var diff float64
		for i := range dense.Pi {
			diff = math.Max(diff, math.Abs(dense.Pi[i]-routed.Pi[i]))
		}
		if diff > 1e-12 {
			t.Errorf("tau=%g: routed solve is %g from the dense rung", c.tau, diff)
		}
	}
}

// TestTransientPairMatchesVectorSeries: row i of the doubled matrix pair
// must match the CSR vector series started from the unit vector e_i, to
// 1e-12 entrywise, on random sparse generators and on a clocked population
// of 171 states, above linalg.SparseThreshold: the pair takes the same
// dense form at every size.
func TestTransientPairMatchesVectorSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := linalg.NewWorkspace()
	type tcase struct {
		q        *linalg.Dense
		horizons []float64
	}
	var cases []tcase
	for rep := 0; rep < 8; rep++ {
		n := 2 + rng.Intn(25)
		q := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			add := func(j int) {
				rate := math.Pow(10, -2+3*rng.Float64())
				q.Add(i, j, rate)
				q.Add(i, i, -rate)
			}
			add((i + 1) % n)
			if j := rng.Intn(n); j != i {
				add(j)
			}
		}
		cases = append(cases, tcase{q, []float64{0.5, 20, 400}})
	}
	pop := explore(t, buildClockedPopulation(t, 17, 30))
	if pop.NumStates() < linalg.SparseThreshold {
		t.Fatalf("population has %d states, want at least %d", pop.NumStates(), linalg.SparseThreshold)
	}
	qp, err := pop.Generator()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tcase{qp, []float64{30, 600}})

	for c, tc := range cases {
		n, _ := tc.q.Dims()
		l, rate := ws.SeriesLayout(linalg.CSRFromDenseT(tc.q)), linalg.UniformizationRate(tc.q.MaxAbsDiag())
		unit, tRow, uRow := make([]float64, n), make([]float64, n), make([]float64, n)
		for _, horizon := range tc.horizons {
			tm, um, err := transientPair(ws, tc.q, horizon)
			if err != nil {
				t.Fatalf("case %d t=%g: %v", c, horizon, err)
			}
			for i := 0; i < n; i++ {
				clear(unit)
				unit[i] = 1
				if err := ws.UniformizedSELL(l, unit, horizon, rate, 1e-13, tRow, uRow); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if d := math.Abs(tRow[j] - tm.At(i, j)); d > 1e-12 {
						t.Fatalf("case %d (%d states) t=%g: T[%d][%d] differs by %g", c, n, horizon, i, j, d)
					}
					if d := math.Abs(uRow[j] - um.At(i, j)); d > 1e-12*(1+horizon) {
						t.Fatalf("case %d (%d states) t=%g: U[%d][%d] differs by %g", c, n, horizon, i, j, d)
					}
				}
			}
			ws.PutMat(tm)
			ws.PutMat(um)
		}
	}
}

// TestKrylovStartNoAllocAfterWarmup: the Krylov stage takes its basis,
// Hessenberg and rotation storage from the workspace, so once the
// workspace is warm a start allocates nothing.
func TestKrylovStartNoAllocAfterWarmup(t *testing.T) {
	g := explore(t, buildClockedPopulation(t, 9, 30))
	ws := linalg.NewWorkspace()
	qt, err := g.GeneratorCSRTranspose(ws)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := commonDelay(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumStates()
	op := embeddedOp{ws: ws, layout: ws.SeriesLayout(qt), dt: g.DetBranchTranspose(), delay: delay, rate: linalg.UniformizationRate(qt.MaxAbsDiag()), moved: make([]float64, n)}
	v := make([]float64, n)
	start := func() {
		for i := range v {
			v[i] = 1 / float64(n)
		}
		if applied, _, err := op.krylov(nil, v); err != nil || applied == 0 {
			t.Fatalf("krylov: %d applications, %v", applied, err)
		}
	}
	start()
	if allocs := testing.AllocsPerRun(5, start); allocs != 0 {
		t.Errorf("Krylov start allocated %.0f times per run after warm-up", allocs)
	}
}

// TestPoissonMemoServesOneSolve: the workspace Poisson memo is bounded
// to a few entries, yet after it has churned through many unrelated
// means every series of one sparse solve after the first still hits it.
func TestPoissonMemoServesOneSolve(t *testing.T) {
	g := explore(t, buildClockedPopulation(t, 9, 30))
	ws := linalg.NewWorkspace()
	for i := 0; i < 50; i++ {
		ws.Poisson(100+float64(i), truncationEpsilon)
	}
	prevObs := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prevObs) })
	hit0 := obs.CounterFor("linalg.workspace.poisson.hit").Value()
	miss0 := obs.CounterFor("linalg.workspace.poisson.miss").Value()
	_, diag, err := Solve(nil, ws, g, Opts{Rung: "mrgp-sparse"})
	if err != nil {
		t.Fatal(err)
	}
	hits := obs.CounterFor("linalg.workspace.poisson.hit").Value() - hit0
	misses := obs.CounterFor("linalg.workspace.poisson.miss").Value() - miss0
	// One series per application (the occupancy integral rides the
	// accepted one): one miss for the first, every other reuses its
	// weights.
	if misses != 1 || hits != int64(diag.PowerIters)-1 {
		t.Errorf("poisson memo: %d misses, %d hits over %d applications; want 1 miss and %d hits",
			misses, hits, diag.PowerIters, diag.PowerIters-1)
	}
}

// TestAcceptKrylovRejectsNegativeMass: a Krylov result is accepted only
// when its clipped negatives are rounding noise. The vector GMRES once
// returned on the 395-state design (N = 9, f = 0, r = 4, tau = 600 s)
// had positive mass 3.9e-15 against negative mass -0.18; it passed the
// old positive-mass check and must now be discarded with the start left
// as it was. Negatives at the measured rounding level (at most 3.4e-14
// of the mass over the application-bound solves) are clipped as before.
func TestAcceptKrylovRejectsNegativeMass(t *testing.T) {
	const n = 395
	start := make([]float64, n)
	for i := range start {
		start[i] = 1 / float64(n)
	}
	v := append([]float64(nil), start...)
	x := make([]float64, n)
	for i := range x {
		if i%2 == 0 {
			x[i] = 3.9e-15 / float64((n+1)/2)
		} else {
			x[i] = -0.18 / float64(n/2)
		}
	}
	if acceptKrylov(v, x) {
		t.Fatal("accepted a vector of positive mass 3.9e-15 and negative mass -0.18")
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(start[i]) {
			t.Fatalf("v[%d] = %v after a rejection, want the start %v", i, v[i], start[i])
		}
	}

	for i := range x {
		x[i] = 2 / float64(n)
		if i%7 == 0 {
			x[i] = -1e-17
		}
	}
	if !acceptKrylov(v, x) {
		t.Fatal("rejected a vector whose negatives are rounding noise")
	}
	var sum float64
	for i, vi := range v {
		if vi < 0 || i%7 == 0 && vi != 0 {
			t.Fatalf("v[%d] = %v, want negatives clipped to 0", i, vi)
		}
		sum += vi
	}
	if math.Abs(sum-1) > 1e-13 {
		t.Errorf("accepted vector sums to %.17g, want 1", sum)
	}
}
