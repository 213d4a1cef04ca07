package mrgp

import (
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

func benchGraph(b *testing.B, tau float64) *petri.Graph {
	b.Helper()
	bd := petri.NewBuilder("bench")
	fresh := bd.AddPlace("fresh", 4)
	deg := bd.AddPlace("deg", 0)
	clock := bd.AddPlace("clock", 1)
	restore := bd.AddPlace("restore", 0)
	bd.AddTransition(petri.Spec{
		Name: "degrade", Kind: petri.Exponential, Rate: 1.0 / 1523,
		Inputs: []petri.Arc{{Place: fresh}}, Outputs: []petri.Arc{{Place: deg}},
	})
	bd.AddTransition(petri.Spec{
		Name: "tick", Kind: petri.Deterministic, Delay: tau,
		Inputs: []petri.Arc{{Place: clock}}, Outputs: []petri.Arc{{Place: restore}},
	})
	bd.AddTransition(petri.Spec{
		Name: "restoreDeg", Kind: petri.Immediate, Rate: 1, Priority: 2,
		Inputs:  []petri.Arc{{Place: restore}, {Place: deg}},
		Outputs: []petri.Arc{{Place: fresh}, {Place: clock}},
	})
	bd.AddTransition(petri.Spec{
		Name: "restoreNothing", Kind: petri.Immediate, Rate: 1, Priority: 1,
		Guard:   func(m petri.Marking) bool { return m[deg] == 0 },
		Inputs:  []petri.Arc{{Place: restore}},
		Outputs: []petri.Arc{{Place: clock}},
	})
	n, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	g, err := petri.Explore(n, petri.ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkSolveShortPeriod(b *testing.B) {
	g := benchGraph(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(nil, nil, g, Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLongPeriod(b *testing.B) {
	// A long period stresses the scaling-and-doubling uniformization.
	g := benchGraph(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(nil, nil, g, Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGeneral(b *testing.B) {
	g := benchGraph(b, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGeneral(nil, nil, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientPair(b *testing.B) {
	g := benchGraph(b, 600)
	q, err := g.Generator()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := transientPair(nil, q, 600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseRouteNoAlloc times the matrix work of one dense-route
// solve on a warm workspace: the base series and squarings of e^{Q tau}
// at a long period, the embedded kernel T D and the occupancy through
// the squarings. It must not allocate.
func BenchmarkDenseRouteNoAlloc(b *testing.B) {
	const tau = 3000
	g := benchGraph(b, tau)
	ws := linalg.NewWorkspace()
	n := g.NumStates()
	sigma, occ := make([]float64, n), make([]float64, n)
	for i := range sigma {
		sigma[i] = 1 / float64(n)
	}
	solve := func() {
		var pow [stackSquarings]*linalg.Dense
		sq, qt, p, err := denseRoute(ws, g, tau, pow[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := sq.occupancy(ws, qt, sigma, occ); err != nil {
			b.Fatal(err)
		}
		sq.release(ws)
		ws.PutCSR(qt)
		ws.PutMat(p)
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}
