package petri

import "testing"

// buildBenchNet constructs an N-module lifecycle net comparable in
// structure to the paper's Figure 2(a) with the given module count.
func buildBenchNet(b *testing.B, modules int) *Net {
	b.Helper()
	bd := NewBuilder("bench")
	h := bd.AddPlace("H", modules)
	c := bd.AddPlace("C", 0)
	f := bd.AddPlace("F", 0)
	bd.AddTransition(Spec{
		Name: "compromise", Kind: Exponential, Rate: 1.0 / 1523,
		Inputs: []Arc{{Place: h}}, Outputs: []Arc{{Place: c}},
	})
	bd.AddTransition(Spec{
		Name: "fail", Kind: Exponential, Rate: 1.0 / 3000,
		Inputs: []Arc{{Place: c}}, Outputs: []Arc{{Place: f}},
	})
	bd.AddTransition(Spec{
		Name: "repair", Kind: Exponential, Rate: 1.0 / 3,
		Inputs: []Arc{{Place: f}}, Outputs: []Arc{{Place: h}},
	})
	n, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func BenchmarkExploreLifecycle6(b *testing.B) {
	n := buildBenchNet(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explore(n, ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreLifecycle20(b *testing.B) {
	n := buildBenchNet(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explore(n, ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphSteadyState(b *testing.B) {
	n := buildBenchNet(b, 12)
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.SteadyState(nil, nil, Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFire(b *testing.B) {
	n := buildBenchNet(b, 6)
	m := n.InitialMarking()
	t, _ := n.TransitionByName("compromise")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Fire(t, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkingKey(b *testing.B) {
	m := Marking{4, 2, 0, 1, 0, 1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Key()
	}
}
