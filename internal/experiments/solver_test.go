package experiments

import (
	"context"
	"math"
	"testing"

	"nvrel/internal/nvp"
	"nvrel/internal/obs"
)

// mrgpSolves reads the clocked-MRGP routing counters, which count one per
// solve whichever route it takes.
func mrgpSolves() int64 {
	return obs.CounterFor("mrgp.solve.routed_dense").Value() + obs.CounterFor("mrgp.solve.routed_sparse").Value()
}

// TestSolveMemoScope: a sweep over a reward-only parameter solves the
// six-version generator once, and the memo lives exactly as long as one
// Run call — a second RunSensitivity in the same process repeats every
// solve of the first.
func TestSolveMemoScope(t *testing.T) {
	prev := obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prev) })
	for _, c := range []struct {
		name string
		run  func([]float64) (Series, error)
	}{
		{"fig4b", RunFig4b},
		{"fig4c", RunFig4c},
		{"fig4d", RunFig4d},
	} {
		before := mrgpSolves()
		if _, err := c.run(nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := mrgpSolves() - before; got != 1 {
			t.Errorf("%s: %d six-version MRGP solves, want 1", c.name, got)
		}
	}
	var solves [2]int64
	for i := range solves {
		before := mrgpSolves()
		if _, err := RunSensitivity(); err != nil {
			t.Fatal(err)
		}
		solves[i] = mrgpSolves() - before
	}
	if solves[0] == 0 || solves[1] != solves[0] {
		t.Errorf("RunSensitivity solved %d then %d times, want the same non-zero count (no cross-run reuse)", solves[0], solves[1])
	}
}

// TestMemoizedSweepMatchesDirectSolves: every point of a reward-only sweep
// weighs the shared distribution with its own reliability function, so
// each value is bit-identical to solving that point on its own.
func TestMemoizedSweepMatchesDirectSolves(t *testing.T) {
	s, err := RunFig4c(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range s.Points {
		p4, p6 := nvp.DefaultFourVersion(), nvp.DefaultSixVersion()
		p4.P, p6.P = pt.X, pt.X
		m4, err := nvp.BuildNoRejuvenation(p4)
		if err != nil {
			t.Fatal(err)
		}
		m6, err := nvp.BuildWithRejuvenation(p6)
		if err != nil {
			t.Fatal(err)
		}
		want4, err := m4.ExpectedPaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		want6, err := m6.ExpectedPaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pt.FourVersion) != math.Float64bits(want4) || math.Float64bits(pt.SixVersion) != math.Float64bits(want6) {
			t.Errorf("p=%g: memoized (%v, %v), direct (%v, %v)", pt.X, pt.FourVersion, pt.SixVersion, want4, want6)
		}
	}
}

// TestSolveMemoKeysOnArchitecture: the same parameters under the two
// architectures are two generators, so the memo must not hand one the
// other's distribution.
func TestSolveMemoKeysOnArchitecture(t *testing.T) {
	p := nvp.DefaultSixVersion()
	m4, err := solveCache.BuildNoRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	m6, err := solveCache.BuildWithRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	memo := newSolveMemo()
	ws := getWS()
	defer putWS(ws)
	for _, m := range []*nvp.Model{m4, m6} {
		pi, err := memo.solve(context.Background(), ws, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(pi) != m.Graph.NumStates() {
			t.Errorf("%v: memo returned %d probabilities for %d states", m.Arch, len(pi), m.Graph.NumStates())
		}
	}
}

// TestFig3SolveSpansNestUnderPoolItems: in a traced RunFig3 every
// nvp.solve span is the child of the parallel.item span whose point it
// solves and shares that span's trace ID, so an experiment trace
// attributes solver time to pool items instead of recording each solve
// as a root of its own.
func TestFig3SolveSpansNestUnderPoolItems(t *testing.T) {
	prev := obs.TraceEnable()
	obs.TraceReset()
	defer obs.SetTraceEnabled(prev)
	if _, err := RunFig3(nil); err != nil {
		t.Fatal(err)
	}
	spans := obs.TraceSnapshot()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, r := range spans {
		byID[r.ID] = r
	}
	solves := 0
	for _, r := range spans {
		if r.Name != "nvp.solve" {
			continue
		}
		solves++
		parent, ok := byID[r.Parent]
		if !ok || parent.Name != "parallel.item" {
			t.Fatalf("nvp.solve span %d has parent %d (%q), want a parallel.item span", r.ID, r.Parent, parent.Name)
		}
		if r.Trace != parent.Trace {
			t.Errorf("nvp.solve span %d: trace %x, its parallel.item parent's %x", r.ID, r.Trace, parent.Trace)
		}
	}
	if want := len(Fig3Grid()); solves != want {
		t.Errorf("traced %d nvp.solve spans, want one per grid point (%d)", solves, want)
	}
}
