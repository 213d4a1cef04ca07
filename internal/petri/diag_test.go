package petri

import (
	"math"
	"math/rand"
	"testing"

	"nvrel/internal/linalg"
)

// TestSteadyStateDiagDensePath: state spaces below the sparse threshold
// must report the dense GTH path with no Gauss-Seidel sweeps.
func TestSteadyStateDiagDensePath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := linalg.SparseThreshold / 2
	g := randomReachabilityGraph(rng, n)
	pi, diag, err := g.SteadyState(nil, nil, Opts{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	if diag.Path != PathDense {
		t.Fatalf("path = %v, want %v", diag.Path, PathDense)
	}
	if diag.States != n {
		t.Fatalf("states = %d, want %d", diag.States, n)
	}
	if diag.GSSweeps != 0 {
		t.Fatalf("GSSweeps = %d on the dense path, want 0", diag.GSSweeps)
	}
	if diag.Fallback != nil {
		t.Fatalf("fallback = %v on the dense path, want nil", diag.Fallback)
	}
	var sum float64
	for _, v := range pi {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pi sums to %v, want 1", sum)
	}
}

// TestSteadyStateDiagSparsePath: state spaces at or above the threshold
// must report the sparse path with a positive sweep count and no fallback —
// the diagnostics exist precisely so a silent degrade to the dense backstop
// becomes assertable.
func TestSteadyStateDiagSparsePath(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ws := linalg.NewWorkspace()
	n := linalg.SparseThreshold + 40
	g := randomReachabilityGraph(rng, n)
	pi, diag, err := g.SteadyState(nil, ws, Opts{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	if diag.Path != PathSparse {
		t.Fatalf("path = %v (fallback: %v), want %v", diag.Path, diag.Fallback, PathSparse)
	}
	if diag.GSSweeps <= 0 {
		t.Fatalf("GSSweeps = %d on the sparse path, want > 0", diag.GSSweeps)
	}
	if diag.Fallback != nil {
		t.Fatalf("fallback = %v without a dense backstop run, want nil", diag.Fallback)
	}
	want, _, err := g.SteadyState(nil, ws, Opts{Rung: "gth"})
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	for i := range want {
		if math.Abs(pi[i]-want[i]) > 1e-10 {
			t.Fatalf("pi[%d] = %.17g, dense reference %.17g", i, pi[i], want[i])
		}
	}
}

// TestSolvePathString: the enum renders stable labels for logs and JSON.
func TestSolvePathString(t *testing.T) {
	cases := map[SolvePath]string{
		PathDense:               "dense",
		PathSparse:              "sparse",
		PathSparseFallbackDense: "sparse-fallback-dense",
		SolvePath(99):           "unknown",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("SolvePath(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}
