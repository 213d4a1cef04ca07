package experiments

import (
	"context"
	"sync"

	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
)

// solveCache shares reachability-graph topology across every sweep point
// evaluated by this package: each structurally distinct net is explored
// once and re-stamped with the point's rates afterwards, which is
// bit-identical to exploring from scratch (see nvp.ModelCache).
var solveCache = nvp.NewModelCache()

// wsArena hands each worker goroutine its own linalg workspace so repeated
// solves reuse scratch matrices and Poisson weight vectors. Workspaces are
// not concurrency-safe; the arena guarantees exclusive use and — unlike
// the sync.Pool it replaced — never loses warmed workspaces to a GC cycle,
// so the arena holds at most peak-concurrency workspaces for the process
// lifetime.
var wsArena = linalg.NewArena()

// warmReg seeds iterative solves in this package with the nearest
// already-solved neighbor on the same topology (see nvp.WarmRegistry).
// Models below linalg.SparseThreshold states (every paper-figure model)
// pass through unseeded, whichever route the MRGP cost model gives them,
// so the published figures remain bit-identical to cold solves at any
// worker count. Larger models are seeded: the r >= 2 designs at N = 8
// and 9 of the architecture enumeration (E12) and scaled-up sweeps get
// the iteration reduction on the sparse route, at the price of last-bit
// dependence on which neighbor finished first. The registry is
// process-wide, so a second E12 run in one process starts those designs
// from their own answers.
var warmReg = nvp.NewWarmRegistry()

func getWS() *linalg.Workspace   { return wsArena.Get() }
func putWS(ws *linalg.Workspace) { wsArena.Put(ws) }

// forEachWS is the sweep-driver pool front-end: fn runs over 0..n-1 with
// each pool worker holding one arena workspace for its entire run (one
// checkout per worker, not one per point). ctx is the item's context,
// which carries its parallel.item span.
func forEachWS(n int, fn func(ctx context.Context, ws *linalg.Workspace, i int) error) error {
	return parallel.ForEachRes(n, wsArena.Get, wsArena.Put, fn)
}

// solveMemo solves each distinct generator once per experiment run. The
// error parameters alpha, p and p' and the fault bound f enter only the
// reward, never the DSPN (nvp.Params.GeneratorKey), so sweep points that
// differ only there (every point of fig4b-d, the reward-side
// elasticities, the reliability-model ablations, designs that differ
// only in f) share one solved distribution, which each point weighs with
// its own reliability function. Only models from solveCache's builders
// may go through it: an attacker-modified net is not determined by its
// parameters.
//
// Scope: every exported Run* creates its own memo on entry and passes it
// down; there is no package-level memo. A process-wide one would make a
// second run of an experiment in the same process free, which measures
// nothing an `nvrel run` user gets. Entries are singleflight, since sweep
// points solve in parallel: a point asking for a key another worker is
// solving waits for that solve instead of repeating it.
type solveMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
}

type memoKey struct {
	arch   nvp.Architecture
	params nvp.Params // GeneratorKey
}

type memoEntry struct {
	once sync.Once
	pi   []float64
	err  error
}

func newSolveMemo() *solveMemo {
	return &solveMemo{entries: make(map[memoKey]*memoEntry)}
}

// solve returns m's stationary distribution, solving it through warmReg
// on ws only for the first model with its generator key. The returned
// slice is shared between callers and must not be modified.
//
// The solve runs under ctx's values but not its cancellation: its spans
// nest under the caller's (a pool item's) span, while a fail-fast pool
// cancelling its items cannot turn an in-flight solve at a lower index
// into a context.Canceled that would replace the lowest real failure, or
// leave that error memoized for every later point with the key.
func (s *solveMemo) solve(ctx context.Context, ws *linalg.Workspace, m *nvp.Model) ([]float64, error) {
	key := memoKey{arch: m.Arch, params: m.Params.GeneratorKey()}
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &memoEntry{}
		s.entries[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.pi, _, e.err = warmReg.SolveDiagCtxWS(context.WithoutCancel(ctx), m, ws)
	})
	return e.pi, e.err
}
