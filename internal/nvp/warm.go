package nvp

import (
	"context"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
	"nvrel/internal/warmstart"
)

// WarmRegistry pairs a Model solve with the warm-start seed store: each
// solve first looks up the nearest already-solved neighbor on the model's
// topology and seeds the iterative kernels with its iterate, then records
// its own iterate for future neighbors. Seeding is a pure hint — the
// kernels re-validate every seed and converge to the same fixed point from
// any accepted start — so results are within solver tolerance of the cold
// path and bit-identical wherever seeding does not apply.
//
// Seeding applies only to models of linalg.SparseThreshold states or
// more. Smaller ones are passed through untouched and solve cold,
// bit-identical to the cold path, even where an iterative kernel runs
// them: the MRGP cost model sends short-interval paper-scale models down
// the sparse route, and solving those cold keeps published figures
// independent of the order in which parallel sweep points finish. The
// general waits-for-wave Markov-regenerative solver is passed through
// too. A nil *WarmRegistry is inert and solves cold, so callers can
// thread an optional registry without nil checks.
//
// The registry is safe for concurrent use by a worker pool, but note that
// warm-start results then depend on solve completion order: a point may be
// seeded by whichever neighbor finished first. Drivers that must be
// bit-reproducible across worker counts should either solve cold or use
// one registry per deterministic work sequence.
type WarmRegistry struct {
	reg *warmstart.Registry
}

// NewWarmRegistry returns an empty warm-start registry.
func NewWarmRegistry() *WarmRegistry {
	return &WarmRegistry{reg: warmstart.NewRegistry()}
}

// SolveDiagCtxWS solves m like Model.SolveWith with zero Opts, seeded
// from and feeding the registry. The returned diag carries the seed
// provenance: Seeded is true when the producing kernel actually started
// from the registry's vector.
func (w *WarmRegistry) SolveDiagCtxWS(ctx context.Context, m *Model, ws *linalg.Workspace) ([]float64, petri.SolveDiag, error) {
	if w == nil || m.Graph.NumStates() < linalg.SparseThreshold || m.Params.Clock == ClockWaitsForWave {
		return m.SolveWith(ctx, ws, Opts{})
	}
	key := m.Graph.TopologyKey()
	if key == nil {
		return m.SolveWith(ctx, ws, Opts{})
	}
	sig := m.Graph.RateSignature(nil)
	seed := w.reg.Lookup(key, sig)
	pi, iterate, diag, err := m.solve(ctx, ws, Opts{Seed: seed})
	if err != nil {
		return nil, diag, err
	}
	w.reg.Insert(key, sig, iterate)
	return pi, diag, nil
}
