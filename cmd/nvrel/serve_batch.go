package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"nvrel"
	"nvrel/internal/obs"
	"nvrel/internal/parallel"
	"nvrel/internal/servecache"
)

// POST /solve/batch answers many parameter points in one round trip,
// amortizing everything the single endpoint pays per request:
//
//   - identical points inside the batch collapse onto one cache key (and
//     coalesce with concurrent /solve traffic through the same
//     singleflight cache);
//   - cache hits are answered before any solver work is scheduled;
//   - the remaining misses are built (a Restamp of the memoized topology
//     each — the exploration itself happens at most once per structural
//     shape) and grouped by petri.Graph.TopologyKey(), and each group is
//     solved sequentially on ONE workspace borrowed from the arena, so
//     group member k+1 reuses the scratch memory and the warm-start seed
//     its neighbor k just produced;
//   - groups run concurrently through the hardened pool, each solve
//     behind the same admission semaphore as single requests (blocking,
//     not 429 — the batch already bounded its own arrival).
//
// Per-item failures are reported per item; the batch itself fails only on
// malformed envelopes.

// maxBatchItems bounds one envelope; bigger workloads should paginate.
// maxBatchBody bounds its encoded size.
const (
	maxBatchItems = 1024
	maxBatchBody  = 8 << 20
)

type batchRequest struct {
	Requests []solveRequest `json:"requests"`
}

// batchItemJSON is one per-item result: the solve fields or an error.
// It mirrors solveResponse flattened; batch items carry no per-request
// trace or elapsed time — the envelope does.
type batchItemJSON struct {
	Arch        string         `json:"arch,omitempty"`
	Solver      string         `json:"solver,omitempty"`
	States      int            `json:"states,omitempty"`
	Reliability float64        `json:"reliability,omitempty"`
	Cache       string         `json:"cache,omitempty"`
	Diag        *solveDiagJSON `json:"diag,omitempty"`
	Error       string         `json:"error,omitempty"`
}

type batchResponse struct {
	Results        []batchItemJSON `json:"results"`
	Groups         int             `json:"groups"`
	UniqueSolves   int             `json:"unique_solves"`
	TraceID        string          `json:"trace_id,omitempty"`
	ElapsedSeconds float64         `json:"elapsed_seconds"`
}

// batchItem is the per-item resolution state threaded through the phases.
type batchItem struct {
	p    nvrel.Params
	arch string
	key  string
	res  *solveResult
	st   servecache.Status
	err  error
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sctx, sp := obs.StartSpan(r.Context(), "serve.batch")
	defer sp.End()
	traceID := obs.FormatTraceID(sp.TraceID())
	if traceID != "" {
		w.Header().Set(traceHeader, traceID)
	}
	ev := obs.Event{Method: "batch", TraceID: traceID, Status: http.StatusOK}
	defer func() {
		ev.LatencySeconds = time.Since(t0).Seconds()
		obs.RecordEvent(ev)
	}()

	var breq batchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody)).Decode(&breq); err != nil {
		ev.Status, ev.Error = http.StatusBadRequest, err.Error()
		httpError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	ev.Items = len(breq.Requests)
	if len(breq.Requests) == 0 {
		ev.Status, ev.Error = http.StatusBadRequest, "empty batch"
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(breq.Requests) > maxBatchItems {
		ev.Status, ev.Error = http.StatusBadRequest, "batch too large"
		httpError(w, http.StatusBadRequest, "batch of %d items exceeds the %d-item bound", len(breq.Requests), maxBatchItems)
		return
	}
	srvMetBatch.Inc()
	srvMetBatchItems.Add(int64(len(breq.Requests)))
	sp.Int("items", int64(len(breq.Requests)))

	items := make([]batchItem, len(breq.Requests))
	for i := range breq.Requests {
		it := &items[i]
		it.p, it.arch, it.err = breq.Requests[i].params()
		if it.err == nil {
			it.key = solveKey(it.arch, it.p)
		}
	}

	groups := s.solveBatchLocal(sctx, items)
	sp.Int("groups", int64(groups))

	unique := make(map[string]bool)
	resp := batchResponse{Results: make([]batchItemJSON, len(items)), Groups: groups, TraceID: traceID}
	for i := range items {
		it := &items[i]
		switch {
		case it.err != nil:
			resp.Results[i] = batchItemJSON{Error: it.err.Error()}
		case it.res != nil:
			resp.Results[i] = batchItemJSON{
				Arch:        it.res.arch,
				Solver:      it.res.solver,
				States:      it.res.states,
				Reliability: it.res.reliability,
				Cache:       it.st.String(),
				Diag:        it.res.diag,
			}
			if it.st == servecache.StatusMiss {
				unique[it.key] = true
			}
		}
	}
	resp.UniqueSolves = len(unique)
	resp.ElapsedSeconds = time.Since(t0).Seconds()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// solveBatchLocal answers every valid item: cache hits first,
// then misses grouped by topology and solved group-by-group through the
// hardened pool. Returns the number of topology groups scheduled.
func (s *server) solveBatchLocal(ctx context.Context, items []batchItem) int {
	// Collapse duplicate keys: one resolution per unique key, fanned back
	// out to every item asking for it.
	byKey := make(map[string][]int)
	var keyOrder []string
	for i := range items {
		if items[i].err != nil {
			continue
		}
		if _, ok := byKey[items[i].key]; !ok {
			keyOrder = append(keyOrder, items[i].key)
		}
		byKey[items[i].key] = append(byKey[items[i].key], i)
	}
	if len(keyOrder) == 0 {
		return 0
	}

	// Phase A: serve what the cache already holds — no solver, no models.
	type pending struct {
		key   string
		model *nvrel.Model
		arch  string
		p     nvrel.Params
	}
	var misses []pending
	for _, key := range keyOrder {
		idxs := byKey[key]
		if v, ok := s.scache.Get(key); ok {
			for _, i := range idxs {
				res := cloneSolveResult(v)
				items[i].res = &res
				items[i].st = servecache.StatusHit
			}
			continue
		}
		misses = append(misses, pending{key: key, arch: items[idxs[0]].arch, p: items[idxs[0]].p})
	}
	if len(misses) == 0 {
		return 0
	}

	// Phase B: build the missing models — each build is a Restamp of the
	// memoized topology (the exploration happens at most once per
	// structural shape, whatever the batch size) — and group them by the
	// topology they share.
	groupIdx := make(map[any]int)
	var groups [][]int // indices into misses
	for mi := range misses {
		m := &misses[mi]
		var err error
		if m.arch == "4v" {
			m.model, err = s.cache.BuildNoRejuvenation(m.p)
		} else {
			m.model, err = s.cache.BuildWithRejuvenation(m.p)
		}
		if err != nil {
			for _, i := range byKey[m.key] {
				items[i].err = err
			}
			continue
		}
		tk := m.model.Graph.TopologyKey()
		gi, ok := groupIdx[tk]
		if !ok || tk == nil {
			gi = len(groups)
			groups = append(groups, nil)
			if tk != nil {
				groupIdx[tk] = gi
			}
		}
		groups[gi] = append(groups[gi], mi)
	}
	if len(groups) == 0 {
		return 0
	}
	srvMetBatchGroups.Add(int64(len(groups)))

	// Phase C: one hardened-pool item per topology group. Within a group
	// the members share one workspace and solve sequentially, so each
	// solve starts from the scratch memory and warm-start neighborhood the
	// previous one just populated. Each solve still goes through the
	// result cache, so concurrent /solve traffic for the same key
	// coalesces instead of duplicating work.
	timeout := s.cfg.solveTimeout
	gctx, sp := obs.StartSpan(ctx, "serve.batch.groups")
	sp.Int("groups", int64(len(groups)))
	parallel.ForEachHardened(gctx, len(groups), func(ictx context.Context, gi int) error {
		ws := s.arena.Get()
		defer s.arena.Put(ws)
		for _, mi := range groups[gi] {
			m := &misses[mi]
			res, st, err := s.scache.GetOrCompute(m.key, func() (solveResult, error) {
				// Blocking admission (bounded by the batch deadline): the
				// batch itself is the arrival-control point, so its solves
				// queue for a slot instead of failing fast.
				select {
				case s.sem <- struct{}{}:
				case <-ictx.Done():
					return solveResult{}, ictx.Err()
				}
				defer func() { <-s.sem }()
				srvMetSolveCompute.Inc()
				stx, cancel := context.WithTimeout(ictx, timeout)
				defer cancel()
				return s.solveBuilt(stx, m.arch, m.model, ws)
			})
			for _, i := range byKey[m.key] {
				if err != nil {
					items[i].err = err
					continue
				}
				r := cloneSolveResult(res)
				items[i].res = &r
				items[i].st = st
			}
		}
		return nil
	}, parallel.HardenedOptions{MaxAttempts: 2})
	sp.End()
	return len(groups)
}
