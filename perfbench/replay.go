package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"nvrel"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/parallel"
	"nvrel/internal/servecache"
)

// replayer composes, in-process, the public calls `nvrel serve` makes for
// one /solve — servecache.Key, Cache.GetOrCompute, parallel.ForEachHardened,
// ModelCache.Build*, WarmRegistry.SolveDiagCtxWS,
// Model.ExpectedPaperReliabilityFrom, and CollectTrace+SummarizeTrace on
// leader solves — with a benchmark span around each call, so each layer's
// time can be attributed without tracing inside the program.
type replayer struct {
	cache  *nvrel.ModelCache
	warm   *nvrel.WarmRegistry
	arena  *linalg.Arena
	scache *servecache.Cache[float64]
	rec    *recorder
}

func newReplayer(rec *recorder) *replayer {
	// The daemon always runs with metrics, spans and events on.
	obs.Enable()
	obs.TraceEnable()
	obs.EventsEnable()
	return &replayer{
		cache:  nvrel.NewModelCache(),
		warm:   nvrel.NewWarmRegistry(),
		arena:  linalg.NewArena(),
		scache: servecache.New(cacheBound, 15*time.Minute, func(v float64) float64 { return v }),
		rec:    rec,
	}
}

// solve answers one point the way the daemon's solveCached does.
func (s *replayer) solve(ctx context.Context, req int64, p point) (float64, servecache.Status, error) {
	rec := s.rec
	root := rec.begin("replay.request", 0, req)
	defer rec.end(root)
	k := rec.begin("servecache.Key", root, req)
	key := p.key()
	rec.end(k)
	g := rec.begin("servecache.GetOrCompute", root, req)
	defer rec.end(g)
	return s.scache.GetOrCompute(key, func() (float64, error) {
		sctx, sp := obs.StartSpan(ctx, "serve.solve")
		var rel float64
		f := rec.begin("parallel.ForEachHardened", g, req)
		errs := parallel.ForEachHardened(sctx, 1, func(ictx context.Context, _ int) error {
			it := rec.begin("parallel.item", f, req)
			defer rec.end(it)
			ws := s.arena.Get()
			defer s.arena.Put(ws)
			b := rec.begin("nvp.ModelCache.Build", it, req)
			m, err := buildModel(s.cache, p)
			rec.end(b)
			if err != nil {
				return err
			}
			sv := rec.begin("nvp.WarmRegistry.SolveDiagCtxWS", it, req)
			pi, _, err := s.warm.SolveDiagCtxWS(ictx, m, ws)
			rec.end(sv)
			if err != nil {
				return err
			}
			r := rec.begin("reliability.ExpectedPaperReliabilityFrom", it, req)
			rel, err = m.ExpectedPaperReliabilityFrom(pi)
			rec.end(r)
			return err
		}, parallel.HardenedOptions{Workers: 1, MaxAttempts: 2, ItemTimeout: 30 * time.Second})
		rec.end(f)
		sp.End()
		if errs[0] != nil {
			return 0, errs[0]
		}
		o := rec.begin("obs.CollectTrace+SummarizeTrace", g, req)
		obs.SummarizeTrace(obs.CollectTrace(sp.TraceID()))
		rec.end(o)
		return rel, nil
	})
}

// replayBase offsets replay request ids from the HTTP phase's.
const replayBase = 1 << 40

// replay runs seq through the replayer on conns goroutines (the HTTP
// phase's client concurrency) until it is done or budget runs out; each
// element is one request of one or more points. It returns the request
// ids answered from the cache and the first error.
func (s *replayer) replay(seq [][]point, budget time.Duration) (map[int64]bool, error) {
	deadline := time.Now().Add(budget)
	var next atomic.Int64
	var firstErr error
	var mu sync.Mutex
	hits := make(map[int64]bool)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if int(i) >= len(seq) {
					return
				}
				req := replayBase + i
				for _, p := range seq[i] {
					_, st, err := s.solve(context.Background(), req, p)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if st == servecache.StatusHit {
						hits[req] = true
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return hits, firstErr
}

// replaySpans returns the replay's spans (not the HTTP phase's).
func replaySpans(rec *recorder) []span {
	var out []span
	for _, s := range rec.spans {
		if s.Req >= replayBase {
			out = append(out, s)
		}
	}
	return out
}

// replayLayers turns replay spans into the span-measured layer metrics.
// Cache lookups are timed on hits only, pool dispatch is the
// ForEachHardened span minus the item it ran.
func replayLayers(dst map[string]layerValue, spans []span, hitReq map[int64]bool) {
	p50 := func(metric string, xs []float64, scale float64, unit string) {
		if len(xs) == 0 {
			return
		}
		dst[metric] = layerValue{value: median(xs) * scale, unit: unit, n: len(xs), base: "replay"}
	}
	var get []float64
	for _, s := range spans {
		if s.Name == "servecache.GetOrCompute" && hitReq[s.Req] {
			get = append(get, s.dur().Seconds())
		}
	}
	p50("servecache.get_us", get, 1e6, "us")
	self := selfTimes(spans)
	p50("parallel.dispatch_us", self["parallel.ForEachHardened"], 1e6, "us")
	p50("obs.trace_summary_us", durations(spans, "obs.CollectTrace+SummarizeTrace"), 1e6, "us")
	p50("nvp.build_us", durations(spans, "nvp.ModelCache.Build"), 1e6, "us")
	p50("mrgp.solve_ms_p50", durations(spans, "nvp.WarmRegistry.SolveDiagCtxWS"), 1e3, "ms")
	p50("reliability.sum_us", durations(spans, "reliability.ExpectedPaperReliabilityFrom"), 1e6, "us")
}

// selfTotals sums self time (ms) per span name: where the replay's time
// went, layer by layer.
func selfTotals(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for name, xs := range selfTimes(spans) {
		for _, x := range xs {
			out[name] += x * 1e3
		}
	}
	return out
}
