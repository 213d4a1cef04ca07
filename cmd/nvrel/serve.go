package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvrel"
	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/parallel"
	"nvrel/internal/petri"
	"nvrel/internal/servecache"
	"nvrel/internal/shadow"
)

// `nvrel serve` turns the batch solver into a long-running telemetry
// daemon: the same obs registry every solver package reports into is
// exported live over HTTP (Prometheus text on /metrics, JSON on
// /metrics.json, ring-buffer spans as Chrome trace-event JSON on
// /traces), and /solve accepts model specs over POST, solving them
// through the hardened pool — panic containment, worker rejuvenation,
// per-request deadline — under a concurrency limit.
//
// The serving-scale layer (DESIGN.md §11) sits in front of the solver:
// every /solve answer is cached under the canonical parameter-signature
// key (internal/servecache: bounded LRU + TTL, copy-on-read), identical
// in-flight requests coalesce onto one solve, /solve/batch amortizes
// graph work across requests sharing a topology. One daemon is the
// whole serving path: request -> cache -> pool -> solve.

// secondsBounds are the bucket bounds of the daemon's latency histograms.
// The sub-millisecond bounds separate cache hits (tens of microseconds)
// from fast misses.
var secondsBounds = []float64{1e-5, 5e-5, 1e-4, 5e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// Serve-layer metrics, following the <package>.<area>.<event> convention.
// serve.solve.seconds times each /solve answer and the warm-up solve,
// cache hits and failures included.
var (
	srvMetRequests      = obs.CounterFor("serve.request")
	srvMetRequestErrors = obs.CounterFor("serve.request.error")
	srvMetRequestSec    = obs.HistogramFor("serve.request.seconds", secondsBounds)
	srvMetSolveOK       = obs.CounterFor("serve.solve.ok")
	srvMetSolveErrors   = obs.CounterFor("serve.solve.error")
	srvMetSolveRejected = obs.CounterFor("serve.solve.rejected_busy")
	srvMetSolveSec      = obs.HistogramFor("serve.solve.seconds", secondsBounds)
	srvMetSolveCompute  = obs.CounterFor("serve.solve.compute")
	srvMetBatch         = obs.CounterFor("serve.batch")
	srvMetBatchItems    = obs.CounterFor("serve.batch.items")
	srvMetBatchGroups   = obs.CounterFor("serve.batch.groups")
)

// traceHeader carries each request's trace ID on the response, so
// clients can correlate an answer with /traces and /events.
const traceHeader = "X-Nvrel-Trace"

// maxSolveBody bounds one POST /solve body.
const maxSolveBody = 1 << 20

// errBusy marks an admission-control rejection inside the cache compute
// path so the handler can map it to 429 rather than 422.
var errBusy = errors.New("solver at max concurrency")

// Fixed daemon settings. The span ring holds obs.DefaultTraceCapacity
// spans and the shadow verifier runs on shadow.Config's defaults.
const (
	defaultCacheSize = 4096             // -cache-size default, also loadgen -self-serve's
	cacheTTL         = 15 * time.Minute // solve-result cache entry lifetime
	shutdownTimeout  = 10 * time.Second // in-flight drain budget on SIGINT/SIGTERM
)

// serveConfig is the flag-settable daemon shape.
type serveConfig struct {
	addr          string
	maxConcurrent int
	solveTimeout  time.Duration
	cacheSize     int
	eventLog      string // JSON-lines request-event stream ("" = ring only)

	// Process rejuvenation and chaos arming.
	rejuvenateAfter    time.Duration // drain + exit after this long (0 = off)
	rejuvenateRequests int           // drain + exit after this many solve requests (0 = off)
	chaosPlan          string        // faultinject plan JSON armed at boot ("" = off)

	// Shadow verification (DESIGN.md §14): sampled fraction of solves
	// re-solved on an independent rung (0 = off).
	shadowRate float64
}

// server is the daemon state: the model cache shared by every request
// (concurrency-safe, reuses explored reachability graphs), a workspace
// arena (a linalg.Workspace is not goroutine-safe, so each in-flight
// solve borrows its own; the arena tops out at max-concurrency
// workspaces and never loses them to GC), the warm-start registry that
// seeds cache-miss solves from the nearest already-served neighbor, the
// solve-result cache with singleflight coalescing, the solve-concurrency
// semaphore, the readiness latch the warm-up solve flips, and the
// draining latch the shutdown path flips so load balancers stop routing
// before the drain.
type server struct {
	cfg      serveConfig
	cache    *nvrel.ModelCache
	warmReg  *nvrel.WarmRegistry
	arena    *linalg.Arena
	scache   *servecache.Cache[solveResult]
	sem      chan struct{}
	shadow   *shadow.Verifier // nil unless -shadow-rate > 0
	ready    atomic.Bool
	draining atomic.Bool
	start    time.Time

	// Rejuvenation latch: closed once when the -rejuvenate-after /
	// -rejuvenate-requests budget is spent, telling cmdServe to drain
	// and exit for a supervisor restart.
	solveReqs        atomic.Int64
	rejuvenateOnce   sync.Once
	rejuvenateC      chan struct{}
	rejuvenateReason string // written once inside rejuvenateOnce, read after rejuvenateC closes
}

func newServer(cfg serveConfig) *server {
	if cfg.maxConcurrent < 1 {
		cfg.maxConcurrent = 1
	}
	// Every daemon records events: the request, compute and verdict
	// records behind /events, /debug/flight and the event log.
	obs.EventsEnable()
	s := &server{
		cfg:         cfg,
		cache:       nvrel.NewModelCache(),
		warmReg:     nvrel.NewWarmRegistry(),
		arena:       linalg.NewArena(),
		scache:      servecache.New(cfg.cacheSize, cacheTTL, cloneSolveResult),
		sem:         make(chan struct{}, cfg.maxConcurrent),
		start:       time.Now(),
		rejuvenateC: make(chan struct{}),
	}
	if cfg.shadowRate > 0 {
		s.shadow = shadow.New(shadow.Config{
			Rate:    cfg.shadowRate,
			Timeout: cfg.solveTimeout,
			Source:  "serve",
		})
	}
	return s
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request counter and latency
// histogram feeding the same registry the daemon exports, and counts
// solve traffic against the -rejuvenate-requests budget.
func (s *server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		srvMetRequests.Inc()
		srvMetRequestSec.Observe(time.Since(t0).Seconds())
		if sw.status >= 400 {
			srvMetRequestErrors.Inc()
		}
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/solve") {
			s.noteSolveRequest()
		}
	})
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness plus the daemon's own verdict on its arithmetic: the
		// shadow verifier's outcome counts, with status "diverging" once
		// any sampled solve has disagreed across solver paths.
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.healthSnapshot())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Draining wins over ready: the drain path flips this latch before
		// http.Server.Shutdown so load balancers stop routing new work while
		// in-flight requests finish, instead of racing the listener close.
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "warming up")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w); err != nil {
			srvMetRequestErrors.Inc()
		}
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m := obs.NewManifest()
		m.Command = "serve"
		m.Workers = parallel.Workers()
		m.WallSeconds = time.Since(s.start).Seconds()
		doc := metricsDoc{Manifest: m, Metrics: obs.Capture()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		obs.WriteTraceEvents(w)
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Events []obs.Event `json:"events"`
		}{obs.EventsSnapshot()})
	})
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(newFlightDoc(s.shadow))
	})
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /solve/batch", s.handleBatch)
	return s.instrument(mux)
}

// beginDrain flips /readyz to 503 ahead of connection draining.
func (s *server) beginDrain() { s.draining.Store(true) }

// solveRequest is the POST /solve body. Pointer fields distinguish
// "absent" from zero so the defaults mirror the solve subcommand exactly:
// parameters start from the 6v defaults, and -arch 4v resets N to 4 and R
// to 0 unless the request pins them. timeout_seconds can only shorten the
// server's -solve-timeout (0 keeps it, a larger value is capped to it);
// batch items are validated but always run under -solve-timeout.
type solveRequest struct {
	Arch           string   `json:"arch"` // "4v" or "6v" (default "6v")
	N              *int     `json:"n,omitempty"`
	F              *int     `json:"f,omitempty"`
	R              *int     `json:"r,omitempty"`
	Alpha          *float64 `json:"alpha,omitempty"`
	P              *float64 `json:"p,omitempty"`
	PPrime         *float64 `json:"pprime,omitempty"`
	MTTC           *float64 `json:"mttc,omitempty"`
	MTTF           *float64 `json:"mttf,omitempty"`
	MTTR           *float64 `json:"mttr,omitempty"`
	MTRJ           *float64 `json:"mtrj,omitempty"`
	Interval       *float64 `json:"interval,omitempty"`
	TimeoutSeconds float64  `json:"timeout_seconds,omitempty"`
}

// params resolves the request into a full parameter vector plus the
// architecture, mirroring cmdSolve's defaulting, and rejects a
// timeout_seconds no time.Duration of at least 1ns can hold.
func (req *solveRequest) params() (nvrel.Params, string, error) {
	if t := req.TimeoutSeconds; t != 0 {
		if d := t * float64(time.Second); !(d >= 1 && d < math.MaxInt64) {
			return nvrel.Params{}, "", fmt.Errorf("timeout_seconds %g out of range: want 0 (server default) or 1e-9 to 9.2e9", t)
		}
	}
	arch := req.Arch
	if arch == "" {
		arch = "6v"
	}
	if arch != "4v" && arch != "6v" {
		return nvrel.Params{}, "", fmt.Errorf("unknown architecture %q (want \"4v\" or \"6v\")", arch)
	}
	p := nvrel.DefaultSixVersion()
	if arch == "4v" {
		if req.N == nil {
			p.N = 4
		}
		if req.R == nil {
			p.R = 0
		}
	}
	if req.N != nil {
		p.N = *req.N
	}
	if req.F != nil {
		p.F = *req.F
	}
	if req.R != nil {
		p.R = *req.R
	}
	setF := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setF(&p.Alpha, req.Alpha)
	setF(&p.P, req.P)
	setF(&p.PPrime, req.PPrime)
	setF(&p.MeanTimeToCompromise, req.MTTC)
	setF(&p.MeanTimeToFailure, req.MTTF)
	setF(&p.MeanTimeToRepair, req.MTTR)
	setF(&p.MeanTimeToRejuvenate, req.MTRJ)
	setF(&p.RejuvenationInterval, req.Interval)
	return p, arch, nil
}

// timeout is the request's solve deadline: the server's limit
// (-solve-timeout), or the request's own when params() accepted it and it
// is shorter. A request can only tighten the deadline, never lift it.
func (req *solveRequest) timeout(limit time.Duration) time.Duration {
	if d := time.Duration(req.TimeoutSeconds * float64(time.Second)); d > 0 && d < limit {
		return d
	}
	return limit
}

// solveSignature is the normalized parameter signature of a resolved
// request: every solver input as a float64, in a fixed layout. It plays
// the same role the rate signature plays inside internal/warmstart —
// there compared by L1 distance to rank neighbors, here rendered exactly
// (servecache.Key) so only bit-identical parameter points share a cache
// slot. N/F/R and the reliability mix are included because they enter the
// reliability function even when they leave the rates untouched.
func solveSignature(p nvrel.Params) []float64 {
	return []float64{
		float64(p.N), float64(p.F), float64(p.R),
		p.Alpha, p.P, p.PPrime,
		p.MeanTimeToCompromise, p.MeanTimeToFailure, p.MeanTimeToRepair,
		p.MeanTimeToRejuvenate, p.RejuvenationInterval,
		float64(p.Semantics), float64(p.Clock),
	}
}

// solveKey is the canonical cache key of a resolved request.
func solveKey(arch string, p nvrel.Params) string {
	return servecache.Key(arch, solveSignature(p))
}

// attemptJSON is one failed fallback rung in the response diagnostics.
type attemptJSON struct {
	Solver string `json:"solver"`
	Sweeps int    `json:"sweeps,omitempty"`
	Error  string `json:"error"`
}

// solveDiagJSON mirrors petri.SolveDiag for the response body.
type solveDiagJSON struct {
	States     int           `json:"states"`
	Path       string        `json:"path,omitempty"`
	GSSweeps   int           `json:"gs_sweeps,omitempty"`
	PowerIters int           `json:"power_iters,omitempty"`
	Seeded     bool          `json:"seeded,omitempty"`
	Fallback   string        `json:"fallback,omitempty"`
	Attempts   []attemptJSON `json:"attempts,omitempty"`
}

// solveResult is the cacheable core of a solve: everything about the
// answer, nothing about the request that produced it (elapsed time, trace
// and cache status are per-request and attached at response time).
type solveResult struct {
	arch        string
	solver      string
	states      int
	reliability float64
	diag        *solveDiagJSON
}

// cloneSolveResult deep-copies the result so servecache storage is never
// aliased by a response writer.
func cloneSolveResult(v solveResult) solveResult {
	if v.diag != nil {
		d := *v.diag
		d.Attempts = append([]attemptJSON(nil), v.diag.Attempts...)
		v.diag = &d
	}
	return v
}

// solveResponse is the POST /solve reply. Cache says how the serving
// layer answered: "miss" (this request solved), "hit" (served from the
// result cache without entering the solver — hence no Trace), or
// "coalesced" (shared an identical in-flight solve). TraceID is this
// request's own trace (set for every answer, hits and coalesced waiters
// included), correlating the response with /traces and /events.
type solveResponse struct {
	Arch           string            `json:"arch"`
	Solver         string            `json:"solver"`
	States         int               `json:"states"`
	Reliability    float64           `json:"reliability"`
	Cache          string            `json:"cache,omitempty"`
	TraceID        string            `json:"trace_id,omitempty"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	Diag           *solveDiagJSON    `json:"diag,omitempty"`
	Trace          []obs.SpanSummary `json:"trace,omitempty"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// keyHash is the short stable digest of a cache key used in request
// events: enough to correlate requests for the same parameter point
// without reproducing the full parameter vector per event.
func keyHash(key string) string {
	h := fnv.New64a()
	io.WriteString(h, key)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ctx, sp := obs.StartSpan(r.Context(), "serve.request")
	defer sp.End()
	sp.Str("endpoint", "/solve")
	traceID := obs.FormatTraceID(sp.TraceID())
	if traceID != "" {
		w.Header().Set(traceHeader, traceID)
	}
	ev := obs.Event{Method: "solve", TraceID: traceID, Status: http.StatusOK}
	defer func() {
		ev.LatencySeconds = time.Since(t0).Seconds()
		obs.RecordEvent(ev)
	}()

	var req solveRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxSolveBody)).Decode(&req); err != nil {
		ev.Status, ev.Error = http.StatusBadRequest, err.Error()
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	p, arch, err := req.params()
	if err != nil {
		ev.Status, ev.Error = http.StatusBadRequest, err.Error()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := solveKey(arch, p)
	ev.Key = keyHash(key)
	resp, code, err := s.solveCached(ctx, key, arch, p, req.timeout(s.cfg.solveTimeout))
	if err != nil {
		srvMetSolveErrors.Inc()
		ev.Status, ev.Error = code, err.Error()
		httpError(w, code, "%v", err)
		return
	}
	srvMetSolveOK.Inc()
	resp.TraceID = traceID
	ev.Cache = resp.Cache
	if resp.Diag != nil {
		ev.Path, ev.Seeded = resp.Diag.Path, resp.Diag.Seeded
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// solveCached answers one resolved request through the result cache: a
// hit returns the stored answer without touching the solver, an identical
// in-flight solve is joined, and only an actual miss runs the solver —
// behind admission control, so cache hits are never 429'd. The solve runs
// detached from the requesting client's cancellation (coalesced waiters
// may outlive the leader's connection) but still under the per-request
// deadline.
func (s *server) solveCached(ctx context.Context, key, arch string, p nvrel.Params, timeout time.Duration) (*solveResponse, int, error) {
	t0 := time.Now()
	var trace []obs.SpanSummary
	res, st, err := s.scache.GetOrCompute(key, func() (solveResult, error) {
		// Admission control: never queue more solves than the semaphore
		// allows — a busy daemon answers 429 immediately rather than
		// accumulating goroutines until memory runs out. Only real solves
		// consume a slot.
		select {
		case s.sem <- struct{}{}:
		default:
			srvMetSolveRejected.Inc()
			return solveResult{}, fmt.Errorf("%w (%d in flight)", errBusy, s.cfg.maxConcurrent)
		}
		defer func() { <-s.sem }()
		r, tr, err := s.solveUncached(context.WithoutCancel(ctx), arch, p, timeout)
		trace = tr
		return r, err
	})
	elapsed := time.Since(t0)
	srvMetSolveSec.Observe(elapsed.Seconds())
	if err != nil {
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, errBusy):
			code = http.StatusTooManyRequests
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		}
		return nil, code, err
	}
	resp := &solveResponse{
		Arch:           res.arch,
		Solver:         res.solver,
		States:         res.states,
		Reliability:    res.reliability,
		Cache:          st.String(),
		ElapsedSeconds: elapsed.Seconds(),
		Diag:           res.diag,
		Trace:          trace, // non-nil only for the flight leader
	}
	return resp, http.StatusOK, nil
}

// solveUncached runs one solve through the hardened pool with a
// per-request deadline. The result matches the batch `nvrel solve` output
// bit-for-bit: same model cache semantics, same solver routing, same
// reliability summation order.
func (s *server) solveUncached(ctx context.Context, arch string, p nvrel.Params, timeout time.Duration) (solveResult, []obs.SpanSummary, error) {
	srvMetSolveCompute.Inc()
	sctx, sp := obs.StartSpan(ctx, "serve.solve")
	sp.Str("arch", arch)
	var res solveResult

	// One item through the hardened pool: a panicking solver is recovered
	// into a typed error (and the worker goroutine retired), and the
	// ItemTimeout deadline bounds the solve even if a kernel wedges
	// between context checks.
	errs := parallel.ForEachHardened(sctx, 1, func(ictx context.Context, _ int) error {
		ws := s.arena.Get()
		defer s.arena.Put(ws)
		r, err := s.solveModel(ictx, arch, p, ws)
		if err != nil {
			return err
		}
		res = r
		return nil
	}, parallel.HardenedOptions{Workers: 1, MaxAttempts: 2, ItemTimeout: timeout})
	sp.Err(errs[0])
	sp.End()
	if errs[0] != nil {
		return solveResult{}, nil, errs[0]
	}
	var trace []obs.SpanSummary
	if trid := sp.TraceID(); trid != 0 {
		trace = obs.SummarizeTrace(obs.CollectTrace(trid))
	}
	return res, trace, nil
}

// flightDoc is the GET /debug/flight payload: the compute and verdict
// records of the event ring, oldest first, plus the shadow verifier's
// outcome counts.
type flightDoc struct {
	Flight []obs.Event  `json:"flight"`
	Shadow shadow.Stats `json:"shadow"`
}

// newFlightDoc drains pending shadow verifications first, so the dump
// carries every verdict; the queue is bounded, so this waits at most a
// few background solves.
func newFlightDoc(ver *shadow.Verifier) flightDoc {
	ver.Flush()
	doc := flightDoc{Shadow: ver.Stats()}
	for _, ev := range obs.EventsSnapshot() {
		if ev.Method == "compute" || ev.Method == "shadow" {
			doc.Flight = append(doc.Flight, ev)
		}
	}
	return doc
}

// noteSolved files one completed primary solve's compute record and,
// when shadow verification is enabled, offers it to the deterministic
// sampler. Both are strictly off the request path: one ring write plus a
// non-blocking channel send.
func (s *server) noteSolved(ctx context.Context, arch string, model *nvrel.Model, pi []float64, rel float64, diag petri.SolveDiag, elapsed time.Duration) {
	noteShadowSolve(ctx, "serve", arch, model, pi, rel, diag, elapsed, s.shadow)
}

// noteShadowSolve is the driver-agnostic half of noteSolved, shared by
// serve, sweep, and chaos: one "compute" record plus an optional sampler
// offer (ver nil = record only).
func noteShadowSolve(ctx context.Context, source, arch string, model *nvrel.Model, pi []float64, rel float64, diag petri.SolveDiag, elapsed time.Duration, ver *shadow.Verifier) {
	trid := obs.SpanFromContext(ctx).TraceID()
	ev := obs.Event{
		Method:         "compute",
		Source:         source,
		Arch:           arch,
		Key:            keyHash(solveKey(arch, model.Params)),
		LatencySeconds: elapsed.Seconds(),
		States:         diag.States,
		Solver:         model.SolverKind(),
		GSSweeps:       diag.GSSweeps,
		PowerIters:     diag.PowerIters,
		Residual:       diag.Residual,
		Seeded:         diag.Seeded,
	}
	if trid != 0 {
		ev.TraceID = obs.FormatTraceID(trid)
	}
	if reportsPath(model) {
		ev.Path = diag.Path.String()
		if diag.Fallback != nil {
			ev.Fallback = diag.Fallback.Error()
		}
	}
	obs.RecordEvent(ev)
	if ver != nil {
		// The verifier keeps the distribution past this solve's
		// lifetime; hand it a copy, the solve buffer goes back to its
		// workspace/arena owner.
		cp := make([]float64, len(pi))
		copy(cp, pi)
		ver.Offer(shadow.Job{
			Arch:    arch,
			Params:  model.Params,
			KeyHash: ev.Key,
			TraceID: trid,
			Path:    ev.Path,
			Pi:      cp,
			Rel:     rel,
			Diag:    diag,
		})
	}
}

// reportsPath says whether the model's solver sets SolveDiag.Path and
// Fallback: the CTMC chain (GS/GTH/power) and the MRGP embedded-chain
// solve (dense/sparse/sparse-fallback-dense) do; the general MRGP solve
// has a single route and leaves them zero.
func reportsPath(model *nvrel.Model) bool {
	k := model.SolverKind()
	return k == "ctmc" || k == "mrgp"
}

// solveModel builds and solves one parameter point on the caller's
// workspace: model-cache graph reuse, warm-start seeding from the
// nearest already-served neighbor, paper reliability summation. Both the
// single-solve path and the batch group loop land here.
func (s *server) solveModel(ctx context.Context, arch string, p nvrel.Params, ws *linalg.Workspace) (solveResult, error) {
	var (
		model *nvrel.Model
		err   error
	)
	if arch == "4v" {
		model, err = s.cache.BuildNoRejuvenation(p)
	} else {
		model, err = s.cache.BuildWithRejuvenation(p)
	}
	if err != nil {
		return solveResult{}, err
	}
	return s.solveBuilt(ctx, arch, model, ws)
}

// solveBuilt solves an already-built model (the batch path restamps and
// groups models before solving).
func (s *server) solveBuilt(ctx context.Context, arch string, model *nvrel.Model, ws *linalg.Workspace) (solveResult, error) {
	solveStart := time.Now()
	pi, diag, err := s.warmReg.SolveDiagCtxWS(ctx, model, ws)
	if err != nil {
		return solveResult{}, err
	}
	elapsed := time.Since(solveStart)
	rel, err := model.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		return solveResult{}, err
	}
	s.noteSolved(ctx, arch, model, pi, rel, diag, elapsed)
	res := solveResult{
		arch:        arch,
		solver:      model.SolverKind(),
		states:      diag.States,
		reliability: rel,
	}
	d := &solveDiagJSON{States: diag.States, Seeded: diag.Seeded, PowerIters: diag.PowerIters}
	if reportsPath(model) {
		d.Path = diag.Path.String()
		if diag.Fallback != nil {
			d.Fallback = diag.Fallback.Error()
		}
	}
	if res.solver == "ctmc" {
		d.GSSweeps = diag.GSSweeps
		for _, a := range diag.Attempts {
			d.Attempts = append(d.Attempts, attemptJSON{Solver: a.Solver, Sweeps: a.Sweeps, Error: a.Err.Error()})
		}
	}
	res.diag = d
	return res, nil
}

// healthDoc is the GET /healthz JSON contract.
type healthDoc struct {
	Status   string         `json:"status"`
	Draining bool           `json:"draining,omitempty"`
	Numerics healthNumerics `json:"numerics"`
}

// healthNumerics is the shadow verifier's verdict on this daemon's own
// arithmetic: "off" when shadowing is disabled, "ok" while every
// sampled solve has agreed across independent solver paths, "diverging"
// once any has not. Divergence means a converged-but-wrong answer was
// served — the one failure class the fallback chain cannot see.
type healthNumerics struct {
	Status  string `json:"status"` // ok | diverging | off
	Sampled int64  `json:"sampled,omitempty"`
	Agree   int64  `json:"agree,omitempty"`
	Diverge int64  `json:"diverge,omitempty"`
	Skipped int64  `json:"skipped,omitempty"`
	Errors  int64  `json:"errors,omitempty"`
}

func (s *server) healthSnapshot() healthDoc {
	doc := healthDoc{
		Status:   "ok",
		Draining: s.draining.Load(),
		Numerics: s.numerics(),
	}
	if doc.Numerics.Status == "diverging" {
		doc.Status = "diverging"
	}
	return doc
}

func (s *server) numerics() healthNumerics {
	if s.shadow == nil {
		return healthNumerics{Status: "off"}
	}
	st := s.shadow.Stats()
	n := healthNumerics{
		Status:  "ok",
		Sampled: st.Sampled,
		Agree:   st.Agree,
		Diverge: st.Diverge,
		Skipped: st.Skipped,
		Errors:  st.Errors,
	}
	if st.Diverge > 0 {
		n.Status = "diverging"
	}
	return n
}

// noteSolveRequest counts one solve-traffic request against the
// -rejuvenate-requests budget.
func (s *server) noteSolveRequest() {
	if s.cfg.rejuvenateRequests <= 0 {
		return
	}
	if s.solveReqs.Add(1) == int64(s.cfg.rejuvenateRequests) {
		s.triggerRejuvenate(fmt.Sprintf("served %d solve requests", s.cfg.rejuvenateRequests))
	}
}

// triggerRejuvenate asks the daemon to drain and exit cleanly — the
// paper's software rejuvenation applied to the serving process itself.
// A supervisor (systemd, the smoke script, a container runtime) restarts
// it fresh. Idempotent: the first reason wins.
func (s *server) triggerRejuvenate(reason string) {
	s.rejuvenateOnce.Do(func() {
		s.rejuvenateReason = reason
		close(s.rejuvenateC)
	})
}

// rejuvenateTimer arms the -rejuvenate-after clock; the returned stop
// function cancels it on normal shutdown.
func (s *server) rejuvenateTimer() (stop func()) {
	if s.cfg.rejuvenateAfter <= 0 {
		return func() {}
	}
	t := time.AfterFunc(s.cfg.rejuvenateAfter, func() {
		s.triggerRejuvenate(fmt.Sprintf("ran for %v", s.cfg.rejuvenateAfter))
	})
	return func() { t.Stop() }
}

// warmUp solves the default six-version model once so the first real
// request doesn't pay exploration cost (and the result cache opens with
// its most popular entry), then flips readiness. A failing warm-up leaves
// the daemon not-ready (and loudly logged) rather than dead: /metrics and
// /healthz stay useful for diagnosis.
func (s *server) warmUp(out io.Writer) {
	req := solveRequest{Arch: "6v"}
	p, arch, err := req.params()
	if err == nil {
		_, _, err = s.solveCached(context.Background(), solveKey(arch, p), arch, p, s.cfg.solveTimeout)
	}
	if err != nil {
		fmt.Fprintf(out, "nvrel serve: warm-up solve failed: %v\n", err)
		return
	}
	s.ready.Store(true)
}

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg serveConfig
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8077", "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&cfg.maxConcurrent, "max-concurrent", 4, "max in-flight /solve requests before 429")
	fs.DurationVar(&cfg.solveTimeout, "solve-timeout", 30*time.Second, "default per-request solve deadline")
	fs.IntVar(&cfg.cacheSize, "cache-size", defaultCacheSize, "solve-result cache capacity in entries (0 = unbounded)")
	fs.StringVar(&cfg.eventLog, "event-log", "", "append request events as JSON lines to this file (\"\" = in-memory ring only)")
	fs.DurationVar(&cfg.rejuvenateAfter, "rejuvenate-after", 0, "drain and exit cleanly after this long, for a supervisor restart (0 = off)")
	fs.IntVar(&cfg.rejuvenateRequests, "rejuvenate-requests", 0, "drain and exit cleanly after this many solve requests (0 = off)")
	fs.StringVar(&cfg.chaosPlan, "chaos-plan", "", "arm this faultinject plan JSON at boot (solver sites such as linalg.gs.drift)")
	fs.Float64Var(&cfg.shadowRate, "shadow-rate", 0, "fraction of solves re-solved on an independent solver path and cross-checked (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A telemetry daemon with dark telemetry would be pointless: serve
	// always collects metrics, spans, and events (newServer turns events
	// on), whatever the global flags say.
	obs.Enable()
	obs.TraceEnable()
	if cfg.eventLog != "" {
		f, err := os.OpenFile(cfg.eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: -event-log: %w", err)
		}
		obs.SetEventSink(f)
		defer func() {
			obs.SetEventSink(nil)
			f.Close()
		}()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s := newServer(cfg)
	if cfg.chaosPlan != "" {
		data, err := os.ReadFile(cfg.chaosPlan)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: -chaos-plan: %w", err)
		}
		plan, err := faultinject.ParsePlan(data)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: -chaos-plan: %w", err)
		}
		for _, f := range plan.Faults {
			if err := faultinject.Arm(f, plan.Seed); err != nil {
				ln.Close()
				return fmt.Errorf("serve: -chaos-plan: %w", err)
			}
		}
		faultinject.Enable()
		fmt.Fprintf(out, "nvrel serve: chaos plan %s armed (%d faults, seed %d)\n",
			cfg.chaosPlan, len(plan.Faults), plan.Seed)
	}
	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(out, "nvrel serve: listening on http://%s\n", ln.Addr())
	go s.warmUp(out)
	stopRejuvenate := s.rejuvenateTimer()
	defer stopRejuvenate()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	case <-s.rejuvenateC:
		fmt.Fprintf(out, "nvrel serve: rejuvenating (%s): draining for supervisor restart\n", s.rejuvenateReason)
	}
	stop()
	// Flip /readyz before draining: load balancers and health checkers see
	// not-ready while in-flight requests complete, instead of only after
	// the listener is already gone.
	s.beginDrain()
	fmt.Fprintln(out, "nvrel serve: shutting down, draining in-flight requests")
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	// Let queued shadow verifications finish so their verdicts reach the
	// metrics and the event log before the process exits.
	s.shadow.Close()
	return nil
}
