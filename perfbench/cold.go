package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// coldChecks is how many served cold points per run are re-solved
// in-process and compared with the reference (each costs a cold sparse
// solve, a few hundred ms).
const coldChecks = 4

// coldWindow is the window serve-cold's CPU per point is taken over: a
// few solves' worth, so the median has about ten windows to pick from.
const coldWindow = 3 * time.Second

// exchange is one closed-loop serve-cold request and its reply.
type exchange struct {
	item       coldItem
	sent, done time.Duration
	r          reply
}

func (e *exchange) ms() float64 { return float64(e.done-e.sent) / 1e6 }

// coldPhase is one closed-loop phase.
type coldPhase struct {
	ex      []exchange
	t0      time.Time // what exchange times are relative to
	seconds float64   // first send to last reply
}

// closedLoop runs conns clients that each send the walk's next item and
// wait for its reply, until d has passed. Items are drawn in one shared
// order, so the sequence of requests depends only on the seed.
func closedLoop(c *http.Client, url string, walk *coldWalk, d time.Duration, rec *recorder) coldPhase {
	var mu sync.Mutex
	var ex []exchange
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				it := walk.nextItem()
				req := int64(walk.items)
				mu.Unlock()
				path, body := "/solve", it.pts[0].body()
				if len(it.pts) > 1 {
					path, body = "/solve/batch", batchBody(it.pts)
				}
				e := exchange{item: it, sent: time.Since(t0)}
				e.r = post(c, url+path, body)
				e.done = time.Since(t0)
				if rec != nil {
					rec.add(span{Req: req, Name: "client" + path, Start: t0.Sub(rec.t0) + e.sent, End: t0.Sub(rec.t0) + e.done, Trace: e.r.traceID})
				}
				mu.Lock()
				ex = append(ex, e)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return coldPhase{ex: ex, t0: t0, seconds: time.Since(t0).Seconds()}
}

// coldRun is everything serve-cold measured.
type coldRun struct {
	setup    []float64
	single   []float64 // /solve round trips, ms
	batch    []float64 // /solve/batch round trips, ms
	points   int
	seconds  float64
	cpuMS    float64 // daemon CPU per answered point, median over windows
	cpuN     int
	work     map[string]float64 // solver counter deltas over the phase
	rssMB    float64            // median daemon resident set over the phase
	rssN     int
	traced   *coldPhase
	answered int
	wrong    []error
	layers   map[string]layerValue
	selfMS   map[string]float64
}

func serveCold(ctx context.Context, cfg runConfig) (*coldRun, error) {
	c := newClient(conns)
	d, setups, err := startMeasured(ctx, cfg.nvrel, c)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	run := &coldRun{setup: setups, layers: map[string]layerValue{}}

	// Explore both topologies before timing, from points outside the
	// walk's range, so timing sees restamps, not first explorations.
	warm := []point{{Arch: "6v", N: 10, MTTC: 3500, Interval: 600}, {Arch: "6v", N: 12, MTTC: 3500, Interval: 600}}
	if err := postAll(c, d.url, warm, 1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	walk := newColdWalk(cfg.seed)
	S := time.Duration(cfg.seconds * float64(time.Second))
	pid := d.cmd.Process.Pid
	dur := S
	if cfg.trace {
		dur = S * 3 / 10
	}
	w0, err := scrapeMetrics(c, d.url)
	if err != nil {
		return nil, err
	}
	proc := sampleProc(pid)
	ph := closedLoop(c, d.url, walk, dur, nil)
	xs := proc.finish()
	w1, err := scrapeMetrics(c, d.url)
	if err != nil {
		return nil, err
	}
	run.work = map[string]float64{}
	for _, k := range []string{"mrgp.power.cycles", "linalg.unif.terms", "mrgp.solve.routed_sparse"} {
		run.work[k] = float64(counterDelta(w0.Metrics.Counters, w1.Metrics.Counters, k))
	}
	run.rssMB, run.rssN = medianRSS(xs), len(xs)
	phases := []coldPhase{ph}
	run.seconds = ph.seconds
	var ws []work
	for i := range ph.ex {
		e := &ph.ex[i]
		if !okStatus(e.r) {
			continue
		}
		run.points += len(e.item.pts)
		ws = append(ws, work{ph.t0.Add(e.sent), ph.t0.Add(e.done), float64(len(e.item.pts))})
		if len(e.item.pts) == 1 {
			run.single = append(run.single, e.ms())
		} else {
			run.batch = append(run.batch, e.ms())
		}
	}
	run.cpuMS, run.cpuN = cpuPerWork(xs, ws, coldWindow)

	if cfg.trace {
		rec := newRecorder()
		m0, err := scrapeMetrics(c, d.url)
		if err != nil {
			return nil, err
		}
		tp := closedLoop(c, d.url, walk, dur, rec)
		m1, err := scrapeMetrics(c, d.url)
		if err != nil {
			return nil, err
		}
		run.traced = &tp
		phases = append(phases, tp)
		var st replyStats
		var groups, unique []float64
		var seq [][]point
		for i := range tp.ex {
			e := &tp.ex[i]
			seq = append(seq, e.item.pts)
			if len(e.item.pts) == 1 {
				st.noteSolve(e.r, e.ms())
				continue
			}
			var br batchReply
			if e.r.decode(&br) != nil {
				continue
			}
			groups = append(groups, float64(br.Groups))
			unique = append(unique, float64(br.UniqueSolves))
			for _, r := range br.Results {
				st.answered++
				if r.Cache == "miss" && r.States >= sparseStates {
					st.sparseMisses++
					if r.Diag != nil && r.Diag.Seeded {
						st.seeded++
					}
				}
			}
		}
		serveLayers(run.layers, &st, m0, m1)
		if len(groups) > 0 {
			run.layers["batch.groups_per_batch"] = layerValue{value: mean(groups), unit: "ratio", n: len(groups), base: "topology groups / batch"}
			run.layers["batch.unique_solves"] = layerValue{value: mean(unique), unit: "ratio", n: len(unique), base: "unique solves / batch"}
		}
		rp := newReplayer(nil)
		if err := postLocal(rp, warm); err != nil {
			return nil, err
		}
		rp.rec = rec
		if _, err := rp.replay(seq, S*3/10); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		spans := replaySpans(rec)
		replayLayers(run.layers, spans, nil)
		flopsLayer(run.layers, rp, seq)
		run.selfMS = selfTotals(spans)
		if err := writeSpans(cfg.spanFile, rec.spans); err != nil {
			return nil, err
		}
	}
	run.answered, run.wrong = checkCold(cfg.seed, phases)
	return run, nil
}

// postLocal solves pts through the replayer untraced (its warm-up).
func postLocal(rp *replayer, pts []point) error {
	for _, p := range pts {
		if _, _, err := rp.solve(context.Background(), 0, p); err != nil {
			return err
		}
	}
	return nil
}

// flopsLayer computes the uniformization work per solve: 2 flops per
// stored generator entry per series term, with nnz taken from the
// replay's models (exponential edges plus the diagonal).
func flopsLayer(dst map[string]layerValue, rp *replayer, seq [][]point) {
	terms, ok := dst["linalg.unif.terms_per_solve"]
	if !ok {
		return
	}
	var nnz []float64
	for _, pts := range seq {
		for _, p := range pts {
			m, err := buildModel(rp.cache, p)
			if err != nil {
				continue
			}
			nnz = append(nnz, float64(len(m.Graph.Exp)+m.Graph.NumStates()))
		}
	}
	if len(nnz) == 0 {
		return
	}
	dst["linalg.flops_per_solve"] = layerValue{value: 2 * mean(nnz) * terms.value, unit: "flop", n: len(nnz),
		base: fmt.Sprintf("computed: 2 x mean nnz %.0f x %.1f terms/solve", mean(nnz), terms.value)}
}

// checkCold checks every reply is a 200 cache miss with E[R] in (0,1),
// and re-solves a seeded sample of coldChecks points in-process.
func checkCold(seed int64, phases []coldPhase) (int, []error) {
	type served struct {
		p   point
		rel float64
	}
	var all []served
	var wrong []error
	answered := 0
	for _, ph := range phases {
		for i := range ph.ex {
			e := &ph.ex[i]
			answered += len(e.item.pts)
			if len(e.item.pts) == 1 {
				var sr solveReply
				if err := e.r.decode(&sr); err != nil {
					wrong = append(wrong, err)
					continue
				}
				all = append(all, served{e.item.pts[0], sr.Reliability})
				if sr.Cache != "miss" {
					wrong = append(wrong, fmt.Errorf("cold point %+v answered %q, want a miss", e.item.pts[0], sr.Cache))
				}
				continue
			}
			var br batchReply
			if err := e.r.decode(&br); err != nil {
				wrong = append(wrong, err)
				continue
			}
			if len(br.Results) != len(e.item.pts) {
				wrong = append(wrong, fmt.Errorf("batch of %d answered %d results", len(e.item.pts), len(br.Results)))
				continue
			}
			for j, r := range br.Results {
				if r.Error != "" || r.Cache != "miss" {
					wrong = append(wrong, fmt.Errorf("batch item %+v: cache %q error %q", e.item.pts[j], r.Cache, r.Error))
					continue
				}
				all = append(all, served{e.item.pts[j], r.Reliability})
			}
		}
	}
	for _, s := range all {
		if !(s.rel > 0 && s.rel < 1) {
			wrong = append(wrong, fmt.Errorf("cold point %+v: E[R]=%g outside (0,1)", s.p, s.rel))
		}
	}
	ref := newReference()
	rng := rand.New(rand.NewSource(seed ^ 0xcecc))
	for _, i := range rng.Perm(len(all))[:min(coldChecks, len(all))] {
		if err := ref.check(all[i].p, all[i].rel); err != nil {
			wrong = append(wrong, err)
		}
	}
	return answered, wrong
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
