package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"
)

// serve-hot settings. The offered rate sits near a tenth of the daemon's
// closed-loop capacity on a 2-CPU host, so latency at it is the
// uncontended request path; the p99 limit is what max_rps is held to.
const (
	conns         = 2 // connections and sender goroutines; nproc on the reference host
	hotRate       = 1000.0
	hotLimit      = 25 * time.Millisecond
	probeDur      = time.Second
	probeGap      = 150 * time.Millisecond
	probeSamples  = 1200
	searchStep    = 1.5  // rate multiplier until the first failing probe
	searchRes     = 1.03 // stop bisecting when hi/lo is below this
	daemonStarts  = 5    // set-up samples per run
	prefillBatch  = 1000 // points per /solve/batch while filling the cache
	prefillTarget = cacheBound - hotSetSize - 1
)

// hotRun is everything serve-hot measured.
type hotRun struct {
	setup    []float64
	fixed    phase
	fixedTr  *phase // traced repeat of the fixed phase (trace runs only)
	probes   []probeRun
	maxRPS   float64
	cpuMS    float64 // daemon CPU per answered request, median over windows of the fixed phase
	rssMB    float64 // median daemon resident set over the fixed phase
	rssN     int
	cpuN     int // one-second windows behind cpuMS
	answered int
	wrong    []error
	layers   map[string]layerValue
	selfMS   map[string]float64
}

// startMeasured starts the daemon daemonStarts times, keeps the last one
// running and returns it with every set-up sample in seconds.
func startMeasured(ctx context.Context, bin string, c *http.Client) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, err := startDaemon(ctx, bin, c)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.setup.Seconds())
		if i == daemonStarts-1 {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop daemon: %w", err)
		}
	}
}

// postAll sends pts as /solve/batch envelopes of at most size points.
func postAll(c *http.Client, url string, pts []point, size int) error {
	for len(pts) > 0 {
		n := min(size, len(pts))
		body := batchBody(pts[:n])
		var br batchReply
		if err := post(c, url+"/solve/batch", body).decode(&br); err != nil {
			return err
		}
		for _, r := range br.Results {
			if r.Error != "" {
				return fmt.Errorf("batch item: %s", r.Error)
			}
		}
		pts = pts[n:]
	}
	return nil
}

func serveHot(ctx context.Context, cfg runConfig) (*hotRun, error) {
	c := newClient(conns)
	d, setups, err := startMeasured(ctx, cfg.nvrel, c)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	run := &hotRun{setup: setups, layers: map[string]layerValue{}}
	ref := newReference()
	stream := newHotStream(cfg.seed)

	// Fill the result cache to its bound so timed misses evict, then
	// pre-warm every hot point so it is a (recently used) cache hit once
	// timing starts.
	fill := make([]point, prefillTarget)
	for k := range fill {
		fill[k] = prefillPoint(k)
	}
	if err := postAll(c, d.url, fill, prefillBatch); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if err := postAll(c, d.url, stream.hot, 1); err != nil {
		return nil, fmt.Errorf("pre-warm: %w", err)
	}

	S := time.Duration(cfg.seconds * float64(time.Second))
	pid := d.cmd.Process.Pid
	fixedDur := S / 2
	if cfg.trace {
		fixedDur = S * 3 / 10
	}
	sched := stream.schedule(hotRate, fixedDur)
	proc := sampleProc(pid)
	samples, backlog := openLoop(c, d.url, sched, conns, nil)
	xs := proc.finish()
	run.fixed = summarize(samples, hotRate, fixedDur.Seconds(), backlog, hotLimit)
	run.rssMB, run.rssN = medianRSS(xs), len(xs)
	var ws []work
	for i := range samples {
		if s := &samples[i]; okStatus(s.r) {
			ws = append(ws, work{s.doneAt.Add(s.sent - s.done), s.doneAt, 1})
		}
	}
	run.cpuMS, run.cpuN = cpuPerWork(xs, ws, time.Second)
	all := [][]sample{samples}

	if cfg.trace {
		// Same schedule shape again with client spans on, bracketed by
		// /metrics.json scrapes, then the in-process replay.
		rec := newRecorder()
		m0, err := scrapeMetrics(c, d.url)
		if err != nil {
			return nil, err
		}
		tsched := stream.schedule(hotRate, fixedDur)
		ts, tb := openLoop(c, d.url, tsched, conns, rec)
		m1, err := scrapeMetrics(c, d.url)
		if err != nil {
			return nil, err
		}
		ph := summarize(ts, hotRate, fixedDur.Seconds(), tb, hotLimit)
		run.fixedTr = &ph
		all = append(all, ts)
		var st replyStats
		for i := range ts {
			st.noteSolve(ts[i].r, ts[i].roundTripMS())
		}
		serveLayers(run.layers, &st, m0, m1)
		if run.selfMS, err = replayHot(stream.hot, tsched, S*3/10, rec, run.layers); err != nil {
			return nil, err
		}
		if err := writeSpans(cfg.spanFile, rec.spans); err != nil {
			return nil, err
		}
	} else {
		run.maxRPS, run.probes = searchMaxRPS(c, d.url, stream, time.Now().Add(S-fixedDur))
		for _, p := range run.probes {
			all = append(all, p.samples)
		}
	}
	for _, ss := range all {
		for i := range ss {
			run.answered++
			if err := checkSolve(ref, &ss[i]); err != nil {
				run.wrong = append(run.wrong, err)
			}
		}
	}
	return run, nil
}

// checkSolve decodes one open-loop reply and compares its E[R] with the
// reference. Hot points must come from the cache.
func checkSolve(ref *reference, s *sample) error {
	var sr solveReply
	if err := s.r.decode(&sr); err != nil {
		return err
	}
	if s.a.hot && sr.Cache != "hit" {
		return fmt.Errorf("pre-warmed point %+v answered %q, want a cache hit", s.a.pt, sr.Cache)
	}
	return ref.check(s.a.pt, sr.Reliability)
}

// probeRun is one max_rps probe with its raw samples kept for the answer
// check.
type probeRun struct {
	phase
	samples []sample
}

// searchMaxRPS raises the offered rate by searchStep until a probe fails
// the limit, then bisects between the last pass and the first failure
// until they are within searchRes, or the deadline comes.
func searchMaxRPS(c *http.Client, url string, stream *hotStream, deadline time.Time) (float64, []probeRun) {
	var probes []probeRun
	lo, hi := 0.0, math.Inf(1)
	for time.Until(deadline) > probeDur+probeGap {
		var r float64
		switch {
		case math.IsInf(hi, 1) && lo == 0:
			r = hotRate
		case math.IsInf(hi, 1):
			r = lo * searchStep
		case lo == 0:
			r = hi / 2
		default:
			if hi/lo < searchRes {
				return lo, probes
			}
			r = math.Sqrt(lo * hi)
		}
		// A rate fails only if two probes in a row fail it, so one stall
		// of the shared host does not end the search early.
		ok := false
		for try := 0; try < 2 && !ok && time.Until(deadline) > probeDur+probeGap; try++ {
			p := probe(c, url, stream, r)
			probes = append(probes, p)
			ok = p.meets(hotLimit)
		}
		if ok {
			lo = r
		} else {
			hi = r
		}
	}
	return lo, probes
}

// probe offers rate r for probeDur (longer if needed for probeSamples
// requests, so p99 has its tail) after letting the previous probe drain.
func probe(c *http.Client, url string, stream *hotStream, r float64) probeRun {
	time.Sleep(probeGap)
	dur := max(probeDur, time.Duration(probeSamples/r*float64(time.Second)))
	sched := stream.schedule(r, dur)
	ss, backlog := openLoop(c, url, sched, conns, nil)
	return probeRun{phase: summarize(ss, r, dur.Seconds(), backlog, hotLimit), samples: ss}
}

func batchBody(pts []point) []byte {
	var b strings.Builder
	b.WriteString(`{"requests":[`)
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(p.body())
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// replayHot replays a traced phase's requests in-process after the same
// pre-warm and prefill the daemon got, and fills the span-measured layers.
func replayHot(hot []point, sched []arrival, budget time.Duration, rec *recorder, dst map[string]layerValue) (map[string]float64, error) {
	rp := newReplayer(nil)
	for k := 0; k < prefillTarget; k++ {
		if _, _, err := rp.solve(context.Background(), 0, prefillPoint(k)); err != nil {
			return nil, err
		}
	}
	if err := postLocal(rp, hot); err != nil {
		return nil, err
	}
	rp.rec = rec
	seq := make([][]point, len(sched))
	for i, a := range sched {
		seq[i] = []point{a.pt}
	}
	hits, err := rp.replay(seq, budget)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	spans := replaySpans(rec)
	replayLayers(dst, spans, hits)
	return selfTotals(spans), nil
}
