package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"nvrel/internal/obs"
	"nvrel/internal/shadow"
)

// `nvrel loadgen` is the closed-loop load generator for the serve daemon:
// a fixed number of workers each keep exactly one request in flight
// (optionally paced to a target aggregate RPS), drawing parameter points
// from a seeded repeat/neighbor/cold mix that mirrors real serving
// traffic — most users ask the same question, some ask a nearby one, a
// few ask something new. It reports achieved RPS, exact p50/p95/p99
// latency, error rate, and the cache-status split (hit latency vs miss
// latency is the cache's whole value proposition), writes the report as
// a JSON artifact, and exits non-zero when a -max-p99 / -max-error-rate /
// -min-hit-rate / -min-p50-speedup gate is violated — so check.sh can
// gate serving-latency regressions.

type loadgenConfig struct {
	url         string
	selfServe   bool
	duration    time.Duration
	concurrency int
	rps         float64
	mix         string
	neighbors   int
	arch        string
	n           int
	seed        int64
	timeout     time.Duration
	out         string

	maxP99       time.Duration
	maxErrorRate float64
	minHitRate   float64
	minSpeedup   float64

	// Shadow verification of the self-served daemon (DESIGN.md §14):
	// -shadow-rate samples solves for independent-path cross-checking,
	// -flight-out dumps the /debug/flight records for `nvrel audit`, and
	// the two shadow gates let CI demand both coverage and agreement.
	shadowRate       float64
	flightOut        string
	minShadowSampled int // gate: fail with fewer sampled shadow solves (0 = off)
	maxShadowDiverge int // gate: fail with more divergences (negative = off)

	// SLO burn-rate gates: the run fails when the observed error rate
	// (or tail-latency fraction) spends the declared error budget at
	// >= 1x — i.e. the daemon as driven would violate the objective.
	sloAvailability float64       // 0 = off
	sloP99          time.Duration // 0 = off
}

// lgSample is one completed request as the client saw it.
type lgSample struct {
	seconds float64
	status  int    // HTTP status (0 = transport error)
	cache   string // "hit" | "miss" | "coalesced" | "" on error
	class   string // "repeat" | "neighbor" | "cold"
}

// lgLatency is the exact latency summary of one sample subset.
type lgLatency struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	Mean  float64 `json:"mean_seconds"`
	Max   float64 `json:"max_seconds"`
}

// lgReport is the JSON artifact.
type lgReport struct {
	Manifest        obs.Manifest   `json:"manifest"`
	URL             string         `json:"url"`
	DurationSeconds float64        `json:"duration_seconds"`
	Concurrency     int            `json:"concurrency"`
	TargetRPS       float64        `json:"target_rps,omitempty"`
	Mix             string         `json:"mix"`
	Seed            int64          `json:"seed"`
	TotalRequests   int            `json:"total_requests"`
	Errors          int            `json:"errors"`
	ErrorRate       float64        `json:"error_rate"`
	AchievedRPS     float64        `json:"achieved_rps"`
	Latency         lgLatency      `json:"latency"`
	CacheStatus     map[string]int `json:"cache_status"`
	CacheHitRate    float64        `json:"cache_hit_rate"`
	ClassCounts     map[string]int `json:"class_counts"`
	HitLatency      lgLatency      `json:"hit_latency"`
	MissLatency     lgLatency      `json:"miss_latency"`
	HitSpeedupP50   float64        `json:"hit_speedup_p50"`
	SLO             *lgSLO         `json:"slo,omitempty"`
	Shadow          *shadow.Stats  `json:"shadow,omitempty"`
}

// lgSLO is the client-side error-budget accounting of one run, computed
// from the exact per-request samples (not the daemon's histograms), so
// the gates are deterministic for a deterministic run.
type lgSLO struct {
	AvailabilityObjective   float64 `json:"availability_objective,omitempty"`
	AvailabilityBurnRate    float64 `json:"availability_burn_rate,omitempty"`
	LatencyObjectiveSeconds float64 `json:"latency_objective_seconds,omitempty"`
	SlowFraction            float64 `json:"slow_fraction,omitempty"`
	LatencyBurnRate         float64 `json:"latency_burn_rate,omitempty"`
}

func summarizeLatency(samples []float64) lgLatency {
	l := lgLatency{Count: len(samples)}
	if len(samples) == 0 {
		return l
	}
	var sum float64
	for _, v := range samples {
		sum += v
		if v > l.Max {
			l.Max = v
		}
	}
	l.Mean = sum / float64(len(samples))
	l.P50 = obs.Percentile(samples, 0.50)
	l.P95 = obs.Percentile(samples, 0.95)
	l.P99 = obs.Percentile(samples, 0.99)
	return l
}

// parseMix parses "repeat,neighbor,cold" fractions; they must be
// non-negative and sum to something positive (they are renormalized).
func parseMix(s string) (repeat, neighbor, cold float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("loadgen: -mix wants three comma-separated fractions (repeat,neighbor,cold), got %q", s)
	}
	vals := make([]float64, 3)
	var sum float64
	for i, p := range parts {
		v, perr := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if perr != nil || v < 0 {
			return 0, 0, 0, fmt.Errorf("loadgen: bad -mix component %q", p)
		}
		vals[i] = v
		sum += v
	}
	if sum <= 0 {
		return 0, 0, 0, fmt.Errorf("loadgen: -mix fractions sum to zero")
	}
	return vals[0] / sum, vals[1] / sum, vals[2] / sum, nil
}

// lgRequestFor draws one request body from the mix. The repeat class is
// always the identical base point; the neighbor class nudges MTTC onto
// one of a small fixed grid of nearby values (distinct cache keys, warm
// neighbors for the registry); the cold class draws an effectively-unique
// MTTC so it can never hit the cache.
func lgRequestFor(rng *rand.Rand, cfg *loadgenConfig, repeat, neighbor float64) (string, []byte) {
	base := 1523.0
	req := solveRequest{Arch: cfg.arch, N: &cfg.n}
	class := "cold"
	switch u := rng.Float64(); {
	case u < repeat:
		class = "repeat"
	case u < repeat+neighbor:
		class = "neighbor"
		mttc := base * (1 + 0.005*float64(1+rng.Intn(cfg.neighbors)))
		req.MTTC = &mttc
	default:
		mttc := base * (2 + rng.Float64())
		req.MTTC = &mttc
	}
	body, _ := json.Marshal(&req)
	return class, body
}

func cmdLoadgen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg loadgenConfig
	fs.StringVar(&cfg.url, "url", "", "target daemon base URL (e.g. http://127.0.0.1:8077)")
	fs.BoolVar(&cfg.selfServe, "self-serve", false, "boot an in-process serve daemon on an ephemeral port and drive it")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "generation time")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "closed-loop workers (one request in flight each)")
	fs.Float64Var(&cfg.rps, "rps", 0, "target aggregate request rate (0 = as fast as the loop closes)")
	fs.StringVar(&cfg.mix, "mix", "0.8,0.15,0.05", "repeat,neighbor,cold traffic fractions")
	fs.IntVar(&cfg.neighbors, "neighbors", 16, "distinct parameter points in the neighbor class")
	fs.StringVar(&cfg.arch, "arch", "6v", `architecture of generated requests ("4v" or "6v")`)
	fs.IntVar(&cfg.n, "n", 12, "module count N of generated requests (bigger = costlier cold solves)")
	fs.Int64Var(&cfg.seed, "seed", 424242, "mix RNG seed")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request client timeout")
	fs.StringVar(&cfg.out, "o", "", "write the JSON report here")
	fs.DurationVar(&cfg.maxP99, "max-p99", 0, "gate: fail when overall p99 exceeds this (0 = off)")
	fs.Float64Var(&cfg.maxErrorRate, "max-error-rate", -1, "gate: fail when error rate exceeds this (negative = off)")
	fs.Float64Var(&cfg.minHitRate, "min-hit-rate", -1, "gate: fail when cache hit rate falls below this (negative = off)")
	fs.Float64Var(&cfg.minSpeedup, "min-p50-speedup", 0, "gate: fail when miss-p50/hit-p50 falls below this (0 = off)")
	fs.Float64Var(&cfg.sloAvailability, "slo-availability", 0, "SLO gate: fail when the availability error budget burns at >= 1x (e.g. 0.999; 0 = off)")
	fs.DurationVar(&cfg.sloP99, "slo-p99", 0, "SLO gate: fail when more than 1% of requests exceed this latency (0 = off)")
	fs.Float64Var(&cfg.shadowRate, "shadow-rate", 0, "self-serve only: shadow-verify this fraction of solves on an independent solver path")
	fs.StringVar(&cfg.flightOut, "flight-out", "", "self-serve only: dump the compute and shadow records (JSON, /debug/flight shape) here for nvrel audit")
	fs.IntVar(&cfg.minShadowSampled, "min-shadow-sampled", 0, "gate: fail when fewer solves were shadow-sampled (0 = off)")
	fs.IntVar(&cfg.maxShadowDiverge, "max-shadow-diverge", -1, "gate: fail when shadow divergences exceed this (negative = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repeat, neighbor, _, err := parseMix(cfg.mix)
	if err != nil {
		return err
	}
	if cfg.concurrency < 1 {
		cfg.concurrency = 1
	}

	var srv *server
	if cfg.selfServe {
		if cfg.url != "" {
			return fmt.Errorf("loadgen: -url and -self-serve are mutually exclusive")
		}
		stopServe, url, s, err := startSelfServe(cfg, out)
		if err != nil {
			return err
		}
		defer stopServe()
		cfg.url = url
		srv = s
	} else if cfg.shadowRate > 0 || cfg.flightOut != "" {
		return fmt.Errorf("loadgen: -shadow-rate and -flight-out need -self-serve (a remote daemon's shadowing is configured on its own serve command)")
	}
	if cfg.url == "" {
		return fmt.Errorf("loadgen: need -url (or -self-serve)")
	}
	cfg.url = strings.TrimSuffix(cfg.url, "/")

	fmt.Fprintf(out, "nvrel loadgen: %d workers, %v, mix %s against %s\n",
		cfg.concurrency, cfg.duration, cfg.mix, cfg.url)

	samples, elapsed := runLoadgen(&cfg, repeat, neighbor)
	if len(samples) == 0 {
		return fmt.Errorf("loadgen: no requests completed — is the daemon up at %s?", cfg.url)
	}
	report := buildReport(&cfg, samples, elapsed)
	if srv != nil && srv.shadow != nil {
		// Drain pending verifications so the report judges every
		// sampled solve, then snapshot the verdict counts.
		srv.shadow.Flush()
		st := srv.shadow.Stats()
		report.Shadow = &st
	}
	if cfg.flightOut != "" {
		data, err := json.MarshalIndent(newFlightDoc(srv.shadow), "", "  ")
		if err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		if err := os.WriteFile(cfg.flightOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		fmt.Fprintf(out, "loadgen flight dump written to %s\n", cfg.flightOut)
	}
	writeLoadgenSummary(out, report)
	if cfg.out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		fmt.Fprintf(out, "loadgen report written to %s\n", cfg.out)
	}
	return checkGates(&cfg, report)
}

// startSelfServe boots a private daemon on an ephemeral loopback port so
// one command can both serve and drive — the check.sh gate uses this to
// avoid shell-level process orchestration.
func startSelfServe(cfg loadgenConfig, out io.Writer) (stop func(), url string, srv *server, err error) {
	obs.Enable()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("loadgen: self-serve listen: %w", err)
	}
	s := newServer(serveConfig{
		maxConcurrent: cfg.concurrency,
		solveTimeout:  cfg.timeout,
		cacheSize:     defaultCacheSize,
		shadowRate:    cfg.shadowRate,
	})
	hs := &http.Server{Handler: s.handler()}
	go hs.Serve(ln)
	s.warmUp(io.Discard)
	url = "http://" + ln.Addr().String()
	fmt.Fprintf(out, "nvrel loadgen: self-serve daemon at %s\n", url)
	return func() {
		hs.Close()
		s.shadow.Close()
	}, url, s, nil
}

// runLoadgen drives the closed loop and returns every completed sample
// plus the wall-clock the run actually took. The deadline stops NEW
// requests; in-flight ones are allowed to finish (bounded by the client
// timeout) rather than being cut off and miscounted as errors.
func runLoadgen(cfg *loadgenConfig, repeat, neighbor float64) ([]lgSample, time.Duration) {
	start := time.Now()
	deadline := start.Add(cfg.duration)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Optional open-loop pacing: a token channel filled at the target rate.
	// Workers block for a token before firing; with -rps 0 the channel is
	// nil and receives never block (closed-loop).
	var pace chan struct{}
	if cfg.rps > 0 {
		pace = make(chan struct{}, cfg.concurrency)
		interval := time.Duration(float64(time.Second) / cfg.rps)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					select {
					case pace <- struct{}{}:
					default: // generator saturated; drop the token
					}
				}
			}
		}()
	}

	client := &http.Client{Timeout: cfg.timeout}
	perWorker := make([][]lgSample, cfg.concurrency)
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						return
					}
				}
				class, body := lgRequestFor(rng, cfg, repeat, neighbor)
				perWorker[w] = append(perWorker[w], lgFire(ctx, client, cfg.url, class, body))
			}
		}(w)
	}
	wg.Wait()

	var samples []lgSample
	for _, s := range perWorker {
		samples = append(samples, s...)
	}
	return samples, time.Since(start)
}

// lgFire sends one request and classifies the outcome.
func lgFire(ctx context.Context, client *http.Client, url, class string, body []byte) lgSample {
	t0 := time.Now()
	sample := lgSample{class: class}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		sample.seconds = time.Since(t0).Seconds()
		return sample
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		sample.seconds = time.Since(t0).Seconds()
		return sample
	}
	var sr struct {
		Cache string `json:"cache"`
	}
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	sample.seconds = time.Since(t0).Seconds()
	sample.status = resp.StatusCode
	sample.cache = sr.Cache
	return sample
}

func buildReport(cfg *loadgenConfig, samples []lgSample, elapsed time.Duration) *lgReport {
	report := &lgReport{
		Manifest:        obs.NewManifest(),
		URL:             cfg.url,
		DurationSeconds: elapsed.Seconds(),
		Concurrency:     cfg.concurrency,
		TargetRPS:       cfg.rps,
		Mix:             cfg.mix,
		Seed:            cfg.seed,
		TotalRequests:   len(samples),
		CacheStatus:     map[string]int{},
		ClassCounts:     map[string]int{},
	}
	report.Manifest.Command = "loadgen"
	var all, hit, miss []float64
	for _, s := range samples {
		all = append(all, s.seconds)
		report.ClassCounts[s.class]++
		if s.status != http.StatusOK {
			report.Errors++
			continue
		}
		report.CacheStatus[s.cache]++
		switch s.cache {
		case "hit":
			hit = append(hit, s.seconds)
		case "miss":
			miss = append(miss, s.seconds)
		}
	}
	report.ErrorRate = float64(report.Errors) / float64(len(samples))
	report.AchievedRPS = float64(len(samples)) / elapsed.Seconds()
	report.Latency = summarizeLatency(all)
	report.HitLatency = summarizeLatency(hit)
	report.MissLatency = summarizeLatency(miss)
	ok := len(samples) - report.Errors
	if ok > 0 {
		report.CacheHitRate = float64(report.CacheStatus["hit"]) / float64(ok)
	}
	if report.HitLatency.P50 > 0 && report.MissLatency.P50 > 0 {
		report.HitSpeedupP50 = report.MissLatency.P50 / report.HitLatency.P50
	}
	if cfg.sloAvailability > 0 || cfg.sloP99 > 0 {
		report.SLO = buildSLO(cfg, report, samples)
	}
	return report
}

// buildSLO scores the run against the configured SLO gates. Objectives
// are clamped just below 1 so the budget never divides by zero.
func buildSLO(cfg *loadgenConfig, r *lgReport, samples []lgSample) *lgSLO {
	slo := &lgSLO{}
	if obj := cfg.sloAvailability; obj > 0 {
		if obj >= 1 {
			obj = 0.9999999
		}
		slo.AvailabilityObjective = obj
		slo.AvailabilityBurnRate = r.ErrorRate / (1 - obj)
	}
	if cfg.sloP99 > 0 {
		slo.LatencyObjectiveSeconds = cfg.sloP99.Seconds()
		var slow int
		for _, s := range samples {
			if s.seconds > slo.LatencyObjectiveSeconds {
				slow++
			}
		}
		slo.SlowFraction = float64(slow) / float64(len(samples))
		slo.LatencyBurnRate = slo.SlowFraction / 0.01 // p99 => a 1% budget
	}
	return slo
}

func writeLoadgenSummary(out io.Writer, r *lgReport) {
	fmt.Fprintf(out, "loadgen: %d requests in %.1fs = %.1f req/s, %d errors (%.2f%%)\n",
		r.TotalRequests, r.DurationSeconds, r.AchievedRPS, r.Errors, 100*r.ErrorRate)
	fmt.Fprintf(out, "  latency  p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		1000*r.Latency.P50, 1000*r.Latency.P95, 1000*r.Latency.P99, 1000*r.Latency.Max)
	fmt.Fprintf(out, "  cache    hit %d  miss %d  coalesced %d  (hit rate %.1f%%)\n",
		r.CacheStatus["hit"], r.CacheStatus["miss"], r.CacheStatus["coalesced"], 100*r.CacheHitRate)
	if r.HitLatency.Count > 0 && r.MissLatency.Count > 0 {
		fmt.Fprintf(out, "  hit p50 %.3fms vs miss p50 %.3fms = %.1fx speedup\n",
			1000*r.HitLatency.P50, 1000*r.MissLatency.P50, r.HitSpeedupP50)
	}
	if r.SLO != nil {
		fmt.Fprintf(out, "  slo      availability burn %.2fx  latency burn %.2fx\n",
			r.SLO.AvailabilityBurnRate, r.SLO.LatencyBurnRate)
	}
	if r.Shadow != nil {
		fmt.Fprintf(out, "  shadow   sampled %d  agree %d  diverge %d  skipped %d  errors %d\n",
			r.Shadow.Sampled, r.Shadow.Agree, r.Shadow.Diverge, r.Shadow.Skipped, r.Shadow.Errors)
	}
}

// checkGates turns threshold violations into a non-zero exit.
func checkGates(cfg *loadgenConfig, r *lgReport) error {
	var failures []string
	if cfg.maxP99 > 0 && r.Latency.P99 > cfg.maxP99.Seconds() {
		failures = append(failures, fmt.Sprintf("p99 %.3fs exceeds -max-p99 %v", r.Latency.P99, cfg.maxP99))
	}
	if cfg.maxErrorRate >= 0 && r.ErrorRate > cfg.maxErrorRate {
		failures = append(failures, fmt.Sprintf("error rate %.4f exceeds -max-error-rate %.4f", r.ErrorRate, cfg.maxErrorRate))
	}
	if cfg.minHitRate >= 0 && r.CacheHitRate < cfg.minHitRate {
		failures = append(failures, fmt.Sprintf("cache hit rate %.4f below -min-hit-rate %.4f", r.CacheHitRate, cfg.minHitRate))
	}
	if cfg.minSpeedup > 0 {
		if r.HitSpeedupP50 == 0 {
			failures = append(failures, "no hit/miss latency split to judge -min-p50-speedup")
		} else if r.HitSpeedupP50 < cfg.minSpeedup {
			failures = append(failures, fmt.Sprintf("hit p50 speedup %.1fx below -min-p50-speedup %.1fx", r.HitSpeedupP50, cfg.minSpeedup))
		}
	}
	if r.SLO != nil {
		if cfg.sloAvailability > 0 && r.SLO.AvailabilityBurnRate >= 1 {
			failures = append(failures, fmt.Sprintf("availability error budget exhausted: burn %.2fx against objective %v",
				r.SLO.AvailabilityBurnRate, cfg.sloAvailability))
		}
		if cfg.sloP99 > 0 && r.SLO.LatencyBurnRate >= 1 {
			failures = append(failures, fmt.Sprintf("latency error budget exhausted: %.2f%% of requests over -slo-p99 %v (burn %.2fx)",
				100*r.SLO.SlowFraction, cfg.sloP99, r.SLO.LatencyBurnRate))
		}
	}
	if cfg.minShadowSampled > 0 {
		if r.Shadow == nil {
			failures = append(failures, "no shadow stats to judge -min-shadow-sampled (need -self-serve -shadow-rate)")
		} else if r.Shadow.Sampled < int64(cfg.minShadowSampled) {
			failures = append(failures, fmt.Sprintf("shadow sampled %d below -min-shadow-sampled %d", r.Shadow.Sampled, cfg.minShadowSampled))
		}
	}
	if cfg.maxShadowDiverge >= 0 && r.Shadow != nil && r.Shadow.Diverge > int64(cfg.maxShadowDiverge) {
		failures = append(failures, fmt.Sprintf("shadow divergences %d exceed -max-shadow-diverge %d", r.Shadow.Diverge, cfg.maxShadowDiverge))
	}
	if len(failures) > 0 {
		return fmt.Errorf("loadgen gate: %s", strings.Join(failures, "; "))
	}
	return nil
}
