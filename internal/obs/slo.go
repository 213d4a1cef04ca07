package obs

import (
	"sync"
	"time"
)

// SLOConfig declares the service-level objectives a tracker scores
// against. Zero fields take the defaults below, so a zero SLOConfig is
// usable as-is.
type SLOConfig struct {
	// Window is the rolling evaluation window (default 5m).
	Window time.Duration
	// Slices is how many time slices the window is divided into
	// (default 30); expiry granularity is Window/Slices.
	Slices int
	// Availability is the fraction of requests that must succeed
	// (default 0.999). Values >= 1 are clamped just below 1 so the
	// error budget never divides by zero.
	Availability float64
	// LatencyP is the latency objective's quantile (default 0.99), and
	// Latency the duration that quantile must stay under (default 1s).
	LatencyP float64
	Latency  time.Duration
}

const (
	defaultSLOWindow       = 5 * time.Minute
	defaultSLOSlices       = 30
	defaultSLOAvailability = 0.999
	defaultSLOLatencyP     = 0.99
	defaultSLOLatency      = time.Second
	// maxSLOObjective caps objectives so 1-objective (the budget) stays
	// positive and burn rates stay finite/JSON-encodable.
	maxSLOObjective = 0.9999999
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = defaultSLOWindow
	}
	if c.Slices <= 0 {
		c.Slices = defaultSLOSlices
	}
	if c.Availability <= 0 {
		c.Availability = defaultSLOAvailability
	}
	if c.Availability > maxSLOObjective {
		c.Availability = maxSLOObjective
	}
	if c.LatencyP <= 0 {
		c.LatencyP = defaultSLOLatencyP
	}
	if c.LatencyP > maxSLOObjective {
		c.LatencyP = maxSLOObjective
	}
	if c.Latency <= 0 {
		c.Latency = defaultSLOLatency
	}
	return c
}

// SLOTracker scores requests against rolling-window availability and
// latency objectives. The window is a fixed array of time slices, each
// holding request, error and slow-request counts, the largest latency,
// and the same log2-ns latency histogram the Timing metrics use — so a
// tracker is a few KB, never allocates per request, and reports exact
// windowed counts rather than decayed estimates. The latency threshold is
// known at construction, so requests slower than it are counted exactly;
// the histogram only feeds the reported quantile.
type SLOTracker struct {
	cfg    SLOConfig
	sliceD time.Duration
	now    func() time.Time // injectable for tests

	mu     sync.Mutex
	slices []sloSlice
}

type sloSlice struct {
	epoch  int64 // sliceD-granular time; stale slices are re-zeroed lazily
	total  int64
	errors int64
	slow   int64 // requests slower than cfg.Latency
	maxNS  int64 // largest latency recorded in the slice
	lat    [latencyBuckets]int64
}

// NewSLOTracker builds a tracker for the given objectives (zero fields
// take defaults).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	return &SLOTracker{
		cfg:    cfg,
		sliceD: cfg.Window / time.Duration(cfg.Slices),
		now:    time.Now,
		slices: make([]sloSlice, cfg.Slices),
	}
}

// Record folds one request into the current window slice. failed marks
// an availability violation (server error / shed load); latency is
// scored separately against the objective. Nil-safe.
func (t *SLOTracker) Record(d time.Duration, failed bool) {
	if t == nil {
		return
	}
	epoch := t.now().UnixNano() / int64(t.sliceD)
	t.mu.Lock()
	s := &t.slices[epoch%int64(len(t.slices))]
	if s.epoch != epoch {
		*s = sloSlice{epoch: epoch}
	}
	s.total++
	if failed {
		s.errors++
	}
	if d > t.cfg.Latency {
		s.slow++
	}
	s.maxNS = max(s.maxNS, int64(d))
	s.lat[latencyBucket(int64(d))]++
	t.mu.Unlock()
}

// SLOReport is the scored state of the window, shaped for /slo. Burn
// rates are the classic error-budget ratio: observed bad fraction over
// allowed bad fraction. 1.0 means the budget is being spent exactly as
// fast as it accrues; above 1 the objective will be violated if the
// window's behaviour persists.
type SLOReport struct {
	WindowSeconds float64 `json:"window_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`

	Availability          float64 `json:"availability"`
	AvailabilityObjective float64 `json:"availability_objective"`
	ErrorBudget           float64 `json:"error_budget"`
	AvailabilityBurnRate  float64 `json:"availability_burn_rate"`

	LatencyObjectiveSeconds float64 `json:"latency_objective_seconds"`
	LatencyQuantile         float64 `json:"latency_quantile"`
	QuantileSeconds         float64 `json:"quantile_seconds"`
	SlowFraction            float64 `json:"slow_fraction"`
	LatencyBurnRate         float64 `json:"latency_burn_rate"`

	Healthy bool `json:"healthy"`
}

// Report scores the current window. An empty window is healthy: with no
// requests there is no evidence of violation. Nil-safe (returns the
// zero report with Healthy=true).
func (t *SLOTracker) Report() SLOReport {
	rep := SLOReport{Healthy: true}
	if t == nil {
		return rep
	}
	rep.WindowSeconds = t.cfg.Window.Seconds()
	rep.AvailabilityObjective = t.cfg.Availability
	rep.ErrorBudget = 1 - t.cfg.Availability
	rep.LatencyObjectiveSeconds = t.cfg.Latency.Seconds()
	rep.LatencyQuantile = t.cfg.LatencyP

	nowEpoch := t.now().UnixNano() / int64(t.sliceD)
	oldest := nowEpoch - int64(len(t.slices)) + 1
	var (
		lat         [latencyBuckets]int64
		slow, maxNS int64
	)
	t.mu.Lock()
	for i := range t.slices {
		s := &t.slices[i]
		if s.epoch < oldest || s.epoch > nowEpoch {
			continue
		}
		rep.Requests += s.total
		rep.Errors += s.errors
		slow += s.slow
		maxNS = max(maxNS, s.maxNS)
		for b, c := range s.lat {
			lat[b] += c
		}
	}
	t.mu.Unlock()

	rep.Availability = 1
	if rep.Requests == 0 {
		return rep
	}
	rep.Availability = 1 - float64(rep.Errors)/float64(rep.Requests)
	rep.AvailabilityBurnRate = (1 - rep.Availability) / rep.ErrorBudget

	rep.QuantileSeconds = log2Quantile(&lat, rep.Requests, t.cfg.LatencyP, float64(maxNS)) / 1e9
	rep.SlowFraction = float64(slow) / float64(rep.Requests)
	rep.LatencyBurnRate = rep.SlowFraction / (1 - t.cfg.LatencyP)
	rep.Healthy = rep.AvailabilityBurnRate < 1 && rep.LatencyBurnRate < 1
	return rep
}
