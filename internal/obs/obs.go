// Package obs is the solver-aware observability layer: a stdlib-only
// metrics registry of atomic counters, gauges and bounded histograms,
// plus a span tracer (trace.go) and a request-event ring (events.go), that
// the hot solver packages (linalg, petri, mrgp, parallel, nvp, des,
// percept) report into. Latencies are histograms of seconds.
//
// The design contract is zero overhead when disabled: instrumentation is
// off by default, every metric operation short-circuits on one atomic
// load, and neither the disabled nor the enabled path allocates — the
// update paths are pure atomics — so instrumented kernels keep their
// AllocsPerRun == 0 guarantees (see BenchmarkObsDisabledNoAlloc and
// BenchmarkObsEnabledNoAlloc).
//
// Metric handles are package-level: resolve them once in a var block
// (CounterFor et al. intern by name) and call the methods from hot loops.
// All handles and the registry are safe for concurrent use; a nil handle
// is valid and inert, so tests can zero-value structs freely.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates every metric update. It is process-global: the CLI flips
// it when -metrics or bench asks for a snapshot, and benchmarks flip it to
// measure both paths.
var enabled atomic.Bool

// Enable turns metric collection on and reports the previous state.
func Enable() bool { return enabled.Swap(true) }

// Disable turns metric collection off and reports the previous state.
func Disable() bool { return enabled.Swap(false) }

// SetEnabled restores a state previously returned by Enable or Disable.
func SetEnabled(on bool) {
	enabled.Store(on)
}

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// registry interns metrics by name so every CounterFor("x") call across
// packages shares one cell. Registration happens in package var blocks
// (cold); updates never touch the registry.
type registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

var def = &registry{
	counters:   make(map[string]*Counter),
	gauges:     make(map[string]*Gauge),
	histograms: make(map[string]*Histogram),
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// CounterFor returns the counter registered under name, creating it on
// first use.
func CounterFor(name string) *Counter {
	def.mu.Lock()
	defer def.mu.Unlock()
	c, ok := def.counters[name]
	if !ok {
		c = &Counter{name: name}
		def.counters[name] = c
	}
	return c
}

// Add increments the counter by n. A no-op when collection is disabled or
// the receiver is nil.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 holding the most recent observation of some
// level (a residual, a utilization, a tail mass).
type Gauge struct {
	name string
	bits atomic.Uint64
}

// GaugeFor returns the gauge registered under name, creating it on first
// use.
func GaugeFor(name string) *Gauge {
	def.mu.Lock()
	defer def.mu.Unlock()
	g, ok := def.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		def.gauges[name] = g
	}
	return g
}

// Set records v. A no-op when collection is disabled or the receiver is
// nil.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (zero before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bounded histogram with fixed upper-bound buckets plus an
// implicit overflow bucket. Bucket counts, the total count, and the sum
// are all atomics, so Observe is lock-free and allocation-free.
type Histogram struct {
	name    string
	bounds  []float64 // sorted inclusive upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// HistogramFor returns the histogram registered under name, creating it
// with the given sorted inclusive upper bounds on first use (later calls
// ignore bounds). An empty bounds slice yields a count/sum-only summary.
// Bounds must be finite-or-+Inf-free of NaN and strictly increasing;
// violating that is a programmer error and panics with the offending
// name, because a malformed bucket layout silently misroutes every
// observation for the life of the process.
func HistogramFor(name string, bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram %q bound %d is NaN", name, i))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing at %d (%g after %g)", name, i, b, bounds[i-1]))
		}
	}
	def.mu.Lock()
	defer def.mu.Unlock()
	h, ok := def.histograms[name]
	if !ok {
		h = &Histogram{
			name:    name,
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		def.histograms[name] = h
	}
	return h
}

// Observe records v into its bucket. A no-op when collection is disabled
// or the receiver is nil.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Reset zeroes every registered metric (counts, gauges, histograms). Registration survives; handles stay valid. Meant for bench
// harnesses that want per-run snapshots, not for concurrent use with
// active updates.
func Reset() {
	def.mu.Lock()
	defer def.mu.Unlock()
	for _, c := range def.counters {
		c.v.Store(0)
	}
	for _, g := range def.gauges {
		g.bits.Store(0)
	}
	for _, h := range def.histograms {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
	}
}
