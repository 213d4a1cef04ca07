package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the hierarchical tracing half of the observability layer:
// where the metric registry answers "how often and how long in aggregate",
// the tracer answers "where inside THIS solve did the time and the
// fallbacks go". Spans nest through a context.Context — StartSpan returns
// a child-aware span plus a derived context, so a solve that routes
// sparse, fails, and recovers on the dense rung leaves a
// solver -> rung -> kernel tree rather than three disconnected numbers.
//
// Completed spans land in a fixed-size lock-light ring buffer: End claims
// a slot with one atomic increment and takes only that slot's mutex, so
// concurrent solves never contend on a global lock. The ring is
// exportable as Chrome trace-event JSON (loadable in Perfetto and
// chrome://tracing) and as a compact per-solve summary.
//
// The contract matches the registry exactly: tracing is off by default,
// StartSpan short-circuits on one atomic load, and the disabled path
// performs zero allocations (BenchmarkTraceDisabledNoAlloc guards this in
// the check.sh no-alloc gate). The enabled path allocates one span per
// StartSpan, plus its attribute slice as attributes arrive — tracing is
// for daemons and diagnosis runs, not for the allocation-free kernel
// benchmarks.

// DefaultTraceCapacity is the span capacity of the default tracer's ring.
const DefaultTraceCapacity = 4096

// maxSpanAttrs bounds the typed attributes carried by one span; setters
// past the limit are dropped silently (the span itself still records).
const maxSpanAttrs = 8

// AttrKind discriminates the typed attribute payloads.
type AttrKind uint8

// Attribute kinds.
const (
	AttrInt AttrKind = iota + 1
	AttrFloat
	AttrStr
)

// Attr is one typed span attribute (N, states, nnz, solve path, sweep
// count, fallback rung, ...). Exactly one payload field is meaningful,
// selected by Kind.
type Attr struct {
	Key   string
	Kind  AttrKind
	Int   int64
	Float float64
	Str   string
}

// Value returns the attribute payload as an any, for JSON export. JSON
// has no encoding for infinities and NaN (a stalled kernel records a
// +Inf residual), so those export as their strconv form instead of
// failing the whole document.
func (a Attr) Value() any {
	switch a.Kind {
	case AttrInt:
		return a.Int
	case AttrFloat:
		if math.IsInf(a.Float, 0) || math.IsNaN(a.Float) {
			return strconv.FormatFloat(a.Float, 'g', -1, 64)
		}
		return a.Float
	default:
		return a.Str
	}
}

// SpanRecord is one completed span as copied out of the ring.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // zero for root spans
	Root   uint64 // ID of the outermost enclosing span (== ID for roots)
	Trace  uint64 // per-request trace ID
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// idRng is the process-global splitmix64 state behind trace IDs and the
// per-tracer span-ID bases. Seeded from crypto/rand at init (clock
// fallback), so trace IDs from different runs and processes do not
// collide with overwhelming probability.
var idRng atomic.Uint64

func seedIDRng() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idRng.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idRng.Store(uint64(time.Now().UnixNano()))
	}
}

// newID draws the next nonzero identifier from the process-global
// splitmix64 stream. Lock-free and allocation-free.
func newID() uint64 {
	for {
		x := idRng.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// ringSlot is one ring cell: the ended span itself (nil when empty) and
// its duration. Each slot has its own mutex so concurrent End calls only
// contend when the ring wraps onto a slot being read. Holding the span by
// pointer keeps an idle slot at three words instead of a full record.
type ringSlot struct {
	mu  sync.Mutex
	sp  *TraceSpan
	dur time.Duration
}

// Tracer records completed spans into a fixed-size ring. The zero value
// is not usable; call NewTracer. Most callers use the package-level
// default tracer via StartSpan/TraceEnable.
type Tracer struct {
	enabled atomic.Bool
	idBase  uint64 // random per-tracer offset; keeps span IDs process-unique
	ids     atomic.Uint64
	head    atomic.Uint64
	slots   []ringSlot
}

// NewTracer returns a disabled tracer with the given ring capacity. Span
// IDs are sequential above a random per-tracer base, so they stay
// monotone in claim order while differing between tracers.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{idBase: newID(), slots: make([]ringSlot, capacity)}
}

var defTracer *Tracer

func init() {
	seedIDRng()
	defTracer = NewTracer(DefaultTraceCapacity)
}

// TraceEnable turns span recording on for the default tracer and reports
// the previous state.
func TraceEnable() bool { return defTracer.enabled.Swap(true) }

// TraceDisable turns span recording off and reports the previous state.
func TraceDisable() bool { return defTracer.enabled.Swap(false) }

// SetTraceEnabled restores a state previously returned by TraceEnable or
// TraceDisable.
func SetTraceEnabled(on bool) { defTracer.enabled.Store(on) }

// TraceEnabled reports whether the default tracer is recording.
func TraceEnabled() bool { return defTracer.enabled.Load() }

// TraceReset marks every recorded span in the default tracer's ring as
// invalid. Registration state (enabled, capacity) survives.
func TraceReset() { defTracer.Reset() }

// Reset invalidates every recorded span.
func (t *Tracer) Reset() {
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		s.sp = nil
		s.mu.Unlock()
	}
}

// spanCtxKey carries the active span through a context.
type spanCtxKey struct{}

// SpanFromContext returns the span carried by ctx, or nil (which is a
// valid, inert span) when there is none.
func SpanFromContext(ctx context.Context) *TraceSpan {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return sp
}

// TraceSpan is an in-flight span. A nil *TraceSpan (returned whenever
// tracing is disabled) is valid and inert, so instrumentation sites never
// branch on the enabled state themselves.
type TraceSpan struct {
	tr     *Tracer
	id     uint64
	parent uint64
	root   uint64
	trace  uint64
	name   string
	start  time.Time
	attrs  []Attr // at most maxSpanAttrs
}

// StartSpan opens a span named name against the default tracer, nesting
// under the span carried by ctx (if any), and returns a derived context
// carrying the new span plus the span itself. When tracing is disabled it
// returns ctx unchanged and a nil span without reading the clock or
// allocating. A nil ctx is treated as context.Background().
func StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return defTracer.StartSpan(ctx, name)
}

// StartSpan opens a span against this tracer; see the package-level
// StartSpan.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sp := &TraceSpan{tr: t, id: t.idBase + t.ids.Add(1), name: name, start: time.Now()}
	if parent, ok := ctx.Value(spanCtxKey{}).(*TraceSpan); ok && parent != nil {
		sp.parent = parent.id
		sp.root = parent.root
		sp.trace = parent.trace
	} else {
		sp.root = sp.id
		sp.trace = newID()
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// ID returns the span's identifier (zero for the nil span).
func (s *TraceSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Root returns the identifier of the span's outermost local ancestor.
func (s *TraceSpan) Root() uint64 {
	if s == nil {
		return 0
	}
	return s.root
}

// TraceID returns the per-request trace identifier the span belongs to
// (zero for the nil span). Every span of one request shares it.
func (s *TraceSpan) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// FormatTraceID renders a trace (or span) ID as fixed-width hex; the
// zero ID renders as "" so disabled-tracing paths can omit the field.
func FormatTraceID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

func (s *TraceSpan) attr(a Attr) *TraceSpan {
	if s == nil || len(s.attrs) >= maxSpanAttrs {
		return s
	}
	s.attrs = append(s.attrs, a)
	return s
}

// Int attaches an integer attribute. Chainable; a no-op on the nil span.
func (s *TraceSpan) Int(key string, v int64) *TraceSpan {
	return s.attr(Attr{Key: key, Kind: AttrInt, Int: v})
}

// Float attaches a float attribute.
func (s *TraceSpan) Float(key string, v float64) *TraceSpan {
	return s.attr(Attr{Key: key, Kind: AttrFloat, Float: v})
}

// Str attaches a string attribute.
func (s *TraceSpan) Str(key, v string) *TraceSpan {
	return s.attr(Attr{Key: key, Kind: AttrStr, Str: v})
}

// Err attaches err.Error() under "error" when err is non-nil; a no-op
// otherwise, so unconditional deferred calls stay clean on success.
func (s *TraceSpan) Err(err error) *TraceSpan {
	if s == nil || err == nil {
		return s
	}
	return s.Str("error", err.Error())
}

// End closes the span and records it into the tracer's ring. Safe on the
// nil span. The span must not be used after End: the ring keeps it.
func (s *TraceSpan) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	t := s.tr
	if len(t.slots) == 0 {
		return
	}
	slot := &t.slots[(t.head.Add(1)-1)%uint64(len(t.slots))]
	slot.mu.Lock()
	slot.sp, slot.dur = s, dur
	slot.mu.Unlock()
}

// record copies an ended span out as a SpanRecord.
func (s *TraceSpan) record(dur time.Duration) SpanRecord {
	rec := SpanRecord{ID: s.id, Parent: s.parent, Root: s.root, Trace: s.trace, Name: s.name, Start: s.start, Dur: dur}
	if len(s.attrs) > 0 {
		rec.Attrs = append([]Attr(nil), s.attrs...)
	}
	return rec
}

// TraceSnapshot copies every recorded span out of the default tracer's
// ring, ordered by start time (ties by ID). The snapshot is not a
// consistent cut — spans ending during the copy may or may not appear —
// which trace exports never need.
func TraceSnapshot() []SpanRecord { return defTracer.Snapshot() }

// Snapshot copies every recorded span out of the ring; see TraceSnapshot.
func (t *Tracer) Snapshot() []SpanRecord { return t.collect(0) }

// CollectTrace returns the recorded spans belonging to one trace (all
// spans whose Trace ID matches), ordered by start time. Best-effort:
// spans evicted by ring wrap-around are absent.
func CollectTrace(trace uint64) []SpanRecord {
	if trace == 0 {
		return []SpanRecord{}
	}
	return defTracer.collect(trace)
}

// collect copies the spans of one trace (every span when trace is zero;
// recorded spans never carry trace ID zero) out of the ring, ordered by
// start time. The filter runs under each slot's lock, so a per-request
// collection copies only its own spans.
func (t *Tracer) collect(trace uint64) []SpanRecord {
	var out []SpanRecord
	if trace == 0 {
		out = make([]SpanRecord, 0, len(t.slots))
	} else {
		out = make([]SpanRecord, 0, 8)
	}
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if sp := s.sp; sp != nil && (trace == 0 || sp.trace == trace) {
			out = append(out, sp.record(s.dur))
		}
		s.mu.Unlock()
	}
	sortRecords(out)
	return out
}

// sortRecords orders spans by start time, ties by span ID.
func sortRecords(recs []SpanRecord) {
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Start.Equal(recs[j].Start) {
			return recs[i].Start.Before(recs[j].Start)
		}
		return recs[i].ID < recs[j].ID
	})
}

// traceEvent is one Chrome trace-event ("X" complete event). ts and dur
// are microseconds; tid groups every span of one trace onto one track, so
// Perfetto renders a solve as one nested flame.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON-object form of the trace-event format.
type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents encodes the default tracer's ring as Chrome
// trace-event JSON: one complete ("X") event per span in start-time
// order, timestamps in absolute microseconds since the Unix epoch, one
// track (tid) per trace ID, so every span of one request lands on one
// shared track, correctly interleaved. The output loads in Perfetto and
// chrome://tracing (both render relative to the earliest event).
func WriteTraceEvents(w io.Writer) error {
	return EncodeTraceEvents(w, TraceSnapshot())
}

// EncodeTraceEvents encodes an explicit span set as Chrome trace-event
// JSON; see WriteTraceEvents. Records are sorted by start time (ties by
// span ID) whatever order the caller supplies, so exports are stable and
// monotonically ordered.
func EncodeTraceEvents(w io.Writer, records []SpanRecord) error {
	sorted := append([]SpanRecord(nil), records...)
	sortRecords(sorted)
	doc := traceDoc{TraceEvents: make([]traceEvent, 0, len(sorted)), DisplayTimeUnit: "ms"}
	for _, r := range sorted {
		args := make(map[string]any, len(r.Attrs)+3)
		args["span_id"] = r.ID
		if r.Parent != 0 {
			args["parent_id"] = r.Parent
		}
		if r.Trace != 0 {
			args["trace_id"] = FormatTraceID(r.Trace)
		}
		for _, a := range r.Attrs {
			args[a.Key] = a.Value()
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: r.Name,
			Cat:  "solve",
			Ph:   "X",
			TS:   float64(r.Start.UnixNano()) / 1e3,
			Dur:  float64(r.Dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  r.Trace,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// SpanSummary is one row of the compact per-solve summary: the span, its
// parent's name, its depth below the root, and its typed attributes.
type SpanSummary struct {
	Name            string         `json:"name"`
	Parent          string         `json:"parent,omitempty"`
	Depth           int            `json:"depth"`
	DurationSeconds float64        `json:"duration_seconds"`
	Attrs           map[string]any `json:"attrs,omitempty"`
}

// SummarizeTrace flattens one trace's spans (as returned by CollectTrace)
// into depth-annotated rows in depth-first order: each root followed by
// its children by start time. Spans whose parent was evicted from the
// ring surface as roots of their own subtree rather than vanishing.
func SummarizeTrace(records []SpanRecord) []SpanSummary {
	byParent := make(map[uint64][]SpanRecord, len(records))
	byID := make(map[uint64]SpanRecord, len(records))
	for _, r := range records {
		byID[r.ID] = r
	}
	var roots []SpanRecord
	for _, r := range records {
		if r.Parent == 0 {
			roots = append(roots, r)
			continue
		}
		if _, ok := byID[r.Parent]; !ok {
			roots = append(roots, r) // orphaned by ring eviction
			continue
		}
		byParent[r.Parent] = append(byParent[r.Parent], r)
	}
	out := make([]SpanSummary, 0, len(records))
	var walk func(r SpanRecord, parent string, depth int)
	walk = func(r SpanRecord, parent string, depth int) {
		row := SpanSummary{Name: r.Name, Parent: parent, Depth: depth, DurationSeconds: r.Dur.Seconds()}
		if len(r.Attrs) > 0 {
			row.Attrs = make(map[string]any, len(r.Attrs))
			for _, a := range r.Attrs {
				row.Attrs[a.Key] = a.Value()
			}
		}
		out = append(out, row)
		for _, c := range byParent[r.ID] {
			walk(c, r.Name, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, "", 0)
	}
	return out
}
