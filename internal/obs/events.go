package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is the one structured record of the serving stack. Three
// producers append it, and none mutates a record once written:
//
//   - "solve" | "batch": one per request — how it was served (cache hit,
//     miss, or coalesced wait), its HTTP status and latency;
//   - "compute": one per primary solve — the solver's diagnostics
//     (states, path, iterations, accepted residual, fallback);
//   - "shadow": one per shadow verdict — agree, diverge, skipped or
//     error, with the rung and the measured disagreement.
//
// Records of one parameter point share params_key_hash, and records of
// one request share trace_id, so the three join without a second schema.
// Field names are stable JSON contract for /events consumers.
type Event struct {
	Time           time.Time `json:"time"`
	Method         string    `json:"method"`                    // solve | batch | compute | shadow
	Source         string    `json:"source,omitempty"`          // compute/shadow: serve | sweep | chaos
	Arch           string    `json:"arch,omitempty"`            // compute/shadow: 4v | 6v
	Key            string    `json:"params_key_hash,omitempty"` // FNV-64a of the cache key
	Cache          string    `json:"cache,omitempty"`           // hit | miss | coalesced
	Status         int       `json:"status,omitempty"`          // HTTP status (requests)
	LatencySeconds float64   `json:"latency_seconds"`           // request, solve or shadow time
	States         int       `json:"states,omitempty"`
	Solver         string    `json:"solver,omitempty"`     // ctmc | mrgp | mrgp-general
	Path           string    `json:"solve_path,omitempty"` // SolveDiag path (sparse/dense/...)
	GSSweeps       int       `json:"gs_sweeps,omitempty"`
	PowerIters     int       `json:"power_iters,omitempty"`
	Residual       float64   `json:"residual,omitempty"` // accepted GS residual
	Seeded         bool      `json:"seeded,omitempty"`   // warm-start provenance
	Fallback       string    `json:"fallback,omitempty"` // why the first rung failed
	Verdict        string    `json:"verdict,omitempty"`  // shadow: agree | diverge | skipped | error
	Rung           string    `json:"rung,omitempty"`     // shadow: the independent rung
	PiDelta        float64   `json:"pi_delta,omitempty"` // shadow: L-inf |dpi|
	RelDelta       float64   `json:"rel_delta,omitempty"`
	TraceID        string    `json:"trace_id,omitempty"` // hex, correlates with /traces
	Items          int       `json:"items,omitempty"`    // batch size (method=batch)
	Error          string    `json:"error,omitempty"`
}

// eventRing is a bounded MPMC ring with the same slot-claim discipline
// as the trace ring: writers claim a slot with one atomic add and hold
// only that slot's mutex while copying the event in, so concurrent
// requests never contend on a shared lock. Oldest events are
// overwritten once the ring wraps.
type eventRing struct {
	enabled atomic.Bool
	head    atomic.Uint64
	// readSeq is the highest claim number any snapshot has observed.
	// Overwriting a slot whose event carries a later seq means that
	// event was never read by anyone — counted as events.dropped so a
	// ring sized below the burst rate is visible in /metrics instead of
	// silently forgetting requests.
	readSeq atomic.Uint64
	slots   []eventSlot

	sinkMu sync.Mutex
	sink   io.Writer
	senc   *json.Encoder
}

// metEventsDropped counts ring overwrites of never-snapshotted events.
var metEventsDropped = CounterFor("events.dropped")

type eventSlot struct {
	mu  sync.Mutex
	seq uint64 // 1-based claim number; 0 = never written
	ev  Event
}

// DefaultEventCapacity is the size of the package-level event ring.
const DefaultEventCapacity = 2048

var defEvents atomic.Pointer[eventRing]

func init() {
	defEvents.Store(newEventRing(DefaultEventCapacity))
}

func newEventRing(capacity int) *eventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &eventRing{slots: make([]eventSlot, capacity)}
}

// EventsEnable turns event recording on, returning the previous
// state.
func EventsEnable() bool { return defEvents.Load().enabled.Swap(true) }

// EventsDisable turns event recording off, returning the
// previous state.
func EventsDisable() bool { return defEvents.Load().enabled.Swap(false) }

// SetEventsEnabled restores a previous enabled state.
func SetEventsEnabled(on bool) { defEvents.Load().enabled.Store(on) }

// SetEventCapacity replaces the ring with an empty one of the given
// capacity, preserving the enabled state and sink.
func SetEventCapacity(capacity int) {
	old := defEvents.Load()
	r := newEventRing(capacity)
	r.enabled.Store(old.enabled.Load())
	old.sinkMu.Lock()
	r.sink, r.senc = old.sink, old.senc
	old.sinkMu.Unlock()
	defEvents.Store(r)
}

// EventsReset drops all recorded events, keeping capacity, enabled
// state, and sink.
func EventsReset() { SetEventCapacity(len(defEvents.Load().slots)) }

// SetEventSink streams every recorded event to w as one JSON object per
// line, in addition to the in-memory ring. nil disables streaming.
// Writes are serialized under an internal mutex; sink errors are
// dropped (observability must not fail requests).
func SetEventSink(w io.Writer) {
	r := defEvents.Load()
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	r.sink = w
	if w == nil {
		r.senc = nil
	} else {
		r.senc = json.NewEncoder(w)
	}
}

// RecordEvent appends one event to the ring (and the sink, if
// set). No-op while disabled; the disabled path takes no locks and
// allocates nothing.
func RecordEvent(ev Event) {
	r := defEvents.Load()
	if !r.enabled.Load() {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	seq := r.head.Add(1)
	slot := &r.slots[(seq-1)%uint64(len(r.slots))]
	slot.mu.Lock()
	if old := slot.seq; old != 0 && old > r.readSeq.Load() {
		metEventsDropped.Inc()
	}
	slot.seq = seq
	slot.ev = ev
	slot.mu.Unlock()
	r.sinkMu.Lock()
	if r.senc != nil {
		_ = r.senc.Encode(ev) // best-effort; see SetEventSink
	}
	r.sinkMu.Unlock()
}

// EventsSnapshot returns a copy of the retained events ordered by time
// (claim order breaking ties), oldest first.
func EventsSnapshot() []Event {
	r := defEvents.Load()
	type seqEvent struct {
		seq uint64
		ev  Event
	}
	got := make([]seqEvent, 0, len(r.slots))
	var maxSeq uint64
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			got = append(got, seqEvent{s.seq, s.ev})
			if s.seq > maxSeq {
				maxSeq = s.seq
			}
		}
		s.mu.Unlock()
	}
	// Mark everything up to maxSeq as read (monotonic max; losing a CAS
	// race to a later snapshot is fine).
	for {
		cur := r.readSeq.Load()
		if maxSeq <= cur || r.readSeq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	sort.Slice(got, func(i, j int) bool {
		if !got[i].ev.Time.Equal(got[j].ev.Time) {
			return got[i].ev.Time.Before(got[j].ev.Time)
		}
		return got[i].seq < got[j].seq
	})
	out := make([]Event, len(got))
	for i, g := range got {
		out[i] = g.ev
	}
	return out
}
