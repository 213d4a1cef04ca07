package des

import (
	"errors"
	"fmt"
	"math"
)

// ErrTimeTravel is returned when an event is scheduled in the past.
var ErrTimeTravel = errors.New("des: cannot schedule event in the past")

// NonFiniteError reports a simulated time that is NaN or infinite, such as
// a horizon the clock could never reach.
type NonFiniteError struct {
	Name  string // what the time is, e.g. "horizon"
	Value float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("%s = %g must be finite", e.Name, e.Value)
}

// CheckFinite returns a *NonFiniteError naming v when v is NaN or
// infinite, and nil otherwise.
func CheckFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return &NonFiniteError{Name: name, Value: v}
	}
	return nil
}

// Action is invoked when its event fires.
type Action func()

// Handle is a timer slot in a simulation's future-event list. Schedule
// returns a fresh handle per event. A caller that re-arms the same timer
// again and again instead owns one Handle value (the zero value is ready)
// and passes it to Rearm, which reuses the slot without allocating. A
// handle is pending from the moment it is armed until it fires or is
// canceled; only pending handles occupy the heap.
type Handle struct {
	time     float64
	seq      uint64
	action   Action
	sim      *Simulation // owning simulation while pending, nil otherwise
	index    int         // heap position while pending
	canceled bool
}

// Cancel removes a pending event from its simulation's heap so it never
// fires. Canceling a fired, canceled, never-armed or nil handle is a no-op.
func (h *Handle) Cancel() {
	if h == nil || h.sim == nil {
		return
	}
	h.sim.events.remove(h.index)
	h.sim = nil
	h.canceled = true
}

// Canceled reports whether the event was canceled while pending (and has
// not been re-armed since).
func (h *Handle) Canceled() bool { return h != nil && h.canceled }

// Time returns the scheduled firing time.
func (h *Handle) Time() float64 { return h.time }

// Simulation is a future-event-list simulator. The zero value is ready to
// use and starts at time zero.
type Simulation struct {
	now    float64
	events eventHeap
	seq    uint64
	fired  uint64
}

// Now returns the current simulation time.
func (s *Simulation) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Pending returns the number of live scheduled events. Canceled events
// leave the heap immediately and are not counted.
func (s *Simulation) Pending() int { return len(s.events) }

// Schedule enqueues action to fire after delay in a freshly allocated
// handle. Ties are broken in scheduling order, which keeps runs
// deterministic.
func (s *Simulation) Schedule(delay float64, action Action) (*Handle, error) {
	h := new(Handle)
	if err := s.Rearm(h, delay, action); err != nil {
		return nil, err
	}
	return h, nil
}

// Rearm arms the caller-owned handle h to fire action after delay. A
// pending h is canceled first; a fired or canceled h becomes live again.
// Like Schedule, it takes the next scheduling sequence number, so a re-armed
// event ties after every event armed before it. On error h is left as it
// was.
func (s *Simulation) Rearm(h *Handle, delay float64, action Action) error {
	if delay < 0 || math.IsNaN(delay) {
		return ErrTimeTravel
	}
	if action == nil {
		return errors.New("des: nil action")
	}
	if h.sim != s {
		h.Cancel()
	}
	h.time, h.seq, h.action, h.canceled = s.now+delay, s.seq, action, false
	s.seq++
	if h.sim == s {
		// Still pending here: re-key in place instead of remove + push.
		s.events.fix(h.index)
		return nil
	}
	h.sim = s
	s.events.push(h)
	return nil
}

// Reset cancels every pending event and rewinds s to the zero value's
// state (time zero, no events fired, sequence numbers from zero), keeping
// the event list's storage: a reset simulation runs exactly as a fresh
// one, without growing a new list.
func (s *Simulation) Reset() {
	for _, h := range s.events {
		h.sim, h.canceled = nil, true
	}
	clear(s.events)
	*s = Simulation{events: s.events[:0]}
}

// Step fires the next pending event, returning false when none remain.
func (s *Simulation) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	h := s.events.pop()
	h.sim = nil
	s.now = h.time
	s.fired++
	metEvents.Inc()
	h.action()
	return true
}

// RunUntil fires events in order until the clock reaches horizon or no
// events remain. Events scheduled exactly at the horizon still fire; the
// clock never exceeds the horizon. A NaN or infinite horizon is refused
// with a *NonFiniteError before any event fires: a run towards it would
// never end while events keep re-arming.
func (s *Simulation) RunUntil(horizon float64) error {
	if err := CheckFinite("horizon", horizon); err != nil {
		return fmt.Errorf("des: %w", err)
	}
	for len(s.events) > 0 {
		if s.events[0].time > horizon {
			s.now = horizon
			return nil
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// eventHeap is a binary min-heap of pending events ordered by (time, seq).
// seq is unique, so the order is strict and total: the pop sequence depends
// only on the live events, never on the heap's layout, which is why
// removing a canceled event early cannot reorder the others. Every handle
// records its own index so Cancel and Rearm reach it in O(log n).
type eventHeap []*Handle

// before reports whether a fires ahead of b.
func before(a, b *Handle) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts e, sifting it up from the last leaf.
func (h *eventHeap) push(e *Handle) {
	*h = append(*h, e)
	h.up(len(*h)-1, e)
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() *Handle {
	top := (*h)[0]
	h.remove(0)
	return top
}

// remove deletes the event at index i. The last leaf moves into the hole
// and sifts whichever way restores the order.
func (h *eventHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i == n {
		return
	}
	s[i] = last
	h.fix(i)
}

// fix restores the heap order after the key at index i changed.
func (h *eventHeap) fix(i int) {
	e := (*h)[i]
	if i > 0 && before(e, (*h)[(i-1)/2]) {
		h.up(i, e)
	} else {
		h.down(i, e)
	}
}

// up places e, whose slot is i, by moving ancestors down until its parent
// fires ahead of it.
func (h *eventHeap) up(i int, e *Handle) {
	s := *h
	for i > 0 {
		parent := (i - 1) / 2
		if !before(e, s[parent]) {
			break
		}
		s[i] = s[parent]
		s[i].index = i
		i = parent
	}
	s[i] = e
	e.index = i
}

// down places e, whose slot is i, by moving the earlier child up until
// both children fire after it.
func (h *eventHeap) down(i int, e *Handle) {
	s := *h
	n := len(s)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(s[r], s[c]) {
			c = r
		}
		if !before(s[c], e) {
			break
		}
		s[i] = s[c]
		s[i].index = i
		i = c
	}
	s[i] = e
	e.index = i
}
