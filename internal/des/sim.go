package des

import (
	"errors"
	"math"
)

// ErrTimeTravel is returned when an event is scheduled in the past.
var ErrTimeTravel = errors.New("des: cannot schedule event in the past")

// Action is invoked when its event fires.
type Action func()

// Handle refers to a scheduled event and allows cancellation.
type Handle struct {
	time     float64
	seq      uint64
	action   Action
	canceled bool
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (h *Handle) Cancel() {
	if h != nil {
		h.canceled = true
	}
}

// Canceled reports whether the event was canceled.
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

// Pending returns the number of scheduled (possibly canceled) events.
func (s *Simulation) Pending() int { return len(s.events) }

// Schedule enqueues action to fire after delay. Ties are broken in
// scheduling order, which keeps runs deterministic.
func (s *Simulation) Schedule(delay float64, action Action) (*Handle, error) {
	if delay < 0 || math.IsNaN(delay) {
		return nil, ErrTimeTravel
	}
	if action == nil {
		return nil, errors.New("des: nil action")
	}
	h := &Handle{time: s.now + delay, seq: s.seq, action: action}
	s.seq++
	s.events.push(h)
	return h, nil
}

// Step fires the next pending event, returning false when none remain.
func (s *Simulation) Step() bool {
	for len(s.events) > 0 {
		h := s.events.pop()
		if h.canceled {
			continue
		}
		s.now = h.time
		s.fired++
		metEvents.Inc()
		h.action()
		return true
	}
	return false
}

// RunUntil fires events in order until the clock reaches horizon or no
// events remain. Events scheduled exactly at the horizon still fire; the
// clock never exceeds the horizon.
func (s *Simulation) RunUntil(horizon float64) {
	for len(s.events) > 0 {
		next := s.peek()
		if next == nil {
			return
		}
		if next.time > horizon {
			s.now = horizon
			return
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// peek returns the next non-canceled event without firing it.
func (s *Simulation) peek() *Handle {
	for len(s.events) > 0 {
		h := s.events[0]
		if !h.canceled {
			return h
		}
		s.events.pop()
	}
	return nil
}

// eventHeap is a binary min-heap of events ordered by (time, seq). seq is
// unique, so the order is strict and total: the pop sequence depends only
// on the events, never on the heap's layout.
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
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(e, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// pop removes and returns the earliest event; the heap must be non-empty.
// The last leaf moves into the root's place and sifts down.
func (h *eventHeap) pop() *Handle {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(s[r], s[c]) {
				c = r
			}
			if !before(s[c], last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}
