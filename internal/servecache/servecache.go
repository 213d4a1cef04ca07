// Package servecache is the serving-scale layer under `nvrel serve`: a
// parameter-keyed solve-result cache with bounded LRU capacity, optional
// TTL expiry, and singleflight coalescing.
//
// The cache trades memory for solver time under the traffic shape the
// ROADMAP targets — millions of users asking identical and near-identical
// parameter questions. A hit returns a copy of the stored value without
// entering the solver at all; N identical in-flight misses cost exactly
// one solve (the first caller computes, the rest wait on its flight); and
// values are cloned on the way out, so a caller can never corrupt what a
// later caller reads.
//
// Correctness stance mirrors internal/warmstart: the cache key is the
// canonical rendering of the full normalized parameter signature, so two
// keys collide only when the solver inputs are bit-identical — a hit is
// the same float64 the solver produced for those exact parameters, never
// an approximation.
package servecache

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"
	"time"

	"nvrel/internal/obs"
)

// Cache-layer metrics, following the <package>.<area>.<event> convention.
// All updates are no-ops while obs is disabled.
var (
	metHit       = obs.CounterFor("servecache.hit")
	metMiss      = obs.CounterFor("servecache.miss")
	metEvict     = obs.CounterFor("servecache.evict")
	metExpire    = obs.CounterFor("servecache.expire")
	metCoalesced = obs.CounterFor("servecache.coalesced")
	metFill      = obs.CounterFor("servecache.fill")
)

// Status classifies how GetOrCompute satisfied a request.
type Status int

const (
	// StatusMiss means this caller was the flight leader and computed the
	// value (which is now cached for everyone after it).
	StatusMiss Status = iota
	// StatusHit means the value came straight from the cache: no solve, no
	// wait, just a clone of the stored result.
	StatusHit
	// StatusCoalesced means an identical request was already in flight and
	// this caller shared its result — N concurrent identical requests cost
	// one compute.
	StatusCoalesced
)

// String returns the status name used in responses and artifacts.
func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// flight is one in-progress compute that any number of identical requests
// may wait on. The leader closes done exactly once, after val/err are set.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type entry[V any] struct {
	key  string
	val  V
	when time.Time // fill time, for TTL expiry
}

// Cache is a bounded, TTL-expiring, singleflight-coalescing result cache,
// safe for concurrent use. The zero value is not usable; construct with
// New. A nil *Cache is inert: GetOrCompute always computes, so callers can
// thread an optional cache without nil checks.
type Cache[V any] struct {
	max   int
	ttl   time.Duration
	clone func(V) V
	now   func() time.Time

	mu      sync.Mutex
	lru     *list.List // of *entry[V]; front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight[V]
}

// New returns an empty cache holding at most max entries (max <= 0 means
// unbounded), expiring entries ttl after fill (ttl <= 0 means never), and
// cloning values through clone on every read so cached storage is never
// aliased by callers. A nil clone stores and returns values as-is — only
// safe for value types without reference fields.
func New[V any](max int, ttl time.Duration, clone func(V) V) *Cache[V] {
	if clone == nil {
		clone = func(v V) V { return v }
	}
	c := &Cache[V]{
		max:     max,
		ttl:     ttl,
		clone:   clone,
		now:     time.Now,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight[V]),
	}
	return c
}

// Get returns a clone of the cached value for key, if present and fresh.
// A stale entry is removed (counted as an expiry) and reported as a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	v, ok := c.getLocked(key)
	c.mu.Unlock()
	if !ok {
		metMiss.Inc()
		return zero, false
	}
	metHit.Inc()
	return v, true
}

// getLocked looks up key, expiring it if stale and promoting it to the
// LRU front otherwise. Callers hold the lock and count the hit/miss.
func (c *Cache[V]) getLocked(key string) (V, bool) {
	var zero V
	el, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	e := el.Value.(*entry[V])
	if c.ttl > 0 && c.now().Sub(e.when) > c.ttl {
		c.lru.Remove(el)
		delete(c.entries, key)
		metExpire.Inc()
		return zero, false
	}
	c.lru.MoveToFront(el)
	return c.clone(e.val), true
}

// put stores val under key (replacing any previous value), evicting the
// least-recently-used entries beyond the capacity bound.
func (c *Cache[V]) put(key string, val V) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		e.val = val
		e.when = c.now()
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: val, when: c.now()})
	for c.max > 0 && c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry[V]).key)
		metEvict.Inc()
	}
}

// GetOrCompute returns the value for key, computing it with fn on a miss.
// Concurrent callers with the same key coalesce onto one flight: only the
// leader runs fn, everyone else waits and shares the leader's result (or
// its error — errors are never cached, so the next request retries). The
// returned Status says which path answered. A panicking fn is converted
// into an error for every waiter before the panic propagates to the
// leader, so coalesced requests can never hang on a dead flight.
func (c *Cache[V]) GetOrCompute(key string, fn func() (V, error)) (V, Status, error) {
	if c == nil {
		v, err := fn()
		return v, StatusMiss, err
	}
	c.mu.Lock()
	if v, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		metHit.Inc()
		return v, StatusHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		metCoalesced.Inc()
		if f.err != nil {
			var zero V
			return zero, StatusCoalesced, f.err
		}
		return c.clone(f.val), StatusCoalesced, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	metMiss.Inc()

	resolved := false
	defer func() {
		// A panicking fn still resolves the flight (as an error) before the
		// panic continues, so waiters never block forever.
		if !resolved {
			f.err = fmt.Errorf("servecache: compute for key %q panicked", key)
			c.mu.Lock()
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
		}
	}()
	val, err := fn()
	resolved = true
	f.val, f.err = val, err
	c.mu.Lock()
	if err == nil {
		c.put(key, val)
		metFill.Inc()
	}
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	if err != nil {
		var zero V
		return zero, StatusMiss, err
	}
	return c.clone(val), StatusMiss, nil
}

// Len reports the number of cached entries (diagnostics/tests).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// setNow overrides the clock for TTL tests.
func (c *Cache[V]) setNow(now func() time.Time) { c.now = now }

// Key renders a normalized parameter signature as the canonical cache/ring
// key: the prefix (architecture or model family), then every signature
// component in exact hexadecimal float form. Two parameter points share a
// key exactly when every float64 is bit-identical after normalization, so
// a cache hit can never alias two distinguishable solver inputs. This is
// the same signature vector internal/warmstart ranks neighbors with —
// warmstart compares it by L1 distance, the cache by exact identity. The
// key bytes feed shadow sampling and event hashes, so their format is
// pinned by TestKeyBytesPinned.
func Key(prefix string, sig []float64) string {
	// A paper signature renders to ~200 bytes; building it in a stack
	// buffer leaves one exact-size allocation, the returned string.
	var buf [384]byte
	b := append(buf[:0], prefix...)
	for _, v := range sig {
		b = append(b, '|')
		b = strconv.AppendFloat(b, v, 'x', -1, 64)
	}
	return string(b)
}
