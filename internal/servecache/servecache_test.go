package servecache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvrel/internal/obs"
)

func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

func TestCacheHitReturnsClone(t *testing.T) {
	withObs(t)
	c := New(4, 0, func(v []float64) []float64 { return append([]float64(nil), v...) })
	stored := []float64{1, 2, 3}
	if _, st, err := c.GetOrCompute("k", func() ([]float64, error) { return stored, nil }); err != nil || st != StatusMiss {
		t.Fatalf("first GetOrCompute = %v, %v; want miss, nil", st, err)
	}
	got, st, err := c.GetOrCompute("k", func() ([]float64, error) {
		t.Fatal("hit path entered the compute function")
		return nil, nil
	})
	if err != nil || st != StatusHit {
		t.Fatalf("second GetOrCompute = %v, %v; want hit, nil", st, err)
	}
	got[0] = 99 // mutating the returned copy must not poison the cache
	again, ok := c.Get("k")
	if !ok || again[0] != 1 {
		t.Errorf("cache storage corrupted through a returned clone: %v", again)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	withObs(t)
	evict0 := metEvict.Value()
	c := New[int](2, 0, nil)
	c.GetOrCompute("a", func() (int, error) { return 1, nil })
	c.GetOrCompute("b", func() (int, error) { return 2, nil })
	c.Get("a") // touch a so b is the LRU victim
	c.GetOrCompute("c", func() (int, error) { return 3, nil })
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Error("LRU victim b still cached")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently-used a evicted")
	}
	if got := metEvict.Value() - evict0; got != 1 {
		t.Errorf("servecache.evict delta = %d, want 1", got)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	withObs(t)
	expire0 := metExpire.Value()
	c := New[int](4, time.Minute, nil)
	now := time.Unix(1000, 0)
	c.setNow(func() time.Time { return now })
	c.GetOrCompute("k", func() (int, error) { return 7, nil })
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Error("stale entry still served after TTL")
	}
	if got := metExpire.Value() - expire0; got != 1 {
		t.Errorf("servecache.expire delta = %d, want 1", got)
	}
	// The expired slot must be recomputable.
	if _, st, _ := c.GetOrCompute("k", func() (int, error) { return 8, nil }); st != StatusMiss {
		t.Errorf("post-expiry GetOrCompute = %v, want miss", st)
	}
}

// TestCacheSingleflightCoalesces is the core acceptance property: M
// concurrent identical requests perform exactly one compute.
func TestCacheSingleflightCoalesces(t *testing.T) {
	withObs(t)
	const m = 32
	c := New[int](4, 0, nil)
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	statuses := make([]Status, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, st, err := c.GetOrCompute("same", func() (int, error) {
				<-gate // hold the flight open until all goroutines are launched
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("GetOrCompute = %d, %v", v, err)
			}
			statuses[i] = st
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d concurrent identical requests ran %d computes, want exactly 1", m, n)
	}
	var miss, other int
	for _, st := range statuses {
		if st == StatusMiss {
			miss++
		} else {
			other++
		}
	}
	if miss != 1 || other != m-1 {
		t.Errorf("status split = %d miss / %d shared, want 1 / %d", miss, other, m-1)
	}
}

func TestCacheErrorsNotCachedAndShared(t *testing.T) {
	withObs(t)
	c := New[int](4, 0, nil)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("failed compute was cached")
	}
	if v, st, err := c.GetOrCompute("k", func() (int, error) { return 5, nil }); err != nil || v != 5 || st != StatusMiss {
		t.Errorf("retry after error = %d, %v, %v", v, st, err)
	}
}

func TestCachePanicResolvesFlight(t *testing.T) {
	withObs(t)
	c := New[int](4, 0, nil)
	started := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.GetOrCompute("k", func() (int, error) {
			close(started)
			time.Sleep(10 * time.Millisecond) // let the waiter coalesce
			panic("kernel wedged")
		})
	}()
	<-started
	go func() {
		_, _, err := c.GetOrCompute("k", func() (int, error) { return 1, nil })
		errs <- err
	}()
	select {
	case err := <-errs:
		// Either the waiter coalesced onto the panicked flight (error) or it
		// arrived after resolution and computed fresh (nil). Both are fine —
		// what must not happen is a hang.
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung on a panicked flight")
	}
}

func TestNilCacheComputes(t *testing.T) {
	var c *Cache[int]
	v, st, err := c.GetOrCompute("k", func() (int, error) { return 9, nil })
	if v != 9 || st != StatusMiss || err != nil {
		t.Errorf("nil cache GetOrCompute = %d, %v, %v", v, st, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache claims a hit")
	}
	if c.Len() != 0 {
		t.Error("nil cache Len != 0")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := Key("6v", []float64{1, 2.5, 1523})
	b := Key("6v", []float64{1, 2.5, 1523})
	if a != b {
		t.Errorf("identical signatures render different keys: %q vs %q", a, b)
	}
	if c := Key("4v", []float64{1, 2.5, 1523}); c == a {
		t.Error("prefix ignored in key")
	}
	if c := Key("6v", []float64{1, 2.5, 1523.0000000000002}); c == a {
		t.Error("one-ulp parameter change collides")
	}
	// Distinguishable floats that print identically at low precision must
	// still produce distinct keys (hex rendering is exact).
	x, y := 0.1, 0.1+1e-17
	if x != y && Key("p", []float64{x}) == Key("p", []float64{y}) {
		t.Error("distinct float64s collide")
	}
}

// TestKeyBytesPinned pins the exact key bytes: shadow sampling and event
// hashes are functions of them, so any change of rendering would move
// which requests are sampled. The key is also exactly its content long
// and costs one allocation.
func TestKeyBytesPinned(t *testing.T) {
	sig := []float64{10, 1, 1, 0.5, 0.9, 0.05, 1523, 1e5, 30, 60, 450, 0, 1}
	const want = "6v|0x1.4p+03|0x1p+00|0x1p+00|0x1p-01|0x1.ccccccccccccdp-01|0x1.999999999999ap-05|" +
		"0x1.7ccp+10|0x1.86ap+16|0x1.ep+04|0x1.ep+05|0x1.c2p+08|0x0p+00|0x1p+00"
	if got := Key("6v", sig); got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := Key("4v", []float64{-0.1, 1e-300, 5e-324}), "4v|-0x1.999999999999ap-04|0x1.56e1fc2f8f359p-997|0x1p-1074"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { Key("6v", sig) }); allocs != 1 {
		t.Errorf("Key allocated %.0f times, want 1 (the string)", allocs)
	}
}
