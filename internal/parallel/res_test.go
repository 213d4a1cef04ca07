package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachResVisitsEveryIndexOnce(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	const n = 100
	var hits [n]atomic.Int64
	err := ForEachRes(n,
		func() int { return 0 },
		func(int) {},
		func(_ context.Context, _ int, i int) error {
			hits[i].Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestForEachResAcquiresPerWorkerNotPerItem(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var acquires, releases atomic.Int64
	const n = 64
	err := ForEachRes(n,
		func() int { return int(acquires.Add(1)) },
		func(int) { releases.Add(1) },
		func(_ context.Context, res int, i int) error {
			if res == 0 {
				return errors.New("zero resource")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	a, r := acquires.Load(), releases.Load()
	if a != r {
		t.Fatalf("acquires %d != releases %d", a, r)
	}
	if a > int64(EffectiveWorkers(n)) {
		t.Fatalf("acquired %d resources for %d workers — per-item acquisition", a, EffectiveWorkers(n))
	}
}

func TestForEachResReturnsLowestIndexError(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	// Fail a scattering of indices; the contract is the error of the
	// lowest failing index, exactly like ForEach.
	err := ForEachRes(200,
		func() struct{} { return struct{}{} },
		func(struct{}) {},
		func(_ context.Context, _ struct{}, i int) error {
			if i == 17 || i == 3 || i == 150 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
	if err == nil || err.Error() != "fail 3" {
		t.Fatalf("err = %v, want fail 3", err)
	}
}

func TestForEachResSingleWorkerIsSerialLoop(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	var order []int
	var acquires int
	err := ForEachRes(10,
		func() int { acquires++; return acquires },
		func(int) {},
		func(_ context.Context, res int, i int) error {
			if res != 1 {
				return fmt.Errorf("worker resource %d", res)
			}
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if acquires != 1 {
		t.Fatalf("one worker acquired %d resources", acquires)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestForEachResZeroItems(t *testing.T) {
	called := false
	err := ForEachRes(0,
		func() int { called = true; return 0 },
		func(int) { called = true },
		func(context.Context, int, int) error { called = true; return nil })
	if err != nil || called {
		t.Fatalf("n=0: err=%v called=%v", err, called)
	}
}

func TestForEachResSharesArena(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	// The intended composition: acquire/release backed by a shared pool.
	var mu sync.Mutex
	free := []int{}
	next := 0
	acquire := func() int {
		mu.Lock()
		defer mu.Unlock()
		if n := len(free); n > 0 {
			v := free[n-1]
			free = free[:n-1]
			return v
		}
		next++
		return next
	}
	release := func(v int) {
		mu.Lock()
		free = append(free, v)
		mu.Unlock()
	}
	for round := 0; round < 3; round++ {
		if err := ForEachRes(30, acquire, release, func(context.Context, int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if next > 3 {
		t.Fatalf("three rounds at three workers allocated %d resources; arena not reused", next)
	}
}
