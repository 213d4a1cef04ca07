package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// forEachWorkers runs the fail-fast loop behind ForEach on exactly workers
// goroutines (clamped to the item count), bypassing EffectiveWorkers'
// CPU and work clamps.
func forEachWorkers(workers, n int, fn func(i int) error) error {
	_, err := run(context.Background(), workers, n, policy{}, noRes, dropRes,
		func(_ context.Context, _ struct{}, i int) error { return fn(i) })
	return err
}

// mapWorkers evaluates fn over 0..n-1 on forEachWorkers and returns the
// results in index order, or nil and the lowest failing index's error.
func mapWorkers[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if err := forEachWorkers(workers, n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func TestForEachNVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		n := 57
		counts := make([]atomic.Int32, n)
		if err := forEachWorkers(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachNZeroAndNegative(t *testing.T) {
	called := false
	if err := forEachWorkers(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := forEachWorkers(4, -3, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for empty range")
	}
}

func TestForEachNReturnsLowestIndexError(t *testing.T) {
	// Indices 9 and 23 fail; the serial loop would report index 9. The
	// pool must report the same error regardless of worker count.
	for _, workers := range []int{1, 2, 4, 16} {
		err := forEachWorkers(workers, 40, func(i int) error {
			if i == 9 || i == 23 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom at 9" {
			t.Fatalf("workers=%d: got %v, want boom at 9", workers, err)
		}
	}
}

func TestForEachNCancelsAfterError(t *testing.T) {
	var ran atomic.Int64
	sentinel := errors.New("stop")
	err := forEachWorkers(2, 100000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if got := ran.Load(); got == 100000 {
		t.Error("no cancellation: every index ran despite an early error")
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 9} {
		out, err := mapWorkers(workers, 25, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapErrorDropsResults(t *testing.T) {
	out, err := mapWorkers(3, 10, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("bad point")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("expected nil results on error, got %v", out)
	}
}

func TestWorkersOverridePrecedence(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)

	t.Setenv("NVREL_WORKERS", "3")
	if got := Workers(); got != 3 {
		t.Fatalf("env override: got %d, want 3", got)
	}
	SetWorkers(5)
	if got := Workers(); got != 5 {
		t.Fatalf("explicit override beats env: got %d, want 5", got)
	}
	SetWorkers(0)
	t.Setenv("NVREL_WORKERS", "not-a-number")
	if got := Workers(); got <= 0 {
		t.Fatalf("fallback must be positive, got %d", got)
	}
}

func TestEffectiveWorkersClampsToCPUAndWork(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)

	cpus := runtime.NumCPU()

	// A request beyond the core count is clamped: pure-CPU solves gain
	// nothing from extra goroutines.
	SetWorkers(cpus + 7)
	if got := EffectiveWorkers(1000); got != cpus {
		t.Errorf("oversubscribed request: got %d, want %d", got, cpus)
	}

	// Tiny sweeps shed workers down to the minimum-work floor.
	SetWorkers(cpus)
	if got := EffectiveWorkers(1); got != 1 {
		t.Errorf("n=1: got %d, want 1", got)
	}
	if got := EffectiveWorkers(MinItemsPerWorker); got != 1 {
		t.Errorf("n=%d: got %d, want 1", MinItemsPerWorker, got)
	}
	want := 2
	if cpus < 2 {
		want = 1
	}
	if got := EffectiveWorkers(2 * MinItemsPerWorker); got != want {
		t.Errorf("n=%d: got %d, want %d", 2*MinItemsPerWorker, got, want)
	}

	// Zero items still yields a usable worker count.
	if got := EffectiveWorkers(0); got < 1 {
		t.Errorf("n=0: got %d, want >= 1", got)
	}
}

func TestForEachMatchesSerialOnSmallSweeps(t *testing.T) {
	// ForEach must visit every index exactly once regardless of how many
	// workers EffectiveWorkers sheds.
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	for _, n := range []int{1, 3, 4, 5, 17} {
		counts := make([]atomic.Int32, n)
		if err := ForEach(n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}
