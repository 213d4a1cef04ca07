package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvrel/internal/faultinject"
)

// TestForEachCtxDrainsBlockedItemsOnError is the regression test for the
// pool-shutdown fix: before ForEachCtx, an item blocked on ctx.Done()
// could hang the pool forever once another item failed, because nothing
// propagated the failure to in-flight work. Run under -race in CI.
func TestForEachCtxDrainsBlockedItemsOnError(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- ForEachCtx(context.Background(), 8, func(ctx context.Context, i int) error {
			if i == 0 {
				return boom
			}
			// Every other item blocks until the pool propagates the
			// cancellation triggered by item 0's failure.
			<-ctx.Done()
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("ForEachCtx = %v, want boom", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ForEachCtx hung: error did not cancel in-flight items")
	}
}

// TestForEachCtxParentCancellation: a dead parent context stops the pool
// and surfaces the context error even when no item fails.
func TestForEachCtxParentCancellation(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	// Items after the second wait until its cancel() has returned, so the
	// other worker cannot run the rest while the canceller is descheduled.
	cancelled := make(chan struct{})
	err := ForEachCtx(ctx, 64, func(ctx context.Context, i int) error {
		switch n := ran.Add(1); {
		case n == 2:
			cancel()
			close(cancelled)
		case n > 2:
			<-cancelled
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx = %v, want context.Canceled", err)
	}
	if ran.Load() >= 64 {
		t.Fatal("cancellation did not stop the pool early")
	}
}

// TestForEachCtxCompletesClean: no errors, every index runs exactly once.
func TestForEachCtxCompletesClean(t *testing.T) {
	seen := make([]atomic.Int64, 100)
	err := ForEachCtx(context.Background(), 100, func(ctx context.Context, i int) error {
		seen[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if v := seen[i].Load(); v != 1 {
			t.Fatalf("index %d ran %d times", i, v)
		}
	}
}

// TestHardenedRecoversPanicWithRetry: a panic on the first attempt is
// retried on a fresh worker and the item succeeds — the sweep result is
// bit-identical to a clean run.
func TestHardenedRecoversPanicWithRetry(t *testing.T) {
	var calls atomic.Int64
	errs := ForEachHardened(context.Background(), 4, func(ctx context.Context, i int) error {
		if i == 2 && calls.Add(1) == 1 {
			panic("transient corruption")
		}
		return nil
	}, HardenedOptions{Workers: 2})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
}

// TestHardenedExhaustsBudgetToTypedError: an item that panics on every
// attempt settles as a *PanicError after MaxAttempts, without aborting the
// other items.
func TestHardenedExhaustsBudgetToTypedError(t *testing.T) {
	var okItems atomic.Int64
	errs := ForEachHardened(context.Background(), 6, func(ctx context.Context, i int) error {
		if i == 3 {
			panic("persistent corruption")
		}
		okItems.Add(1)
		return nil
	}, HardenedOptions{Workers: 3, MaxAttempts: 3})
	var pe *PanicError
	if !errors.As(errs[3], &pe) || pe.Index != 3 {
		t.Fatalf("errs[3] = %v, want *PanicError for index 3", errs[3])
	}
	for i, err := range errs {
		if i != 3 && err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if okItems.Load() != 5 {
		t.Fatalf("%d other items completed, want 5", okItems.Load())
	}
}

// TestHardenedDoesNotRetryDeterministicErrors: a typed solver-style error
// is recorded immediately — rerunning the same rejection wastes budget.
func TestHardenedDoesNotRetryDeterministicErrors(t *testing.T) {
	var calls atomic.Int64
	bad := fmt.Errorf("typed rejection")
	errs := ForEachHardened(context.Background(), 1, func(ctx context.Context, i int) error {
		calls.Add(1)
		return bad
	}, HardenedOptions{MaxAttempts: 4})
	if !errors.Is(errs[0], bad) {
		t.Fatalf("errs[0] = %v", errs[0])
	}
	if calls.Load() != 1 {
		t.Fatalf("deterministic error retried %d times", calls.Load()-1)
	}
}

// TestHardenedItemTimeout: an attempt that blows its per-attempt deadline
// is retried; with the stall gone it succeeds.
func TestHardenedItemTimeout(t *testing.T) {
	var calls atomic.Int64
	errs := ForEachHardened(context.Background(), 1, func(ctx context.Context, i int) error {
		if calls.Add(1) == 1 {
			<-ctx.Done() // simulate a solver honoring its deadline
			return ctx.Err()
		}
		return nil
	}, HardenedOptions{ItemTimeout: 20 * time.Millisecond, MaxAttempts: 2})
	if errs[0] != nil {
		t.Fatalf("timed-out item not recovered on retry: %v", errs[0])
	}
	if calls.Load() != 2 {
		t.Fatalf("item ran %d times, want 2", calls.Load())
	}
}

// TestHardenedParentCancellation: a dead parent records a context error
// for unfinished items instead of hanging or retrying.
func TestHardenedParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := ForEachHardened(ctx, 8, func(ctx context.Context, i int) error {
		return nil
	}, HardenedOptions{Workers: 2})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d = %v, want context.Canceled", i, err)
		}
	}
}

// TestHardenedInjectedWorkerPanic: the chaos site inside the pool is
// recovered, the worker respawned, and the run completes with every item
// green (the injected fault fires once and the retry lands clean).
func TestHardenedInjectedWorkerPanic(t *testing.T) {
	faultinject.Reset()
	if err := faultinject.Arm(faultinject.Fault{Site: "parallel.worker.panic"}, 3); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable()
	defer func() {
		faultinject.Disable()
		faultinject.Reset()
	}()
	errs := ForEachHardened(context.Background(), 8, func(ctx context.Context, i int) error {
		return nil
	}, HardenedOptions{Workers: 2})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if got := faultinject.SiteFor("parallel.worker.panic").Fired(); got != 1 {
		t.Fatalf("site fired %d times, want 1", got)
	}
}

// TestFailFastFrontEndsContainPanics: a panic inside a ForEach, ForEachRes
// or ForEachCtx item is recovered into that index's *PanicError instead of
// crashing the process, and every resource a worker acquired — the
// panicking worker's included — is released.
func TestFailFastFrontEndsContainPanics(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	const n, bad = 16, 5
	item := func(i int) error {
		if i == bad {
			panic("corrupted item")
		}
		return nil
	}
	var acquires, releases atomic.Int64
	for name, call := range map[string]func() error{
		"ForEach": func() error { return ForEach(n, item) },
		"ForEachCtx": func() error {
			return ForEachCtx(context.Background(), n, func(_ context.Context, i int) error { return item(i) })
		},
		"ForEachRes": func() error {
			return ForEachRes(n,
				func() int { return int(acquires.Add(1)) },
				func(int) { releases.Add(1) },
				func(_ context.Context, _ int, i int) error { return item(i) })
		},
	} {
		var pe *PanicError
		if err := call(); !errors.As(err, &pe) || pe.Index != bad {
			t.Fatalf("%s = %v, want *PanicError for index %d", name, err, bad)
		}
	}
	if a, r := acquires.Load(), releases.Load(); a == 0 || a != r {
		t.Fatalf("ForEachRes acquired %d resources and released %d", a, r)
	}
}

// TestHardenedRetriesPanicBeforeNextItem: on one worker, a panicked item's
// retry runs on the respawned worker before index i+1 is claimed, so the
// retry sees the same predecessors (and warm-start state) as the attempt
// it replaces.
func TestHardenedRetriesPanicBeforeNextItem(t *testing.T) {
	var (
		mu    sync.Mutex
		order []int
	)
	var panicked atomic.Bool
	errs := ForEachHardened(context.Background(), 5, func(ctx context.Context, i int) error {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		if i == 2 && !panicked.Swap(true) {
			panic("transient corruption")
		}
		return nil
	}, HardenedOptions{Workers: 1})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if want := []int{0, 1, 2, 2, 3, 4}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("attempt order %v, want %v", order, want)
	}
}
