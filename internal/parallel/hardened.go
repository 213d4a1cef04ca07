package parallel

import (
	"context"
	"time"
)

// HardenedOptions tunes ForEachHardened. The zero value is usable.
type HardenedOptions struct {
	// Workers is the pool size; 0 means EffectiveWorkers(n).
	Workers int
	// MaxAttempts is the per-item attempt budget; 0 means 2 (one retry
	// after a panic, on the fresh worker, or after a per-attempt timeout).
	MaxAttempts int
	// ItemTimeout bounds each attempt with a child context deadline; 0
	// means no per-attempt deadline.
	ItemTimeout time.Duration
}

// ForEachHardened runs fn(0..n-1) with per-item fault containment,
// returning one error slot per item (nil on success) instead of aborting
// on the first failure:
//
//   - a panic in fn is recovered as a typed *PanicError, and the worker
//     that observed it is retired and replaced by a fresh goroutine;
//   - an attempt that blows its ItemTimeout deadline is cut off via its
//     child context (fn must honor ctx for this to bound wall-clock);
//   - panicked and timed-out items are retried inline — after a 1 ms
//     backoff doubling per attempt, before the worker claims anything
//     else — until MaxAttempts is exhausted, so a retry runs in the same
//     place of the claim order as the attempt it replaces; deterministic
//     failures (typed solver errors) are recorded immediately, because
//     rerunning the same solve yields the same rejection;
//   - cancellation of the parent context records a context error for every
//     item not yet claimed and stops promptly.
//
// Sweep drivers use this to turn "one bad point kills the run" into
// "every point reports its own outcome".
func ForEachHardened(ctx context.Context, n int, fn func(ctx context.Context, i int) error, opts HardenedOptions) []error {
	workers := opts.Workers
	if workers <= 0 {
		workers = EffectiveWorkers(n)
	}
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = 2
	}
	errs, _ := run(ctx, workers, n, policy{perItem: true, maxAttempts: attempts, itemTimeout: opts.ItemTimeout},
		noRes, dropRes, func(ctx context.Context, _ struct{}, i int) error { return fn(ctx, i) })
	return errs
}
