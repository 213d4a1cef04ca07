// Package parallel provides the bounded worker pool used by the sweep and
// replication engines. Every front-end runs the same claim loop: work
// items are claimed in index order, results are written by index (so
// output ordering never depends on scheduling), a panic in an item is
// recovered into a typed *PanicError on a freshly respawned worker, and
// the outcome policy decides what a failure does — the fail-fast
// front-ends (ForEach, ForEachCtx, ForEachRes) stop at the first error and
// report the one of the lowest failing index, ForEachHardened gives every
// item its own outcome. One worker claims the indices in order, and the
// contract is that a parallel run is bit-identical to that serial loop.
//
// The default worker count is runtime.NumCPU; it can be overridden
// process-wide with SetWorkers (the CLI's -workers flag) or the
// NVREL_WORKERS environment variable.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
)

var (
	overrideMu sync.RWMutex
	override   int // 0 means "no explicit override"
)

// SetWorkers fixes the process-wide default worker count and returns the
// previous override (0 when none was set). Passing 0 restores automatic
// selection (NVREL_WORKERS, then runtime.NumCPU).
func SetWorkers(n int) (prev int) {
	overrideMu.Lock()
	defer overrideMu.Unlock()
	prev = override
	if n < 0 {
		n = 0
	}
	override = n
	return prev
}

// Workers returns the effective default worker count: an explicit
// SetWorkers value, else a positive NVREL_WORKERS environment variable,
// else runtime.NumCPU.
func Workers() int {
	overrideMu.RLock()
	n := override
	overrideMu.RUnlock()
	if n > 0 {
		return n
	}
	if s := os.Getenv("NVREL_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.NumCPU()
}

// MinItemsPerWorker is the work floor below which the pool sheds
// workers: spinning up a goroutine for fewer items than this costs more in
// scheduling than the fan-out recovers on the solver workloads the pool
// exists for.
const MinItemsPerWorker = 4

// EffectiveWorkers returns the worker count the pool will actually use
// for n items: Workers() clamped to runtime.NumCPU — the solves are pure
// CPU work, so goroutines beyond the core count only add scheduling
// overhead — and shed further so every worker has at least
// MinItemsPerWorker items. Small sweeps therefore run on one worker
// instead of paying fan-out overhead, and a 2-worker request on a 1-CPU
// machine degenerates to the serial loop it would have fought the
// scheduler to imitate. Only HardenedOptions.Workers bypasses the clamp.
func EffectiveWorkers(n int) int {
	w := Workers()
	if cpus := runtime.NumCPU(); w > cpus {
		w = cpus
	}
	if n > 0 {
		if byWork := (n + MinItemsPerWorker - 1) / MinItemsPerWorker; w > byWork {
			w = byWork
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(0..n-1) on EffectiveWorkers(n) goroutines. When some
// call fails, the pool stops claiming new indices, waits for in-flight
// calls, and returns the error of the lowest failing index — the same
// error a serial loop would have returned, because every index below the
// lowest failure completes. A panic in fn is that index's *PanicError.
func ForEach(n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, func(_ context.Context, i int) error { return fn(i) })
}

// ForEachCtx is ForEach with a context that is cancelled as soon as any
// item fails or the parent context dies. Context-aware in-flight items
// therefore drain promptly on the first hard error instead of running to
// completion against a result nobody will read. When no item failed but
// the parent died mid-run, the parent's error is returned.
func ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	_, err := run(ctx, EffectiveWorkers(n), n, policy{}, noRes, dropRes,
		func(ctx context.Context, _ struct{}, i int) error { return fn(ctx, i) })
	return err
}

// ForEachRes is ForEach handing each worker one resource for its entire
// run: acquire is called once per worker on that worker's goroutine and
// release once when it exits (also when it retires after a panic). Use it
// to share a workspace arena across the pool — one checkout per worker
// instead of one per item. fn gets the item's context as ForEachCtx
// items do: it carries the parallel.item span and is cancelled when an
// item fails.
func ForEachRes[R any](n int, acquire func() R, release func(R), fn func(ctx context.Context, res R, i int) error) error {
	_, err := run(context.Background(), EffectiveWorkers(n), n, policy{}, acquire, release, fn)
	return err
}

// noRes and dropRes are the resource hooks of the front-ends that hand
// their workers nothing.
func noRes() (none struct{}) { return }
func dropRes(struct{})       {}
