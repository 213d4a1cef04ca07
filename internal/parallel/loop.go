package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nvrel/internal/faultinject"
	"nvrel/internal/obs"
)

// Fault-injection sites of the pool, exercised by the chaos harness: an
// injected panic inside a worker's item and an injected stall that pushes
// an item past its per-attempt deadline.
var (
	fiWorkerPanic = faultinject.SiteFor("parallel.worker.panic")
	fiWorkerStall = faultinject.SiteFor("parallel.worker.stall")
)

// PanicError is the typed failure recorded for an item whose function
// panicked. The panic is recovered inside the pool — a worker panic must
// never abort the whole process — and the worker that observed it is
// retired and replaced by a fresh goroutine.
type PanicError struct {
	// Index is the work item whose function panicked.
	Index int
	// Value is the recovered panic payload.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", e.Index, e.Value)
}

// policy is what distinguishes the front-ends. The zero policy is
// fail-fast: it stops claiming at the first error, cancels the items'
// context and reports the error of the lowest failing index. Per-item
// gives every item its own error slot; both retry panicked or timed-out
// attempts up to maxAttempts (none when it is below 2).
type policy struct {
	perItem     bool
	maxAttempts int
	itemTimeout time.Duration // per-attempt deadline; 0 means none
}

// run is the pool's one claim loop: workers goroutines (clamped to
// [1, n]) claim indices in increasing order from one atomic counter, each
// holding one resource from acquire for its life. Every attempt opens a
// parallel.item span, applies the optional per-attempt deadline, passes
// the fault sites and recovers a panic into *PanicError; the worker that
// saw the panic retires (releasing its resource) and a fresh goroutine
// takes its place, first finishing the panicked item. It returns the
// per-item errors under a per-item policy, else the fail-fast error.
func run[R any](ctx context.Context, workers, n int, pol policy, acquire func() R, release func(R),
	fn func(ctx context.Context, res R, i int) error) (errs []error, first error) {
	if pol.perItem {
		errs = make([]error, max(n, 0))
	}
	if n <= 0 {
		return errs, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = min(max(workers, 1), n)
	p := &pool[R]{ctx: ctx, n: n, pol: pol, acquire: acquire, release: release, fn: fn,
		observed: obs.Enabled(), errs: errs, firstIdx: n, items: ctx}
	if !pol.perItem {
		// Only fail-fast cancels the items' context. Per-item attempts
		// derive from the caller's directly: a cancelable parent would make
		// every ItemTimeout child register with it.
		p.items, p.cancel = context.WithCancel(ctx)
		defer p.cancel()
	}
	var finish func(busyNS int64)
	if p.observed {
		finish = beginPoolRun(workers, n)
	}
	// The caller is the first worker, so one worker runs as a plain loop
	// on the caller's goroutine until a panic retires it.
	p.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go p.work(-1, 0)
	}
	p.work(-1, 0)
	p.wg.Wait()
	if p.observed {
		finish(p.busy.Load())
	}
	if err := ctx.Err(); err != nil {
		if pol.perItem {
			// Items the dead parent left unclaimed.
			for i := min(int(p.next.Load()), n); i < n; i++ {
				p.settle(i, err)
			}
		} else if p.first == nil {
			p.first = err
		}
	}
	return errs, p.first
}

// pool is the state of one run.
type pool[R any] struct {
	ctx      context.Context    // the caller's
	items    context.Context    // the items'; cancelled by a fail-fast error
	cancel   context.CancelFunc // fail-fast only
	n        int
	pol      policy
	acquire  func() R
	release  func(R)
	fn       func(ctx context.Context, res R, i int) error
	observed bool // obs was enabled at the start: account busy time

	next, ids, busy atomic.Int64
	wg              sync.WaitGroup

	errs     []error // per-item outcomes
	errMu    sync.Mutex
	firstIdx int // fail-fast: lowest failing index so far, and its error
	first    error
}

// work claims items until none is left or the items' context dies. A
// worker respawned after a panic starts with that item (i >= 0) and its
// next attempt number.
func (p *pool[R]) work(i, try int) {
	defer p.wg.Done()
	id := p.ids.Add(1) - 1
	res := p.acquire()
	defer p.release(res)
	for {
		if i < 0 {
			if p.items.Err() != nil {
				return
			}
			if i = int(p.next.Add(1) - 1); i >= p.n {
				return
			}
			try = 0
		}
		err, panicked := p.attempt(res, i, try, id)
		if err != nil && try+1 < p.pol.maxAttempts && retryable(p.ctx, err) && backoff(p.ctx, try) {
			metItemRetries.Inc()
			try++
		} else {
			p.settle(i, err)
			i = -1
		}
		if panicked {
			// Rejuvenation: the item bookkeeping is done, but any state
			// associated with this goroutine is suspect.
			metWorkerRespawns.Inc()
			p.wg.Add(1)
			go p.work(i, try)
			return
		}
	}
}

// attempt runs fn once for item i. The span carries worker attribution —
// which goroutine incarnation ran which item on which attempt — so a
// trace shows retries landing on fresh workers.
func (p *pool[R]) attempt(res R, i, try int, worker int64) (err error, panicked bool) {
	ictx, sp := obs.StartSpan(p.items, "parallel.item")
	sp.Int("index", int64(i)).Int("attempt", int64(try)).Int("worker", worker)
	var t0 int64
	if p.observed {
		t0 = nowNS()
	}
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			metWorkerPanics.Inc()
			err = &PanicError{Index: i, Value: r}
		}
		if p.observed {
			p.busy.Add(nowNS() - t0)
		}
		sp.Err(err)
		sp.End()
	}()
	if p.pol.itemTimeout > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ictx, p.pol.itemTimeout)
		defer cancel()
	}
	if faultinject.Enabled() {
		fiWorkerPanic.Panic()
		fiWorkerStall.Stall(ictx)
	}
	return p.fn(ictx, res, i), false
}

// settle records item i's final outcome. Each index is settled by exactly
// one worker, so the per-item slots need no lock.
func (p *pool[R]) settle(i int, err error) {
	if err == nil {
		return
	}
	if p.pol.perItem {
		metItemFailed.Inc()
		p.errs[i] = err
		return
	}
	p.errMu.Lock()
	if i < p.firstIdx {
		p.firstIdx, p.first = i, err
	}
	p.errMu.Unlock()
	p.cancel()
}

// retryable reports whether a failed attempt is worth a fresh try: a
// recovered panic or a per-attempt deadline blow while the parent context
// is still alive. Deterministic failures are not retried.
func retryable(parent context.Context, err error) bool {
	if parent.Err() != nil {
		return false
	}
	var pe *PanicError
	return errors.As(err, &pe) || errors.Is(err, context.DeadlineExceeded)
}

// backoff waits 1 ms doubled per failed attempt before a retry and
// reports false when the parent context dies first.
func backoff(parent context.Context, try int) bool {
	t := time.NewTimer(time.Millisecond << try)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-parent.Done():
		return false
	}
}
