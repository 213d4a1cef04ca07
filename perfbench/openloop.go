package main

import (
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// prSetTimerSlack is PR_SET_TIMERSLACK. The kernel's default 50 µs slack
// would make every arrival up to 50 µs late; Go's own timers are worse
// (about 1 ms), so the generator sleeps with nanosleep on a locked thread.
const prSetTimerSlack = 29

// sleepUntil blocks the calling OS thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// sample is one open-loop request: when it was due, how late the
// generator handed it to a connection, when a connection sent it and when
// the whole reply had arrived, all relative to the phase start.
type sample struct {
	a        arrival
	lateness time.Duration
	sent     time.Duration
	done     time.Duration
	doneAt   time.Time
	r        reply
}

// latency is measured from the due time, so a stall also charges the
// requests that queued behind it.
func (s *sample) latency() time.Duration { return s.done - s.a.due }

// openLoop sends sched on its own clock over conns connections: a
// generator on a locked OS thread hands each request to the connection
// queue at its due time, whether or not earlier requests have finished.
// backlog is the number of requests handed out but not yet answered at
// the moment the last one was due.
func openLoop(c *http.Client, url string, sched []arrival, conns int, rec *recorder) (out []sample, backlog int) {
	out = make([]sample, len(sched))
	bodies := make([][]byte, len(sched))
	for i, a := range sched {
		out[i].a = a
		bodies[i] = a.pt.body()
	}
	queue := make(chan int, len(sched)) // sized to the number of sends: the generator never blocks
	var answered atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &out[i]
				s.sent = time.Since(t0)
				s.r = post(c, url+"/solve", bodies[i])
				s.doneAt = time.Now()
				s.done = s.doneAt.Sub(t0)
				answered.Add(1)
				if rec != nil {
					rec.add(span{Req: int64(i), Name: "client.solve", Start: t0.Sub(rec.t0) + s.sent, End: t0.Sub(rec.t0) + s.done, Trace: s.r.traceID})
				}
			}
		}()
	}
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for i, a := range sched {
		sleepUntil(t0.Add(a.due))
		out[i].lateness = time.Since(t0) - a.due
		queue <- i
	}
	backlog = len(sched) - int(answered.Load())
	runtime.UnlockOSThread()
	close(queue)
	wg.Wait()
	return out, backlog
}

// phase summarizes one open-loop phase at one offered rate.
type phase struct {
	rate      float64
	seconds   float64
	sent      int
	failed    int       // transport errors and non-200 replies
	latMS     []float64 // from due time; a failed request counts as +Inf
	hitMS     []float64 // latMS of hot-set requests
	missMS    []float64 // latMS of unique misses
	lateMS    []float64 // generator lateness
	backlog   int
	p50, p99  float64
	late50    float64
	late99    float64
	tailOK    bool // enough samples for p99
	backlogOK bool
}

func summarize(samples []sample, rate, seconds float64, backlog int, limit time.Duration) phase {
	ph := phase{rate: rate, seconds: seconds, sent: len(samples), backlog: backlog}
	for i := range samples {
		s := &samples[i]
		ms := float64(s.latency()) / 1e6
		if s.r.err != nil || s.r.status != http.StatusOK {
			ph.failed++
			ms = math.Inf(1)
		}
		ph.latMS = append(ph.latMS, ms)
		if s.a.hot {
			ph.hitMS = append(ph.hitMS, ms)
		} else {
			ph.missMS = append(ph.missMS, ms)
		}
		ph.lateMS = append(ph.lateMS, float64(s.lateness)/1e6)
	}
	ph.p50, _ = windowed(ph.latMS, 0.5)
	ph.late50 = median(ph.lateMS)
	if v, err := windowed(ph.latMS, 0.99); err == nil {
		ph.p99, ph.tailOK = v, true
	}
	if v, err := percentile(ph.lateMS, 0.99); err == nil {
		ph.late99 = v
	}
	// A queue longer than the requests that can drain within the latency
	// limit means the newest arrivals will miss it: the backlog grows.
	ph.backlogOK = float64(backlog) <= math.Max(float64(2*conns), rate*limit.Seconds())
	return ph
}

// latWindow is the number of consecutive requests each latency
// percentile is taken over: the smallest count that leaves minTail
// samples beyond p99.
const latWindow = 100 * minTail

// windowed is the median, over consecutive windows of latWindow requests
// in due order, of each window's q-quantile (the last window absorbs the
// remainder). A stall of the shared host then moves the windows it hit,
// not the run's figure.
func windowed(latMS []float64, q float64) (float64, error) {
	n := len(latMS) / latWindow
	if n <= 1 {
		return percentile(latMS, q)
	}
	var qs []float64
	for w := 0; w < n; w++ {
		end := (w + 1) * latWindow
		if w == n-1 {
			end = len(latMS)
		}
		v, err := percentile(latMS[w*latWindow:end], q)
		if err != nil {
			return 0, err
		}
		qs = append(qs, v)
	}
	return median(qs), nil
}

// meets reports whether the phase sustained its rate: p99 within the
// limit, every request answered, and no growing backlog.
func (ph phase) meets(limit time.Duration) bool {
	return ph.tailOK && ph.failed == 0 && ph.backlogOK && ph.p99 <= float64(limit)/1e6
}
