package parallel

import (
	"time"

	"nvrel/internal/obs"
)

// Metric handles for the worker pool. All updates are no-ops while obs is
// disabled (the default); the claim loop samples the clock for busy-time
// accounting only when obs.Enabled() reports true.
var (
	metPoolRuns  = obs.CounterFor("parallel.pool.runs")
	metPoolTasks = obs.CounterFor("parallel.pool.tasks")

	// Busy is the summed wall-clock nanoseconds workers spent inside fn;
	// wall is the pool's own elapsed nanoseconds; idle = wall*workers -
	// busy approximates queue wait plus scheduling overhead (the pool has
	// no explicit queue, so idle time is the closest observable proxy).
	metPoolBusyNS = obs.CounterFor("parallel.pool.busy_ns")
	metPoolWallNS = obs.CounterFor("parallel.pool.wall_ns")
	metPoolIdleNS = obs.CounterFor("parallel.pool.idle_ns")

	// Utilization of the most recent pool run: busy / (wall * workers),
	// in [0, 1]. Workers is the count the most recent run launched.
	metPoolUtilization = obs.GaugeFor("parallel.pool.utilization")
	metPoolWorkers     = obs.GaugeFor("parallel.pool.workers")

	// Pool resilience: panics recovered from user code, workers retired
	// and respawned after observing a panic (rejuvenation), item retry
	// attempts, and per-item failures that reached the caller's slice
	// (ForEachHardened).
	metWorkerPanics   = obs.CounterFor("parallel.worker.panic")
	metWorkerRespawns = obs.CounterFor("parallel.worker.respawn")
	metItemRetries    = obs.CounterFor("parallel.item.retry")
	metItemFailed     = obs.CounterFor("parallel.item.failed")
)

// nowNS is a monotonic-clock sample for busy-time accounting.
func nowNS() int64 { return int64(time.Since(poolEpoch)) }

var poolEpoch = time.Now()

// beginPoolRun records the start of one pool run and returns the closure
// that books its wall/busy/idle split once the run's summed busy
// nanoseconds are known.
func beginPoolRun(workers, n int) (finish func(busyNS int64)) {
	metPoolRuns.Inc()
	metPoolTasks.Add(int64(n))
	metPoolWorkers.Set(float64(workers))
	start := time.Now()
	return func(busyNS int64) {
		wall := int64(time.Since(start))
		if wall <= 0 {
			return
		}
		metPoolWallNS.Add(wall)
		metPoolBusyNS.Add(busyNS)
		if idle := wall*int64(workers) - busyNS; idle > 0 {
			metPoolIdleNS.Add(idle)
		}
		metPoolUtilization.Set(float64(busyNS) / (float64(wall) * float64(workers)))
	}
}
