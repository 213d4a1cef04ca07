package main

import (
	"fmt"
	"net/http"
)

// layerValue is one per-layer measurement with the base it was taken
// over ("" for plain counts) and its sample count.
type layerValue struct {
	value float64
	unit  string
	base  string
	n     int
}

// layerMetric names a per-layer metric, the module it measures and the
// end-to-end metric and workload it is expected to move.
type layerMetric struct {
	name, unit, layer, moves string
}

// layerTable is every per-layer metric the traced runs report, in print
// order. The subset every workload measures is in BENCHMARK.json.
var layerTable = []layerMetric{
	{"serve.self_ms_p50", "ms", "cmd/nvrel serve handler", "p50_ms, cpu_ms_per_req @ serve-hot"},
	{"serve.self_ms_p99", "ms", "cmd/nvrel serve handler", "p99_ms, max_rps @ serve-hot"},
	{"servecache.hit_ratio", "ratio", "servecache", "p50_ms @ serve-hot"},
	{"servecache.evict", "count", "servecache", "p50_ms @ serve-hot"},
	{"servecache.coalesced", "count", "servecache", "p50_ms @ serve-hot"},
	{"servecache.get_us", "us", "servecache", "p50_ms @ serve-hot"},
	{"parallel.pool.runs_per_miss", "ratio", "parallel", "p99_ms, max_rps, cpu_ms_per_req @ serve-hot"},
	{"parallel.dispatch_us", "us", "parallel", "p99_ms, max_rps, cpu_ms_per_req @ serve-hot"},
	{"obs.trace_summary_us", "us", "obs", "p99_ms, cpu_ms_per_req @ serve-hot"},
	{"events.dropped", "count", "obs", "p99_ms, cpu_ms_per_req @ serve-hot"},
	{"nvp.build_us", "us", "nvp", "p99_ms @ serve-hot; setup_s @ serve-hot, serve-cold"},
	{"nvp.cache.hit", "count", "nvp", "p99_ms @ serve-hot"},
	{"nvp.cache.miss", "count", "nvp", "setup_s @ serve-hot, serve-cold"},
	{"petri.restamp", "count", "petri", "p99_ms @ serve-hot"},
	{"petri.explore.states", "count", "petri", "setup_s @ serve-hot, serve-cold"},
	{"warm.seeded_ratio", "ratio", "warmstart", "p50_ms, solves_per_s @ serve-cold"},
	{"mrgp.solve_ms_p50", "ms", "mrgp", "p50_ms, p90_ms, solves_per_s, batch_p50_ms @ serve-cold"},
	{"mrgp.cycles_per_solve", "ratio", "mrgp", "p50_ms, p90_ms, solves_per_s, batch_p50_ms @ serve-cold"},
	{"mrgp.solve.routed_sparse", "count", "mrgp", "solves_per_s @ serve-cold"},
	{"mrgp.solve.routed_dense", "count", "mrgp", "none (paper-scale models route dense everywhere)"},
	{"linalg.unif.terms_per_solve", "ratio", "linalg", "solves_per_s @ serve-cold"},
	{"linalg.unif.series_per_solve", "ratio", "linalg", "solves_per_s @ serve-cold"},
	{"linalg.flops_per_solve", "flop", "linalg", "solves_per_s @ serve-cold (computed: 2*nnz*terms)"},
	{"linalg.arena.hit_ratio", "ratio", "linalg", "solves_per_s @ serve-cold"},
	{"reliability.sum_us", "us", "reliability", "none expected; kept to prove it"},
	{"batch.groups_per_batch", "ratio", "serve batch path", "batch_p50_ms @ serve-cold"},
	{"batch.unique_solves", "ratio", "serve batch path", "batch_p50_ms @ serve-cold"},
	{"parallel.pool.utilization", "ratio", "parallel", "analytic_s, wall_s @ run-all"},
	{"des.events", "count", "des", "simulation_s @ run-all"},
	{"des.events_per_s", "1/s", "des", "simulation_s @ run-all"},
	{"percept.replications", "count", "percept", "simulation_s @ run-all"},
}

// counterLayers fills the metrics every process reports through obs
// counters, from a before/after pair of snapshots. Ratios keep their base.
// Each workload measures all of them; a layer the workload bypasses reads
// zero, which is itself the prediction.
func counterLayers(dst map[string]layerValue, c0, c1 map[string]int64) {
	d := func(name string) float64 { return float64(counterDelta(c0, c1, name)) }
	count := func(metric, counter string) {
		dst[metric] = layerValue{value: d(counter), unit: "count"}
	}
	per := func(metric string, num, den float64, base string) {
		r := ratio{num, den}
		dst[metric] = layerValue{value: r.value(), unit: "ratio", base: fmt.Sprintf("%.0f / %.0f %s", num, den, base)}
	}
	count("servecache.evict", "servecache.evict")
	count("servecache.coalesced", "servecache.coalesced")
	count("events.dropped", "events.dropped")
	count("nvp.cache.hit", "nvp.cache.hit")
	count("nvp.cache.miss", "nvp.cache.miss")
	count("petri.restamp", "petri.restamp")
	count("petri.explore.states", "petri.explore.states")
	count("mrgp.solve.routed_sparse", "mrgp.solve.routed_sparse")
	count("mrgp.solve.routed_dense", "mrgp.solve.routed_dense")
	count("des.events", "des.events")
	count("percept.replications", "percept.replications")
	sparse := d("mrgp.solve.routed_sparse")
	mrgpSolves := sparse + d("mrgp.solve.routed_dense")
	per("mrgp.cycles_per_solve", d("mrgp.power.cycles"), sparse, "power cycles / sparse MRGP solves")
	per("linalg.unif.terms_per_solve", d("linalg.unif.terms"), mrgpSolves, "uniformization terms / MRGP solves")
	per("linalg.unif.series_per_solve", d("linalg.unif.series"), mrgpSolves, "uniformization series / MRGP solves")
	hits := d("linalg.arena.hit")
	per("linalg.arena.hit_ratio", hits, hits+d("linalg.arena.miss"), "arena hits / arena gets")
	busy, wall := d("parallel.pool.busy_ns"), d("parallel.pool.wall_ns")
	per("parallel.pool.utilization", busy, wall*float64(conns), "busy ns / (wall ns x 2 workers)")
}

// replyStats is what the serve workloads learn from the daemon's own
// replies: handler self time, and pool items per leader miss from the
// trace summary a leader miss carries.
type replyStats struct {
	selfMS       []float64
	answered     int // points answered (batch items count one each)
	leaderMisses int
	poolItems    int
	sparseMisses int
	seeded       int
}

// noteSolve adds one /solve exchange that took roundTrip on the client.
func (st *replyStats) noteSolve(r reply, roundTripMS float64) {
	var sr solveReply
	if r.decode(&sr) != nil {
		return
	}
	st.answered++
	st.selfMS = append(st.selfMS, roundTripMS-1e3*sr.ElapsedSeconds)
	if sr.Cache != "miss" {
		return
	}
	if len(sr.Trace) > 0 {
		st.leaderMisses++
		for _, t := range sr.Trace {
			if t.Name == "parallel.item" {
				st.poolItems++
			}
		}
	}
	if sr.States >= sparseStates {
		st.sparseMisses++
		if sr.Diag != nil && sr.Diag.Seeded {
			st.seeded++
		}
	}
}

// sparseStates is linalg.SparseThreshold: models this large take the
// sparse solvers.
const sparseStates = 160

// serveLayers fills the per-layer metrics a serve workload takes from the
// daemon: /metrics.json deltas and the reply-derived stats.
func serveLayers(dst map[string]layerValue, st *replyStats, m0, m1 metricsDoc) {
	counterLayers(dst, m0.Metrics.Counters, m1.Metrics.Counters)
	if v, err := percentile(st.selfMS, 0.5); err == nil {
		dst["serve.self_ms_p50"] = layerValue{value: v, unit: "ms", n: len(st.selfMS)}
	}
	if q, v, err := highestTail(st.selfMS, 0.99, 0.9); err == nil {
		dst["serve.self_ms_p99"] = layerValue{value: v, unit: "ms", n: len(st.selfMS), base: fmt.Sprintf("p%g", 100*q)}
	}
	hit := float64(counterDelta(m0.Metrics.Counters, m1.Metrics.Counters, "servecache.hit"))
	dst["servecache.hit_ratio"] = layerValue{value: ratio{hit, float64(st.answered)}.value(), unit: "ratio",
		base: fmt.Sprintf("%.0f servecache hits / %d answered points", hit, st.answered)}
	dst["parallel.pool.runs_per_miss"] = layerValue{value: ratio{float64(st.poolItems), float64(st.leaderMisses)}.value(), unit: "ratio",
		base: fmt.Sprintf("%d parallel.item spans / %d leader misses", st.poolItems, st.leaderMisses)}
	dst["warm.seeded_ratio"] = layerValue{value: ratio{float64(st.seeded), float64(st.sparseMisses)}.value(), unit: "ratio",
		base: fmt.Sprintf("%d seeded / %d sparse misses", st.seeded, st.sparseMisses)}
}

// roundTripMS is a sample's client round trip (send to last byte).
func (s *sample) roundTripMS() float64 { return float64(s.done-s.sent) / 1e6 }

// okStatus reports whether an exchange got an answer at all.
func okStatus(r reply) bool { return r.err == nil && r.status == http.StatusOK }
