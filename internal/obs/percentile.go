package obs

import "sort"

// Percentile returns the q-quantile (0 <= q <= 1) of samples by the
// nearest-rank method on a sorted copy. It is exact — the load generator
// uses it to report p50/p95/p99 from its recorded per-request latencies,
// where a gate like "hit p50 at least 10x faster than miss p50" needs
// real resolution; the registry's histograms only bound a quantile to
// its bucket.
// Returns 0 for an empty sample set. NaNs sort to the front and should be
// filtered by the caller.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	// Nearest rank: ceil(q*n) in 1-based ranks, clamped.
	rank := int(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
