package linalg

import "math"

// ApplySeed installs a warm-start initial guess into an iterative solver's
// iterate vector. A seed is usable only when it is plausibly a point near
// the probability simplex the iteration converges on: the right length,
// every entry finite and non-negative, and a positive total mass whose
// reciprocal is finite. A usable seed is copied into dst and normalized;
// anything else leaves dst untouched and reports false, so the caller
// falls back to the uniform vector — a corrupted or mismatched seed can
// cost the warm-start benefit but can never change what the iteration
// converges to.
//
// A nil seed means "cold by design" and is not counted by the seed
// metrics; a non-nil seed increments linalg.seed.warm when accepted and
// linalg.seed.rejected when refused, so chaos runs that corrupt seeds
// leave counter evidence of the graceful degradation.
func ApplySeed(dst, seed []float64) bool {
	if seed == nil {
		return false
	}
	if len(seed) != len(dst) {
		metSeedRejected.Inc()
		return false
	}
	var sum float64
	for _, v := range seed {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			metSeedRejected.Inc()
			return false
		}
		sum += v
	}
	// The mass must be positive, finite and invertible: a total below
	// ~5.6e-309 overflows 1/sum and would write Inf and NaN into dst.
	inv := 1 / sum
	if sum <= 0 || math.IsInf(sum, 0) || math.IsInf(inv, 0) {
		metSeedRejected.Inc()
		return false
	}
	for i, v := range seed {
		dst[i] = v * inv
	}
	metSeedWarm.Inc()
	return true
}
