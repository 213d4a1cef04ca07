package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have beyond
// it; a tail estimated from fewer is noise.
const minTail = 10

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of samples, refusing any
// q that leaves fewer than minTail samples beyond it. The median of a
// sample of at least one is always allowed.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*q)
	}
	r := rankOf(q, n)
	if q > 0.5 && n-r < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-r, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[r-1], nil
}

// median is percentile(samples, 0.5) for callers that know samples is
// non-empty; it returns NaN otherwise.
func median(samples []float64) float64 {
	v, err := percentile(samples, 0.5)
	if err != nil {
		return math.NaN()
	}
	return v
}

// highestTail returns the highest of the candidate quantiles (tried in
// order) that samples can support, with its value.
func highestTail(samples []float64, candidates ...float64) (q, v float64, err error) {
	for _, q := range candidates {
		if v, err := percentile(samples, q); err == nil {
			return q, v, nil
		}
	}
	return 0, 0, fmt.Errorf("no tail percentile supported by %d samples", len(samples))
}

// counterDelta is after − before for one named counter of two
// /metrics.json (or obs.Capture) snapshots.
func counterDelta(before, after map[string]int64, name string) int64 {
	return after[name] - before[name]
}

// ratio is num/den with its base kept, so every printed ratio can show
// what it was taken over. A zero base gives 0.
type ratio struct {
	num, den float64
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (= %.6g / %.6g)", r.value(), r.num, r.den)
}
