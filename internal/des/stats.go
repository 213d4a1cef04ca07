package des

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nvrel/internal/parallel"
)

// Accumulator computes running mean and variance (Welford's algorithm).
// The zero value is an empty accumulator.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add records a sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.Variance() / float64(a.n))
}

// Summary is a replication estimate with a 95% confidence interval.
type Summary struct {
	Mean   float64
	StdErr float64
	Lo, Hi float64 // 95% confidence bounds
	N      int
}

// Contains reports whether v lies inside the confidence interval.
func (s Summary) Contains(v float64) bool { return v >= s.Lo && v <= s.Hi }

// String formats the summary for reports.
func (s Summary) String() string {
	return fmt.Sprintf("%.6f ± %.6f (95%% CI [%.6f, %.6f], n=%d)", s.Mean, 1.96*s.StdErr, s.Lo, s.Hi, s.N)
}

// Summarize converts an accumulator into a Summary using the normal
// approximation (adequate for the >=30 replications used here).
func (a *Accumulator) Summarize() Summary {
	se := a.StdErr()
	return Summary{
		Mean:   a.mean,
		StdErr: se,
		Lo:     a.mean - 1.96*se,
		Hi:     a.mean + 1.96*se,
		N:      a.n,
	}
}

// Streams forks n per-replication streams from a master seeded with seed,
// serially and in replication order, so stream i is the same whatever
// runs the replications. Each stream is its own cache line (see RNG), so
// replications drawing from neighbouring streams on different cores do
// not contend.
func Streams(seed uint64, n int) []*RNG {
	master := NewRNG(seed)
	rngs := make([]*RNG, n)
	for rep := range rngs {
		rngs[rep] = master.Fork()
	}
	return rngs
}

// Replicate runs f for n independent replications in parallel and
// summarizes the results. Each replication receives its index and its
// stream from Streams. All streams are forked before any replication
// starts and the samples are accumulated in replication order, so the
// summary is bit-identical at every worker count.
func Replicate(n int, seed uint64, f func(rep int, rng *RNG) (float64, error)) (Summary, error) {
	if n <= 0 {
		return Summary{}, errors.New("des: replication count must be positive")
	}
	rngs := Streams(seed, n)
	values := make([]float64, n)
	err := parallel.ForEach(n, func(rep int) error {
		v, err := f(rep, rngs[rep])
		if err != nil {
			return fmt.Errorf("replication %d: %w", rep, err)
		}
		values[rep] = v
		return nil
	})
	if err != nil {
		return Summary{}, err
	}
	var acc Accumulator
	for _, v := range values {
		acc.Add(v)
	}
	return acc.Summarize(), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples using the
// nearest-rank method on a sorted copy. It returns 0 for an empty sample.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// TimeWeighted accumulates a time-weighted average of a piecewise-constant
// signal, e.g. the fraction of time a module spends healthy.
type TimeWeighted struct {
	lastTime  float64
	lastValue float64
	area      float64
	started   bool
}

// Observe records that the signal holds value v from time t onward.
// Observations must be non-decreasing in t.
func (w *TimeWeighted) Observe(t, v float64) {
	if w.started {
		if t < w.lastTime {
			panic("des: time-weighted observation out of order")
		}
		w.area += (t - w.lastTime) * w.lastValue
	}
	w.lastTime, w.lastValue, w.started = t, v, true
}

// Average closes the window at time t and returns the time-weighted mean
// over [0, t]; the signal counts as zero before the first observation.
func (w *TimeWeighted) Average(t float64) float64 {
	if !w.started || t <= 0 {
		return 0
	}
	area := w.area + (t-w.lastTime)*w.lastValue
	return area / t
}
