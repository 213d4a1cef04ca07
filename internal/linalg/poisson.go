package linalg

import (
	"math"
	"sync/atomic"
)

// PoissonWeights returns the Poisson probabilities P[K = k] for k in
// [0, right] with mean lambda, together with the chosen truncation point.
// The truncation point is selected so the neglected right tail is below
// epsilon. The weights are computed in log space to avoid overflow for
// large lambda and renormalized to sum to one over the returned range.
//
// These weights drive uniformization: e^{Qt} = sum_k Poisson(k; qt) P^k.
func PoissonWeights(lambda, epsilon float64) (weights []float64, right int) {
	if lambda < 0 {
		panic("linalg: negative Poisson mean")
	}
	if epsilon <= 0 {
		epsilon = 1e-12
	}
	if lambda == 0 {
		return []float64{1}, 0
	}
	// A generous truncation: mean + c*sqrt(mean) covers the tail; grow the
	// constant until the analytic tail bound is satisfied.
	right = int(math.Ceil(lambda + 6*math.Sqrt(lambda) + 10))
	for poissonRightTail(lambda, right) > epsilon {
		right += int(math.Ceil(2*math.Sqrt(lambda))) + 5
	}
	weights = make([]float64, right+1)
	logLambda := math.Log(lambda)
	// log P[K=k] = -lambda + k*log(lambda) - lgamma(k+1)
	lgamma := logFactorials(min(right+1, logFactorialCap))
	// Past the table, the weights of k below skipTo are exp's underflow,
	// +0, as make left them: no lgamma is computed for them.
	skipTo := underflowEnd(lambda, logLambda, len(lgamma))
	var sum float64
	for k := 0; k <= right; k++ {
		var lg float64
		switch {
		case k < len(lgamma):
			lg = lgamma[k]
		case k < skipTo:
			continue
		default:
			lg, _ = math.Lgamma(float64(k + 1))
		}
		weights[k] = math.Exp(-lambda + float64(k)*logLambda - lg)
		sum += weights[k]
	}
	for k := range weights {
		weights[k] /= sum
	}
	// 1 - sum is the truncated tail mass (the weights themselves are
	// renormalized above, so record the deficit before it vanishes).
	metUnifK.Observe(float64(right))
	metUnifTail.Set(1 - sum)
	return weights, right
}

// logFactorialCap bounds the lgamma table at 32 KiB: it covers every
// series of uniformization mass up to ~3900, and longer series compute
// the rest of their terms directly.
const logFactorialCap = 4096

// logFactorialTable holds lgamma(k+1) for k = 0, 1, ..., len-1. A table
// is never written after it is published; a longer one replaces it.
var logFactorialTable atomic.Pointer[[]float64]

// logFactorials returns a table of at least n entries (n <=
// logFactorialCap) whose entry k is math.Lgamma(k+1), bit for bit. The
// table grows on first demand (at least doubling, up to the cap), so
// nothing is computed at init; concurrent growers compute the same
// values and the last store wins.
func logFactorials(n int) []float64 {
	var old []float64
	if t := logFactorialTable.Load(); t != nil {
		old = *t
		if len(old) >= n {
			return old
		}
	}
	t := make([]float64, min(max(n, 2*len(old)), logFactorialCap))
	copy(t, old)
	for k := len(old); k < len(t); k++ {
		t[k], _ = math.Lgamma(float64(k + 1))
	}
	logFactorialTable.Store(&t)
	return t
}

// underflowEnd returns the first k >= from at which the log weight
// -lambda + k*log(lambda) - lgamma(k+1) may exceed -800, searching only
// below the mode. Every k in [from, result) has a log weight below -800
// by Stirling's lower bound lgamma(k+1) >= k*log(k) - k + log(2*pi*k)/2,
// so its weight underflows exp (to +0 below about -745) whatever the
// rounding of the terms, which are off by far less than the margin.
// Below the mode the bound increases with k, so the search bisects.
func underflowEnd(lambda, logLambda float64, from int) int {
	logWeightAbove := func(k int) bool {
		x := float64(k)
		return -lambda+x*logLambda-(x*math.Log(x)-x+0.5*math.Log(2*math.Pi*x)) >= -800
	}
	lo, hi := max(from, 1), int(lambda)-1
	if lo >= hi || logWeightAbove(lo) {
		return from
	}
	// logWeightAbove(lo) is false and logWeightAbove(hi) is true: the
	// bound near the mode is about -log(2*pi*lambda)/2.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if logWeightAbove(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// poissonRightTail bounds P[K > right] for K ~ Poisson(lambda) using a
// Chernoff bound. It is intentionally conservative.
func poissonRightTail(lambda float64, right int) float64 {
	r := float64(right)
	if r <= lambda {
		return 1
	}
	// Chernoff: P[K >= r] <= exp(-lambda) (e*lambda/r)^r for r > lambda.
	logBound := -lambda + r*(1+math.Log(lambda/r))
	return math.Exp(logBound)
}

// UniformizationRate returns the uniformization rate for a generator
// whose largest exit rate max_i |Q[i,i]| is maxExit: that rate with a 2%
// safety margin, so every diagonal entry of P = I + Q/rate stays strictly
// positive. Every uniformization series and the power-iteration backstop
// derive their rate through this one rule.
func UniformizationRate(maxExit float64) float64 { return maxExit * 1.02 }
