package linalg

import (
	"math"
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
	var sum float64
	for k := 0; k <= right; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
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
