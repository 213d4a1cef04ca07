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

// UniformizedPower computes pi * e^{Q t} for a CTMC generator Q using
// uniformization. rate must be >= max_i |Q[i,i]|; pass 0 to have it derived
// from Q. epsilon bounds the truncation error.
func UniformizedPower(q *Dense, pi []float64, t, rate, epsilon float64) ([]float64, error) {
	return (*Workspace)(nil).UniformizedPower(q, pi, t, rate, epsilon, nil)
}

// UniformizedPower is the workspace-backed form of the package-level
// function: scratch vectors, the uniformized DTMC matrix, and the Poisson
// weights come from the workspace, and the result is written into dst when
// it is non-nil (it must then have length n). After the first call at a
// given size the steady state allocates nothing. The result is
// float-for-float identical to the allocating path.
func (ws *Workspace) UniformizedPower(q *Dense, pi []float64, t, rate, epsilon float64, dst []float64) ([]float64, error) {
	n, cols := q.Dims()
	if n != cols || len(pi) != n {
		return nil, ErrDimensionMismatch
	}
	if dst == nil {
		dst = make([]float64, n)
	} else if len(dst) != n {
		return nil, ErrDimensionMismatch
	}
	if t < 0 {
		return nil, ErrDimensionMismatch
	}
	if rate <= 0 {
		rate = uniformizationRate(q)
	}
	if rate == 0 || t == 0 {
		copy(dst, pi)
		return dst, nil
	}
	pt := ws.uniformizedDTMCT(q, rate)
	defer ws.PutCSR(pt)
	weights, right := ws.Poisson(rate*t, epsilon)

	cur := ws.Vec(n)
	next := ws.Vec(n)
	copy(cur, pi)
	clear(dst)
	for k := 0; k <= right; k++ {
		w := weights[k]
		for i := range dst {
			dst[i] += w * cur[i]
		}
		if k == right {
			break
		}
		if err := pt.MulVecInto(next, cur); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	ws.PutVec(cur)
	ws.PutVec(next)
	return dst, nil
}

// UniformizedIntegral computes pi * Integral_0^t e^{Q s} ds using
// uniformization. The result, dotted with a reward vector, yields the
// expected accumulated reward over [0, t] starting from distribution pi.
//
// Using the identity
//
//	Integral_0^t e^{Qs} ds = (1/rate) * sum_{k>=0} tailP(k) * P^k
//
// where tailP(k) = P[K > k] for K ~ Poisson(rate*t).
func UniformizedIntegral(q *Dense, pi []float64, t, rate, epsilon float64) ([]float64, error) {
	return (*Workspace)(nil).UniformizedIntegral(q, pi, t, rate, epsilon, nil)
}

// UniformizedIntegral is the workspace-backed form of the package-level
// function; see Workspace.UniformizedPower for the dst and reuse contract.
func (ws *Workspace) UniformizedIntegral(q *Dense, pi []float64, t, rate, epsilon float64, dst []float64) ([]float64, error) {
	n, cols := q.Dims()
	if n != cols || len(pi) != n {
		return nil, ErrDimensionMismatch
	}
	if dst == nil {
		dst = make([]float64, n)
	} else if len(dst) != n {
		return nil, ErrDimensionMismatch
	}
	if t < 0 {
		return nil, ErrDimensionMismatch
	}
	clear(dst)
	if t == 0 {
		return dst, nil
	}
	if rate <= 0 {
		rate = uniformizationRate(q)
	}
	if rate == 0 {
		// Q == 0: the chain never moves; integral is t * pi.
		for i := range dst {
			dst[i] = t * pi[i]
		}
		return dst, nil
	}
	pt := ws.uniformizedDTMCT(q, rate)
	defer ws.PutCSR(pt)
	weights, right := ws.Poisson(rate*t, epsilon)
	// tail[k] = P[K > k] = 1 - sum_{j<=k} w[j]
	tail := ws.Vec(right + 1)
	acc := 0.0
	for k := 0; k <= right; k++ {
		acc += weights[k]
		tail[k] = 1 - acc
		if tail[k] < 0 {
			tail[k] = 0
		}
	}
	cur := ws.Vec(n)
	next := ws.Vec(n)
	copy(cur, pi)
	for k := 0; k <= right; k++ {
		w := tail[k] / rate
		for i := range dst {
			dst[i] += w * cur[i]
		}
		if k == right {
			break
		}
		if err := pt.MulVecInto(next, cur); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	ws.PutVec(cur)
	ws.PutVec(next)
	ws.PutVec(tail)
	// The truncated series omits sum_{k>right} tail(k)/rate ~= 0 by choice
	// of right; additionally t - sum_k tail(k)/rate == 0 analytically, so
	// rescale the total mass to t for exactness.
	var total float64
	for _, v := range dst {
		total += v
	}
	if total > 0 {
		scale := t / total
		// Only rescale when the truncation error is small; otherwise the
		// scale factor would hide a real problem.
		if math.Abs(scale-1) < 1e-6 {
			for i := range dst {
				dst[i] *= scale
			}
		}
	}
	return dst, nil
}

// uniformizationRate returns max_i |Q[i,i]| times a small safety margin.
func uniformizationRate(q *Dense) float64 {
	n, _ := q.Dims()
	var max float64
	for i := 0; i < n; i++ {
		if a := math.Abs(q.At(i, i)); a > max {
			max = a
		}
	}
	return max * 1.02
}

// uniformizedDTMCT returns the transpose of P = I + Q/rate as a workspace
// CSR; release it with ws.PutCSR. P has the generator's sparsity, so each
// series term cur * P costs O(nnz) as a gather over Pᵀ instead of the
// dense vector product's O(n^2), with the same sums in the same order (the
// dense product's zero entries of P only ever add +0).
func (ws *Workspace) uniformizedDTMCT(q *Dense, rate float64) *CSR {
	n, _ := q.Dims()
	p := ws.Mat(n, n)
	defer ws.PutMat(p)
	p.CopyFrom(q)
	p.Scale(1 / rate)
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	return ws.CSRFromDenseT(p)
}
