package mrgp

import (
	"nvrel/internal/linalg"
)

// transientTarget is the uniformization mass (rate x time) at which the
// base-case series is evaluated; longer horizons are reached by doubling.
const transientTarget = 32

// transientPair computes T = e^{Q t} and U = Integral_0^t e^{Q s} ds as
// matrices. Both come from ws (nil allocates); release them with ws.PutMat.
// State spaces of linalg.SparseThreshold states or more subordinate the
// series through the CSR kernels (O(n*nnz) per term with no dense-dense
// products); smaller ones use the dense scaling-and-doubling path.
func transientPair(ws *linalg.Workspace, q *linalg.Dense, t float64) (tm, um *linalg.Dense, err error) {
	if n, _ := q.Dims(); n >= linalg.SparseThreshold {
		qc := linalg.CSRFromDense(q)
		return transientPairCSR(ws, qc, t)
	}
	return transientPairDense(ws, q, t)
}

// transientPairDense computes the pair with dense scaling and doubling.
//
// Direct uniformization needs O(rate*t) series terms; with the paper's
// rejuvenation intervals (hundreds to thousands of seconds against a 1/3 Hz
// repair rate) that is over a thousand matrix terms. Scaling and doubling
// evaluates the series at t/2^k where rate*t/2^k <= transientTarget and
// then applies
//
//	T(2s) = T(s) T(s)
//	U(2s) = U(s) + T(s) U(s)
//
// k times, reducing the work by roughly rate*t/(transientTarget + 3k).
func transientPairDense(ws *linalg.Workspace, q *linalg.Dense, t float64) (tm, um *linalg.Dense, err error) {
	n, _ := q.Dims()
	rate := maxExitRate(q)
	if rate == 0 || t == 0 {
		// Frozen chain: T = I, U = t*I.
		tm = ws.Mat(n, n)
		um = ws.Mat(n, n)
		for i := 0; i < n; i++ {
			tm.Set(i, i, 1)
			um.Set(i, i, t)
		}
		return tm, um, nil
	}

	doublings := 0
	base := t
	for rate*base > transientTarget {
		base /= 2
		doublings++
	}

	tm, um, err = uniformizedPair(ws, q, rate, base)
	if err != nil {
		return nil, nil, err
	}
	if doublings > 0 {
		tu := ws.Mat(n, n)
		tmp := ws.Mat(n, n)
		for i := 0; i < doublings; i++ {
			if err := tu.MulInto(tm, um); err != nil {
				return nil, nil, err
			}
			if err := um.AddMat(tu); err != nil {
				return nil, nil, err
			}
			if err := tmp.MulInto(tm, tm); err != nil {
				return nil, nil, err
			}
			tm, tmp = tmp, tm
		}
		ws.PutMat(tu)
		ws.PutMat(tmp)
	}
	return tm, um, nil
}

// uniformizedPair evaluates both series at horizon t directly. tm and um
// come from ws; release them with ws.PutMat.
func uniformizedPair(ws *linalg.Workspace, q *linalg.Dense, rate, t float64) (tm, um *linalg.Dense, err error) {
	n, _ := q.Dims()
	p := ws.Mat(n, n)
	defer ws.PutMat(p)
	p.CopyFrom(q)
	p.Scale(1 / rate)
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	// P has the generator's sparsity, so each term multiplies by it in CSR
	// form: O(n*nnz) instead of O(n^3), and the same sums in the same order
	// (the dense product's zero entries of P only ever add +0).
	pc := linalg.CSRFromDense(p)
	weights, right := ws.Poisson(rate*t, truncationEpsilon)
	tail := ws.Vec(right + 1)
	acc := 0.0
	for k := 0; k <= right; k++ {
		acc += weights[k]
		tail[k] = 1 - acc
		if tail[k] < 0 {
			tail[k] = 0
		}
	}

	tm = ws.Mat(n, n)
	um = ws.Mat(n, n)
	power := ws.Mat(n, n) // P^k
	next := ws.Mat(n, n)
	for i := 0; i < n; i++ {
		power.Set(i, i, 1)
	}
	for k := 0; k <= right; k++ {
		addScaled(tm, power, weights[k])
		addScaled(um, power, tail[k]/rate)
		if k == right {
			break
		}
		if err := next.MulCSRInto(power, pc); err != nil {
			return nil, nil, err
		}
		power, next = next, power
	}
	ws.PutMat(power)
	ws.PutMat(next)
	ws.PutVec(tail)
	return tm, um, nil
}

// transientPairCSR evaluates both series at the full horizon with the
// matrix powers subordinated through the CSR kernel: each term costs
// O(n*nnz) instead of the dense product's O(n^3), so skipping the doubling
// shortcut (whose squarings are dense-dense) is a net win once the
// generator is sparse. tm and um come from ws; release them with ws.PutMat.
func transientPairCSR(ws *linalg.Workspace, q *linalg.CSR, t float64) (tm, um *linalg.Dense, err error) {
	n, _ := q.Dims()
	rate := q.MaxAbsDiag() * 1.02
	if rate == 0 || t == 0 {
		tm = ws.Mat(n, n)
		um = ws.Mat(n, n)
		for i := 0; i < n; i++ {
			tm.Set(i, i, 1)
			um.Set(i, i, t)
		}
		return tm, um, nil
	}

	// P = I + Q/rate, kept in CSR form (same pattern as Q).
	p := ws.CSR(n, n, q.NNZ())
	defer ws.PutCSR(p)
	copy(p.RowPtr, q.RowPtr)
	copy(p.ColIdx, q.ColIdx)
	for i := 0; i < n; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			v := q.Vals[k] / rate
			if q.ColIdx[k] == i {
				v++
			}
			p.Vals[k] = v
		}
	}

	weights, right := ws.Poisson(rate*t, truncationEpsilon)
	tail := ws.Vec(right + 1)
	acc := 0.0
	for k := 0; k <= right; k++ {
		acc += weights[k]
		tail[k] = 1 - acc
		if tail[k] < 0 {
			tail[k] = 0
		}
	}

	tm = ws.Mat(n, n)
	um = ws.Mat(n, n)
	power := ws.Mat(n, n) // P^k
	next := ws.Mat(n, n)
	for i := 0; i < n; i++ {
		power.Set(i, i, 1)
	}
	for k := 0; k <= right; k++ {
		addScaled(tm, power, weights[k])
		addScaled(um, power, tail[k]/rate)
		if k == right {
			break
		}
		if err := next.MulCSRInto(power, p); err != nil {
			return nil, nil, err
		}
		power, next = next, power
	}
	ws.PutMat(power)
	ws.PutMat(next)
	ws.PutVec(tail)
	return tm, um, nil
}

// addScaled accumulates dst += s * src.
func addScaled(dst, src *linalg.Dense, s float64) {
	if s == 0 {
		return
	}
	rows, cols := dst.Dims()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst.Add(i, j, s*src.At(i, j))
		}
	}
}

// maxExitRate returns the uniformization rate max_i |Q[i,i]| with a small
// safety margin.
func maxExitRate(q *linalg.Dense) float64 {
	n, _ := q.Dims()
	var max float64
	for i := 0; i < n; i++ {
		d := q.At(i, i)
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max * 1.02
}
