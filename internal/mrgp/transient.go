package mrgp

import (
	"nvrel/internal/linalg"
)

// transientTarget is the uniformization mass (rate x time) at which the
// base-case series is evaluated; longer horizons are reached by doubling.
const transientTarget = 32

// transientPair computes T = e^{Q t} and U = Integral_0^t e^{Q s} ds as
// matrices by dense scaling and doubling: U(t) is derived from the
// retained squarings (see squarings.integral). Both come from ws (nil
// allocates); release them with ws.PutMat.
func transientPair(ws *linalg.Workspace, q *linalg.Dense, t float64) (tm, um *linalg.Dense, err error) {
	var pow [stackSquarings]*linalg.Dense
	sq, ub, err := newSquarings(ws, q, t, true, pow[:0])
	if err != nil {
		return nil, nil, err
	}
	um, err = sq.integral(ws, ub)
	if err != nil {
		sq.release(ws)
		return nil, nil, err
	}
	last := len(sq.pow) - 1
	tm = sq.pow[last]
	sq.pow = sq.pow[:last]
	sq.release(ws)
	return tm, um, nil
}

// squarings is the dense scaling-and-doubling form of the transient pair
// at horizon t. Direct uniformization needs O(rate*t) series terms; with
// the paper's rejuvenation intervals (hundreds to thousands of seconds
// against a 1/3 Hz repair rate) that is over a thousand matrix terms.
// Scaling and doubling evaluates the series at the base step
// b = t/2^d, where rate*b <= transientTarget, and squares:
//
//	pow[i] = T_b^{2^i},  i = 0..d,  so pow[d] = e^{Q t}.
//
// The integral U(t) = Integral_0^t e^{Q s} ds follows from the same
// squarings by U(2s) = U(s) + T(s) U(s), that is
//
//	U(t) = (I + pow[d-1]) ... (I + pow[0]) U_b,
//
// so a caller that only needs x U(t) applies d vector products and one
// base-step vector series instead of materializing U (see occupancy).
//
// A squarings holds no matrix outside pow, so its methods leak only the
// matrices and a caller's stack buffer behind pow stays on the stack.
type squarings struct {
	rate float64
	t    float64 // horizon
	base float64 // base step b = t/2^d
	pow  []*linalg.Dense
}

// stackSquarings is the length of the pow buffer callers of newSquarings
// keep on their stack: it holds the squarings of any horizon up to
// rate*t = transientTarget * 2^31, and a longer one grows it on the heap.
const stackSquarings = 32

// newSquarings evaluates the base step and squares it d times, appending
// the d+1 matrices to pow. All matrices come from ws; release them with
// sq.release. withU also returns the base-step integral matrix U_b,
// which squarings.integral consumes (nil otherwise).
func newSquarings(ws *linalg.Workspace, q *linalg.Dense, t float64, withU bool, pow []*linalg.Dense) (sq squarings, ub *linalg.Dense, err error) {
	n, _ := q.Dims()
	sq = squarings{rate: linalg.UniformizationRate(q.MaxAbsDiag()), t: t, base: t}
	if sq.frozen() {
		// Frozen chain: T = I, U = t*I.
		tm := ws.Mat(n, n)
		for i := 0; i < n; i++ {
			tm.Set(i, i, 1)
		}
		sq.pow = append(pow, tm)
		if withU {
			ub = ws.Mat(n, n)
			for i := 0; i < n; i++ {
				ub.Set(i, i, t)
			}
		}
		return sq, ub, nil
	}

	doublings := 0
	for sq.rate*sq.base > transientTarget {
		sq.base /= 2
		doublings++
	}
	tm, ub, err := uniformizedPair(ws, q, sq.rate, sq.base, withU)
	if err != nil {
		return squarings{}, nil, err
	}
	sq.pow = append(pow, tm)
	for i := 0; i < doublings; i++ {
		next := ws.Mat(n, n)
		sq.pow = append(sq.pow, next)
		if err := next.MulInto(sq.pow[i], sq.pow[i]); err != nil {
			sq.release(ws)
			ws.PutMat(ub)
			return squarings{}, nil, err
		}
	}
	return sq, ub, nil
}

// frozen reports the trivial cases T = I, U = t*I.
func (sq *squarings) frozen() bool { return sq.rate == 0 || sq.t == 0 }

// T returns e^{Q t}; it stays owned by sq.
func (sq *squarings) T() *linalg.Dense { return sq.pow[len(sq.pow)-1] }

// integral returns U(t) as a matrix, built by U_{i+1} = U_i + pow[i] U_i
// from the base-step integral um, which it consumes. The result is
// handed to the caller (release it with ws.PutMat).
func (sq *squarings) integral(ws *linalg.Workspace, um *linalg.Dense) (*linalg.Dense, error) {
	if len(sq.pow) == 1 {
		return um, nil
	}
	n, _ := um.Dims()
	tu := ws.Mat(n, n)
	defer ws.PutMat(tu)
	for _, p := range sq.pow[:len(sq.pow)-1] {
		if err := tu.MulInto(p, um); err != nil {
			ws.PutMat(um)
			return nil, err
		}
		if err := um.AddMat(tu); err != nil {
			ws.PutMat(um)
			return nil, err
		}
	}
	return um, nil
}

// occupancy writes dst = x U(t) without forming U(t): x is carried
// through the factors (I + pow[i]) from the largest square down, and the
// base-step integral is applied as a vector uniformization series over
// qt, the transpose of the generator the squarings were built from in CSR
// form.
func (sq *squarings) occupancy(ws *linalg.Workspace, qt *linalg.CSR, x, dst []float64) error {
	if sq.frozen() {
		for j, v := range x {
			dst[j] = sq.t * v
		}
		return nil
	}
	v := ws.Vec(len(x))
	defer ws.PutVec(v)
	tmp := ws.Vec(len(x))
	defer ws.PutVec(tmp)
	copy(v, x)
	for i := len(sq.pow) - 2; i >= 0; i-- {
		if err := sq.pow[i].VecMulInto(tmp, v); err != nil {
			return err
		}
		for j, w := range tmp {
			v[j] += w
		}
	}
	_, err := ws.UniformizedIntegralCSR(qt, v, sq.base, sq.rate, truncationEpsilon, dst)
	return err
}

// release returns every matrix still held by sq to ws.
func (sq *squarings) release(ws *linalg.Workspace) {
	for _, p := range sq.pow {
		ws.PutMat(p)
	}
	sq.pow = nil
}

// uniformizedPair evaluates the series for T and, when withU is set, U at
// horizon t directly (um is nil otherwise). tm and um come from ws;
// release them with ws.PutMat.
//
// The series runs transposed: (P^{k+1})ᵀ = Pᵀ (P^k)ᵀ, so row j of the
// next power is the combination of the current power's rows listed in
// column j of P, one lane call over contiguous rows (Dense.MulCSRInto),
// with the updates tm += w_k P^k and um += (tail_k/rate) P^k fused into
// its stores. Every element is the same ascending sum over column j of P
// from +0 as the untransposed product's, and every update the same
// multiply and add, so after one transpose at the end tm and um carry
// the untransposed series' bits.
func uniformizedPair(ws *linalg.Workspace, q *linalg.Dense, rate, t float64, withU bool) (tm, um *linalg.Dense, err error) {
	n, _ := q.Dims()
	p := ws.Mat(n, n)
	p.CopyFrom(q)
	p.Scale(1 / rate)
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	// Pᵀ in CSR form lists column j of P as row j, so a term costs
	// O(n*nnz) instead of O(n^3), with the dense product's sums in its
	// order (P's zero entries only ever add +0).
	pt := ws.CSRFromDenseT(p)
	ws.PutMat(p)
	defer ws.PutCSR(pt)
	weights, right := ws.Poisson(rate*t, truncationEpsilon)
	var tail []float64
	if withU {
		tail = ws.Vec(right + 1)
		defer ws.PutVec(tail)
		acc := 0.0
		for k := 0; k <= right; k++ {
			acc += weights[k]
			tail[k] = 1 - acc
			if tail[k] < 0 {
				tail[k] = 0
			}
		}
		um = ws.Mat(n, n)
	}

	tm = ws.Mat(n, n)
	power := ws.Mat(n, n) // (P^k)ᵀ
	next := ws.Mat(n, n)
	for i := 0; i < n; i++ {
		power.Set(i, i, 1)
	}
	tm.AddScaled(power, weights[0])
	if withU {
		um.AddScaled(power, tail[0]/rate)
	}
	for k := 1; k <= right; k++ {
		fu := linalg.Fused{M: um}
		if withU {
			fu.S = tail[k] / rate
		}
		if err := next.MulCSRInto(pt, power, linalg.Fused{M: tm, S: weights[k]}, fu); err != nil {
			ws.PutMat(power)
			ws.PutMat(next)
			return nil, nil, err
		}
		power, next = next, power
	}
	// Transpose back into the two scratch powers, which tm and um leave
	// (n x n into n x n cannot fail).
	_ = power.TransposeFrom(tm)
	tm, power = power, tm
	if withU {
		_ = next.TransposeFrom(um)
		um, next = next, um
	}
	ws.PutMat(power)
	ws.PutMat(next)
	return tm, um, nil
}
