package mrgp

import (
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// Propagator computes transient distributions of a clock-synchronous DSPN
// (the same class Solve handles: one deterministic transition enabled in
// every tangible marking). Between clock ticks the state evolves as
// e^{Q s}; at each tick the branching matrix D applies, so
//
//	pi(t) = pi0 (e^{Q tau} D)^k e^{Q s},  t = k tau + s, 0 <= s < tau.
type Propagator struct {
	n     int
	delay float64
	q     *linalg.Dense
	qt    *linalg.CSR   // transposed sparse generator for large state spaces, else nil
	tTau  *linalg.Dense // e^{Q tau}
	uTau  *linalg.Dense // Integral_0^tau e^{Q t} dt
	d     *linalg.Dense // tick branching
}

// NewPropagator validates the graph and precomputes the cycle operators.
func NewPropagator(g *petri.Graph) (*Propagator, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, petri.ErrNoStates
	}
	if !g.HasDeterministic() {
		return nil, ErrNoDeterministic
	}
	delay, err := commonDelay(g)
	if err != nil {
		return nil, err
	}
	q, err := g.Generator()
	if err != nil {
		return nil, err
	}
	d := linalg.NewDense(n, n)
	for i, sched := range g.Det {
		for _, pe := range sched.Successors {
			d.Add(i, pe.To, pe.Prob)
		}
	}
	// nil workspace: the propagator retains tTau/uTau, so they must not be
	// pooled scratch.
	tTau, uTau, err := transientPair(nil, q, delay)
	if err != nil {
		return nil, err
	}
	p := &Propagator{n: n, delay: delay, q: q, tTau: tTau, uTau: uTau, d: d}
	if n >= linalg.SparseThreshold {
		p.qt = linalg.CSRFromDenseT(q)
	}
	return p, nil
}

// Delay returns the clock period.
func (p *Propagator) Delay() float64 { return p.delay }

// Distribution returns the state distribution at time t >= 0 starting
// from pi0 with the clock freshly armed at time zero.
func (p *Propagator) Distribution(pi0 []float64, t float64) ([]float64, error) {
	if len(pi0) != p.n {
		return nil, errors.New("mrgp: initial distribution length mismatch")
	}
	if t < 0 {
		return nil, fmt.Errorf("mrgp: negative time %g", t)
	}
	cur := append([]float64(nil), pi0...)
	for t >= p.delay {
		moved, err := p.tTau.VecMul(cur)
		if err != nil {
			return nil, err
		}
		if cur, err = p.d.VecMul(moved); err != nil {
			return nil, err
		}
		t -= p.delay
	}
	if t == 0 {
		return cur, nil
	}
	if p.qt != nil {
		var ws *linalg.Workspace
		return ws.UniformizedPowerCSR(p.qt, cur, t, 0, truncationEpsilon, nil)
	}
	return linalg.UniformizedPower(p.q, cur, t, 0, truncationEpsilon)
}

// AccumulatedReward returns Integral_0^t E[r(X_s)] ds starting from pi0,
// the expected reward accumulated over [0, t].
func (p *Propagator) AccumulatedReward(pi0, reward []float64, t float64) (float64, error) {
	if len(pi0) != p.n || len(reward) != p.n {
		return 0, errors.New("mrgp: vector length mismatch")
	}
	if t < 0 {
		return 0, fmt.Errorf("mrgp: negative time %g", t)
	}
	var total float64
	cur := append([]float64(nil), pi0...)
	for t >= p.delay {
		occ, err := p.uTau.VecMul(cur)
		if err != nil {
			return 0, err
		}
		inc, err := linalg.Dot(occ, reward)
		if err != nil {
			return 0, err
		}
		total += inc
		moved, err := p.tTau.VecMul(cur)
		if err != nil {
			return 0, err
		}
		if cur, err = p.d.VecMul(moved); err != nil {
			return 0, err
		}
		t -= p.delay
	}
	if t > 0 {
		var occ []float64
		var err error
		if p.qt != nil {
			var ws *linalg.Workspace
			occ, err = ws.UniformizedIntegralCSR(p.qt, cur, t, 0, truncationEpsilon, nil)
		} else {
			occ, err = linalg.UniformizedIntegral(p.q, cur, t, 0, truncationEpsilon)
		}
		if err != nil {
			return 0, err
		}
		inc, err := linalg.Dot(occ, reward)
		if err != nil {
			return 0, err
		}
		total += inc
	}
	return total, nil
}
