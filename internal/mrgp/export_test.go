package mrgp

import (
	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// SolveDense exposes the dense rung to the external tests.
var SolveDense = solveDense

// SolveDenseMatrixPath is the reference formulation of the dense rung
// that materializes U = Integral_0^tau e^{Qt} dt: the matrix pair from
// transientPair, the dense product T D, and pi from sigma U. Embedded
// must match solveDense bit for bit, and Pi to rounding.
func SolveDenseMatrixPath(ws *linalg.Workspace, g *petri.Graph) (*Solution, error) {
	n := g.NumStates()
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
	tm, um, err := transientPair(ws, q, delay)
	if err != nil {
		return nil, err
	}
	p, err := tm.Mul(d)
	if err != nil {
		return nil, err
	}
	sigma, err := embeddedStationary(ws, p)
	if err != nil {
		return nil, err
	}
	pi, err := um.VecMul(sigma)
	if err != nil {
		return nil, err
	}
	linalg.Normalize(pi)
	return &Solution{Pi: pi, Embedded: sigma, Delay: delay}, nil
}

// HittingSystem exposes the system MeanTimeToTarget solves, one row per
// non-target state in solve order: the kernel's off-diagonal mass w (zero
// diagonal), the exit mass, h, and the initial mass alpha. It is nil when
// every state is a target.
func HittingSystem(g *petri.Graph, target []bool) (w [][]float64, exit, h, alpha []float64, err error) {
	hs, err := newHitting(nil, nil, g, target)
	if err != nil || hs == nil {
		return nil, nil, nil, nil, err
	}
	m := len(hs.trans)
	w = make([][]float64, m)
	alpha = make([]float64, m)
	for r, i := range hs.trans {
		w[r] = make([]float64, m)
		for c := range w[r] {
			w[r][c] = hs.w.At(r, c)
		}
		alpha[r] = g.Initial[i]
	}
	return w, hs.exit, hs.h, alpha, nil
}
