package mrgp

import (
	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// SolveDense exposes the dense rung to the external tests.
var SolveDense = solveDense

// SolveDenseMatrixPath is the reference formulation of the dense rung
// that materializes U = Integral_0^tau e^{Qt} dt: the matrix pair from
// transientPairDense, the dense product T D, and pi from sigma U. Embedded
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
	tm, um, err := transientPairDense(ws, q, delay)
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
