// Package ctmc provides continuous-time Markov chain construction and
// analysis on top of the linalg kernel: generator validation, the steady
// state and first-passage times. The perception-system models in this
// repository reduce to small CTMCs (the architecture without rejuvenation)
// or to CTMCs subordinated to a deterministic clock (see package mrgp);
// transient distributions and accumulated rewards of both come from
// mrgp.Propagator.
package ctmc

import (
	"errors"
	"fmt"

	"nvrel/internal/linalg"
)

// Common errors returned by this package.
var (
	ErrEmptyChain     = errors.New("ctmc: chain has no states")
	ErrBadRate        = errors.New("ctmc: transition rate must be positive and finite")
	ErrUnknownState   = errors.New("ctmc: unknown state index")
	ErrRewardMismatch = errors.New("ctmc: reward vector length does not match state count")
)

// Chain is a finite continuous-time Markov chain under construction or
// analysis. States are dense integer indices [0, n); callers keep their own
// mapping from domain objects to indices.
type Chain struct {
	n         int
	generator *linalg.Dense
	built     bool
}

// New returns a chain with n states and no transitions.
func New(n int) (*Chain, error) {
	if n <= 0 {
		return nil, ErrEmptyChain
	}
	return &Chain{n: n, generator: linalg.NewDense(n, n)}, nil
}

// FromGenerator wraps an existing generator matrix. The matrix is validated
// and cloned.
func FromGenerator(q *linalg.Dense) (*Chain, error) {
	rows, cols := q.Dims()
	if rows != cols || rows == 0 {
		return nil, ErrEmptyChain
	}
	if err := linalg.CheckGenerator(q, 1e-9*scaleOf(q)); err != nil {
		return nil, err
	}
	return &Chain{n: rows, generator: q.Clone(), built: true}, nil
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return c.n }

// AddRate adds a transition from state i to state j with the given rate.
// Repeated calls accumulate. The diagonal is maintained automatically.
func (c *Chain) AddRate(i, j int, rate float64) error {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		return fmt.Errorf("%w: (%d,%d) with %d states", ErrUnknownState, i, j, c.n)
	}
	if i == j {
		return fmt.Errorf("ctmc: self-loop (%d,%d) is meaningless in a CTMC", i, j)
	}
	if rate <= 0 || rate != rate || rate > 1e300 {
		return fmt.Errorf("%w: rate(%d->%d) = %g", ErrBadRate, i, j, rate)
	}
	c.generator.Add(i, j, rate)
	c.generator.Add(i, i, -rate)
	return nil
}

// Generator returns a copy of the generator matrix.
func (c *Chain) Generator() *linalg.Dense { return c.generator.Clone() }

// SteadyState returns the stationary distribution of the chain, which must
// be irreducible.
func (c *Chain) SteadyState() ([]float64, error) {
	return linalg.SteadyStateGTH(c.generator)
}

func scaleOf(q *linalg.Dense) float64 {
	if m := q.MaxAbs(); m > 1 {
		return m
	}
	return 1
}
