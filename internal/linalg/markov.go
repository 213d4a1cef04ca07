package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotStochastic is returned when a matrix fails a stochasticity check.
var ErrNotStochastic = errors.New("linalg: matrix is not stochastic")

// SteadyStateGTH computes the stationary distribution of an irreducible
// continuous-time Markov chain from its generator matrix Q (rows sum to
// zero, off-diagonals non-negative) using the Grassmann–Taksar–Heyman
// algorithm. GTH is subtraction-free and therefore numerically robust even
// for stiff chains (the repair rate here is ~three orders of magnitude
// faster than the fault rates).
func SteadyStateGTH(q *Dense) ([]float64, error) {
	return (*Workspace)(nil).SteadyStateGTH(q, nil)
}

// SteadyStateGTH is the workspace-backed form of the package-level function:
// the elimination copy comes from the workspace and the result is written
// into dst when it is non-nil (it must then have length n).
func (ws *Workspace) SteadyStateGTH(q *Dense, dst []float64) ([]float64, error) {
	rows, cols := q.Dims()
	if rows != cols {
		return nil, ErrDimensionMismatch
	}
	n := rows
	if dst == nil {
		dst = make([]float64, n)
	} else if len(dst) != n {
		return nil, ErrDimensionMismatch
	}
	if n == 1 {
		dst[0] = 1
		return dst, nil
	}
	// Work on a copy; the algorithm operates on transition *rates*, and is
	// identical for a CTMC generator with the diagonal ignored.
	a := ws.Mat(n, n)
	defer ws.PutMat(a)
	a.CopyFrom(q)
	// Censoring sweep: eliminate states n-1, n-2, ..., 1.
	for k := n - 1; k >= 1; k-- {
		var s float64
		for j := 0; j < k; j++ {
			s += a.At(k, j)
		}
		if s <= 0 {
			return nil, fmt.Errorf("linalg: GTH elimination failed at state %d (chain not irreducible?)", k)
		}
		for i := 0; i < k; i++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			f := aik / s
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				a.Add(i, j, f*a.At(k, j))
			}
		}
	}
	// Back substitution.
	pi := dst
	clear(pi)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var s float64
		for j := 0; j < k; j++ {
			s += a.At(k, j)
		}
		var num float64
		for i := 0; i < k; i++ {
			num += pi[i] * a.At(i, k)
		}
		pi[k] = num / s
	}
	normalize(pi)
	return pi, nil
}

// SteadyStateDTMC computes the stationary distribution of an irreducible
// discrete-time Markov chain with transition matrix P (rows sum to one)
// using GTH elimination on P - I restated in rate form.
func SteadyStateDTMC(p *Dense) ([]float64, error) {
	return (*Workspace)(nil).SteadyStateDTMC(p, nil)
}

// SteadyStateDTMC is the workspace-backed form of the package-level
// function; see Workspace.SteadyStateGTH for the dst contract.
func (ws *Workspace) SteadyStateDTMC(p *Dense, dst []float64) ([]float64, error) {
	rows, cols := p.Dims()
	if rows != cols {
		return nil, ErrDimensionMismatch
	}
	for i := 0; i < rows; i++ {
		var s float64
		for j := 0; j < cols; j++ {
			v := p.At(i, j)
			if v < -1e-12 {
				return nil, fmt.Errorf("%w: negative entry P[%d,%d]=%g", ErrNotStochastic, i, j, v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-8 {
			return nil, fmt.Errorf("%w: row %d sums to %g", ErrNotStochastic, i, s)
		}
	}
	// GTH works on the off-diagonal structure, which for a DTMC is the same
	// as for the generator P - I.
	q := ws.Mat(rows, cols)
	defer ws.PutMat(q)
	q.CopyFrom(p)
	for i := 0; i < rows; i++ {
		q.Add(i, i, -1)
		q.Set(i, i, 0) // diagonal is ignored by GTH; zero it for clarity
	}
	return ws.SteadyStateGTH(q, dst)
}

// CheckGenerator validates that q is a CTMC generator: every entry
// finite, non-negative off-diagonals and rows summing to zero within tol.
// A violation comes back as a *SolveError at site "linalg.generator" whose
// Index is the offending entry (row-major) or, for a row-sum defect, the
// row.
func CheckGenerator(q *Dense, tol float64) error {
	const site = "linalg.generator"
	rows, cols := q.Dims()
	if rows != cols {
		return ErrDimensionMismatch
	}
	for i := 0; i < rows; i++ {
		var s float64
		for j := 0; j < cols; j++ {
			v := q.At(i, j)
			switch {
			case math.IsNaN(v):
				return &SolveError{Site: site, Kind: FailNaN, Index: i*cols + j, Value: v}
			case math.IsInf(v, 0):
				return &SolveError{Site: site, Kind: FailInf, Index: i*cols + j, Value: v}
			case i != j && v < 0:
				return &SolveError{Site: site, Kind: FailGenerator, Index: i*cols + j, Value: v}
			}
			s += v
		}
		if math.Abs(s) > tol {
			return &SolveError{Site: site, Kind: FailGenerator, Index: i, Value: s, Residual: math.Abs(s)}
		}
	}
	return nil
}

func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// Normalize scales v so its entries sum to one. It is exported for the
// solver packages that assemble probability vectors incrementally.
func Normalize(v []float64) { normalize(v) }

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrDimensionMismatch
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}
