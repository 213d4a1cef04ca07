// Package linalg provides the small dense linear-algebra kernel used by the
// stochastic solvers in this repository: dense matrices, LU factorization,
// steady-state solvers for Markov chains (GTH), and Poisson weights for
// uniformization.
//
// The package is deliberately minimal and dependency-free. All matrices are
// dense and row-major; the state spaces produced by the perception-system
// Petri nets are tiny (tens of states), so asymptotic sophistication would
// only obscure the numerics.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Dense is a dense row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of rows. All rows must have the
// same length. The data is copied.
func NewDenseFrom(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: empty matrix literal")
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged matrix literal: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Zero sets every element to zero.
func (m *Dense) Zero() { clear(m.data) }

// CopyFrom overwrites m with the contents of src.
func (m *Dense) CopyFrom(src *Dense) error {
	if m.rows != src.rows || m.cols != src.cols {
		return ErrDimensionMismatch
	}
	copy(m.data, src.data)
	return nil
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddMat adds other to m in place.
func (m *Dense) AddMat(other *Dense) error {
	if m.rows != other.rows || m.cols != other.cols {
		return ErrDimensionMismatch
	}
	for i := range m.data {
		m.data[i] += other.data[i]
	}
	return nil
}

// AddScaled accumulates m += s * src in place; s == 0 leaves m untouched.
func (m *Dense) AddScaled(src *Dense, s float64) error {
	if m.rows != src.rows || m.cols != src.cols {
		return ErrDimensionMismatch
	}
	if s == 0 {
		return nil
	}
	for i, v := range src.data {
		m.data[i] += s * v
	}
	return nil
}

// Mul returns the matrix product m * other.
func (m *Dense) Mul(other *Dense) (*Dense, error) {
	out := NewDense(m.rows, other.cols)
	if err := out.MulInto(m, other); err != nil {
		return nil, err
	}
	return out, nil
}

// MulInto computes out = a * b into the receiver, which must be sized
// a.rows x b.cols and must not alias a or b. Existing contents are
// overwritten.
func (out *Dense) MulInto(a, b *Dense) error {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		return ErrDimensionMismatch
	}
	if out == a || out == b {
		return ErrDimensionMismatch
	}
	out.Zero()
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			v := a.data[i*a.cols+k]
			if v == 0 {
				continue
			}
			rowK := b.data[k*b.cols : (k+1)*b.cols]
			outRow := out.data[i*out.cols : (i+1)*out.cols]
			for j, w := range rowK {
				outRow[j] += v * w
			}
		}
	}
	return nil
}

// MulVec returns the matrix-vector product m * x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, ErrDimensionMismatch
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// VecMul returns the vector-matrix product x * m (x treated as a row vector).
func (m *Dense) VecMul(x []float64) ([]float64, error) {
	out := make([]float64, m.cols)
	if err := m.VecMulInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// VecMulInto computes dst = x * m (x treated as a row vector). dst must be
// length m.cols and must not alias x; existing contents are overwritten.
func (m *Dense) VecMulInto(dst, x []float64) error {
	if m.rows != len(x) || m.cols != len(dst) {
		return ErrDimensionMismatch
	}
	clear(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			dst[j] += xi * a
		}
	}
	return nil
}

// Transpose returns the transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%12.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
