// Package linalg provides the linear-algebra kernels of the stochastic
// solvers in this repository: dense row-major and CSR matrices, the
// dense products of the MRGP scaling-and-doubling route (SIMD lanes on
// AVX-512 hosts, see lanes.go), steady-state solvers for Markov chains
// (GTH, Gauss-Seidel, power iteration), and the Poisson weights and
// vector series of uniformization.
//
// The package is dependency-free. Every kernel adds its terms in a fixed
// order, so a result's bits do not depend on the host's vector width or
// on the worker count.
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
//
// Each out[i][j] is the sum of a[i][k]*b[k][j] in ascending k from +0, so
// the bits equal the row-scatter form's whenever the operands are finite
// (a zero a[i][k] the scatter skipped adds a signed zero here, which
// leaves any sum unchanged). On a host with lanes, row i of out is one
// lane call: row i of a weighting the rows of b. Elsewhere the kernel
// fills 2x4 output blocks held in registers, i-j-k within a block: per k
// it loads two elements of a and four of b's row k for eight
// multiply-adds. Blocks sweep down a four-column panel of b before
// moving right, so the panel stays in cache.
func (out *Dense) MulInto(a, b *Dense) error {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		return ErrDimensionMismatch
	}
	if out == a || out == b {
		return ErrDimensionMismatch
	}
	if hasLanes {
		for i := 0; i < a.rows; i++ {
			hostLanes(b.data, b.cols, nil, a.data[i*a.cols:(i+1)*a.cols], out.data[i*out.cols:(i+1)*out.cols], nil, 0, nil, 0)
		}
		return nil
	}
	out.mulBlocks(a, b)
	return nil
}

// mulBlocks is MulInto's portable body, the 2x4 register blocks.
func (out *Dense) mulBlocks(a, b *Dense) {
	inner, cols := a.cols, b.cols
	rows := a.rows &^ 1
	j := 0
	for ; j+3 < cols; j += 4 {
		for i := 0; i < rows; i += 2 {
			a0 := a.data[i*inner : (i+1)*inner]
			a1 := a.data[(i+1)*inner : (i+2)*inner]
			a1 = a1[:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			off := j
			for k, x0 := range a0 {
				x1 := a1[k]
				bk := b.data[off : off+4 : off+4]
				s00 += x0 * bk[0]
				s01 += x0 * bk[1]
				s02 += x0 * bk[2]
				s03 += x0 * bk[3]
				s10 += x1 * bk[0]
				s11 += x1 * bk[1]
				s12 += x1 * bk[2]
				s13 += x1 * bk[3]
				off += cols
			}
			o0 := out.data[i*cols+j : i*cols+j+4 : i*cols+j+4]
			o1 := out.data[(i+1)*cols+j : (i+1)*cols+j+4 : (i+1)*cols+j+4]
			o0[0], o0[1], o0[2], o0[3] = s00, s01, s02, s03
			o1[0], o1[1], o1[2], o1[3] = s10, s11, s12, s13
		}
	}
	// The column tail right of the panels, and an odd last row across
	// all columns, one element at a time.
	for i := 0; i < a.rows; i++ {
		from := j
		if i == rows {
			from = 0
		}
		a0 := a.data[i*inner : (i+1)*inner]
		for jj := from; jj < cols; jj++ {
			var s float64
			for k, x0 := range a0 {
				s += x0 * b.data[k*cols+jj]
			}
			out.data[i*cols+jj] = s
		}
	}
}

// Fused is an update M += S * out that Dense.MulCSRInto applies to each
// row of its product as it stores it, element by element as AddScaled
// does; a nil M or S == 0 leaves M untouched.
type Fused struct {
	M *Dense
	S float64
}

// MulCSRInto computes out = c * a for a sparse c and a dense a, then
// applies each fused update (at most two) to out. Row j of out is the
// combination of a's rows listed in c's row j, in c's storage order from
// +0: one lane call on a host with lanes, the portable lane body
// elsewhere. So out[j][i] is summed in the order a gather over c's row j
// adds it; with c = Bᵀ in CSR form (B's CSC form) and a = Xᵀ, out is
// (X B)ᵀ with the bits of the gather that sums each element of X B over
// column j of B. out must be sized rows(c) x a.cols and must alias
// neither a nor a fused M, and c's column indices must be below a.rows.
func (out *Dense) MulCSRInto(c *CSR, a *Dense, fused ...Fused) error {
	if c.cols != a.rows || out.rows != c.rows || out.cols != a.cols || out == a || len(fused) > 2 {
		return ErrDimensionMismatch
	}
	var acc [2][]float64
	var scale [2]float64
	for f, fu := range fused {
		if fu.M == nil || fu.S == 0 {
			continue
		}
		if fu.M.rows != out.rows || fu.M.cols != out.cols || fu.M == out || fu.M == a {
			return ErrDimensionMismatch
		}
		acc[f], scale[f] = fu.M.data, fu.S
	}
	cols := out.cols
	for j := 0; j < out.rows; j++ {
		lo, hi := c.RowPtr[j], c.RowPtr[j+1]
		idx, vals := c.ColIdx[lo:hi], c.Vals[lo:hi]
		for _, k := range idx {
			if uint(k) >= uint(a.rows) {
				return ErrDimensionMismatch
			}
		}
		var t, u []float64
		if acc[0] != nil {
			t = acc[0][j*cols : (j+1)*cols]
		}
		if acc[1] != nil {
			u = acc[1][j*cols : (j+1)*cols]
		}
		if hasLanes {
			hostLanes(a.data, a.cols, idx, vals, out.data[j*cols:(j+1)*cols], t, scale[0], u, scale[1])
		} else {
			lanesGo(a.data, a.cols, idx, vals, out.data[j*cols:(j+1)*cols], t, scale[0], u, scale[1])
		}
	}
	return nil
}

// TransposeFrom sets out to the transpose of m; out must be sized
// m.cols x m.rows. A square m may be out itself, transposed in place.
func (out *Dense) TransposeFrom(m *Dense) error {
	if out.rows != m.cols || out.cols != m.rows {
		return ErrDimensionMismatch
	}
	if out == m {
		for i := 0; i < m.rows; i++ {
			for j := i + 1; j < m.cols; j++ {
				m.data[i*m.cols+j], m.data[j*m.cols+i] = m.data[j*m.cols+i], m.data[i*m.cols+j]
			}
		}
		return nil
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j*out.cols+i] = v
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
// Each dst[j] is the sum of x[i]*m[i][j] in ascending i from +0: one lane
// call on a host with lanes, a row scatter that skips zero x[i]
// elsewhere. The bits agree whenever m is finite (a skipped term adds a
// signed zero to a sum that is never -0).
func (m *Dense) VecMulInto(dst, x []float64) error {
	if m.rows != len(x) || m.cols != len(dst) {
		return ErrDimensionMismatch
	}
	if hasLanes {
		hostLanes(m.data, m.cols, nil, x, dst, nil, 0, nil, 0)
		return nil
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

// MaxAbsDiag returns max_i |A[i,i]| of a square matrix, the exit-rate
// bound UniformizationRate takes (see CSR.MaxAbsDiag for the sparse form).
func (m *Dense) MaxAbsDiag() float64 {
	var max float64
	for i := 0; i < m.rows && i < m.cols; i++ {
		if a := math.Abs(m.At(i, i)); a > max {
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
