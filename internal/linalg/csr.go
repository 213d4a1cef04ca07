package linalg

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix. Row i's entries live at positions
// RowPtr[i]..RowPtr[i+1] of ColIdx/Vals, with ColIdx sorted within each row
// and no duplicate columns. The layout is the classic three-array form: the
// pattern (RowPtr, ColIdx) is independent of the values, so structurally
// identical matrices — every point of a re-stamped parameter sweep — can
// reuse one pattern and only rewrite Vals (see petri.GeneratorPlan).
//
// The state spaces produced by the perception-system Petri nets have O(1)
// successors per state (one per enabled timed transition), so a CSR
// generator holds ~(deg+1)*n entries against the dense layout's n*n; the
// matrix-vector kernels below are correspondingly O(nnz) instead of O(n^2).
type CSR struct {
	rows, cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []float64
}

// NewCSR returns a CSR shell with capacity for nnz entries. RowPtr, ColIdx
// and Vals are zeroed; the caller (normally a stamping plan) fills them.
func NewCSR(rows, cols, nnz int) *CSR {
	if rows <= 0 || cols <= 0 || nnz < 0 {
		panic(fmt.Sprintf("linalg: invalid CSR shape %dx%d nnz=%d", rows, cols, nnz))
	}
	return &CSR{
		rows:   rows,
		cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, nnz),
		Vals:   make([]float64, nnz),
	}
}

// CSRFromDense extracts the non-zero pattern and values of a dense matrix.
// Structural zeros are dropped except on the diagonal of square matrices,
// which is always materialized so generator kernels can read exit rates
// without searching.
func CSRFromDense(d *Dense) *CSR {
	return (*Workspace)(nil).CSRFromDense(d)
}

// CSRFromDense is the workspace-backed form of the package-level
// function: the CSR comes from ws.CSR, so release it with ws.PutCSR.
func (ws *Workspace) CSRFromDense(d *Dense) *CSR {
	rows, cols := d.Dims()
	nnz := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if d.At(i, j) != 0 || (rows == cols && i == j) {
				nnz++
			}
		}
	}
	c := ws.CSR(rows, cols, nnz)
	k := 0
	for i := 0; i < rows; i++ {
		c.RowPtr[i] = k
		for j := 0; j < cols; j++ {
			if v := d.At(i, j); v != 0 || (rows == cols && i == j) {
				c.ColIdx[k] = j
				c.Vals[k] = v
				k++
			}
		}
	}
	c.RowPtr[rows] = k
	return c
}

// Dims returns the number of rows and columns.
func (c *CSR) Dims() (rows, cols int) { return c.rows, c.cols }

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.ColIdx) }

// At returns element (i, j) by binary search within row i. It is meant for
// tests and diagnostics, not for kernels.
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	k := lo + sort.SearchInts(c.ColIdx[lo:hi], j)
	if k < hi && c.ColIdx[k] == j {
		return c.Vals[k]
	}
	return 0
}

// Dense materializes the CSR as a dense matrix.
func (c *CSR) Dense() *Dense {
	d := NewDense(c.rows, c.cols)
	for i := 0; i < c.rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			d.Set(i, c.ColIdx[k], c.Vals[k])
		}
	}
	return d
}

// DenseInto writes the CSR into dst, which must match the CSR's shape.
func (c *CSR) DenseInto(dst *Dense) error {
	if dst.rows != c.rows || dst.cols != c.cols {
		return ErrDimensionMismatch
	}
	dst.Zero()
	for i := 0; i < c.rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			dst.Set(i, c.ColIdx[k], c.Vals[k])
		}
	}
	return nil
}

// MulVecInto computes dst = A * x. dst must have length rows and must not
// alias x.
func (c *CSR) MulVecInto(dst, x []float64) error {
	if len(x) != c.cols || len(dst) != c.rows {
		return ErrDimensionMismatch
	}
	for i := 0; i < c.rows; i++ {
		var s float64
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Vals[k] * x[c.ColIdx[k]]
		}
		dst[i] = s
	}
	return nil
}

// VecMulInto computes dst = x * A (x treated as a row vector). dst must
// have length cols and must not alias x; existing contents are overwritten.
func (c *CSR) VecMulInto(dst, x []float64) error {
	if len(x) != c.rows || len(dst) != c.cols {
		return ErrDimensionMismatch
	}
	clear(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			dst[c.ColIdx[k]] += xi * c.Vals[k]
		}
	}
	return nil
}

// MulCSRInto computes out = a * b for a dense left operand and a CSR right
// operand: each non-zero a[i][k] scatters a scaled copy of b's row k into
// out's row i, costing O(rows(a) * nnz(b)) instead of the dense product's
// O(rows * cols * inner). out must be sized a.rows x b.cols and must not
// alias a.
func (out *Dense) MulCSRInto(a *Dense, b *CSR) error {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		return ErrDimensionMismatch
	}
	if out == a {
		return ErrDimensionMismatch
	}
	out.Zero()
	for i := 0; i < a.rows; i++ {
		aRow := a.data[i*a.cols : (i+1)*a.cols]
		outRow := out.data[i*out.cols : (i+1)*out.cols]
		for kk, v := range aRow {
			if v == 0 {
				continue
			}
			for k := b.RowPtr[kk]; k < b.RowPtr[kk+1]; k++ {
				outRow[b.ColIdx[k]] += v * b.Vals[k]
			}
		}
	}
	return nil
}

// MaxAbsDiag returns max_i |A[i,i]| for a square CSR whose diagonal is
// materialized (generator CSRs always are). Used to derive uniformization
// rates without a dense scan.
func (c *CSR) MaxAbsDiag() float64 {
	var max float64
	for i := 0; i < c.rows && i < c.cols; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			if c.ColIdx[k] == i {
				v := c.Vals[k]
				if v < 0 {
					v = -v
				}
				if v > max {
					max = v
				}
				break
			}
		}
	}
	return max
}
