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
	return ws.csrFromDense(d, false)
}

// CSRFromDenseT returns the transpose of d in CSR form, which is d's CSC
// form: the operand layout of the gather kernels (CSR.MulVecInto for
// x * d, Dense.MulCSRInto for (a * d)ᵀ from aᵀ). It keeps the same
// entries as CSRFromDense.
func CSRFromDenseT(d *Dense) *CSR {
	return (*Workspace)(nil).CSRFromDenseT(d)
}

// CSRFromDenseT is the workspace-backed form of the package-level
// function; release the result with ws.PutCSR.
func (ws *Workspace) CSRFromDenseT(d *Dense) *CSR {
	return ws.csrFromDense(d, true)
}

func (ws *Workspace) csrFromDense(d *Dense, transpose bool) *CSR {
	rows, cols := d.Dims()
	at := d.At
	if transpose {
		rows, cols = cols, rows
		at = func(i, j int) float64 { return d.At(j, i) }
	}
	nnz := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if at(i, j) != 0 || (rows == cols && i == j) {
				nnz++
			}
		}
	}
	c := ws.CSR(rows, cols, nnz)
	k := 0
	for i := 0; i < rows; i++ {
		c.RowPtr[i] = k
		for j := 0; j < cols; j++ {
			if v := at(i, j); v != 0 || (rows == cols && i == j) {
				c.ColIdx[k] = j
				c.Vals[k] = v
				k++
			}
		}
	}
	c.RowPtr[rows] = k
	return c
}

// TransposeCSR returns the transpose of c as a workspace CSR (release it
// with ws.PutCSR). It is a stable counting sort: row j of the result
// lists c's column-j entries in c's storage order, so a gather over it
// adds the terms of x * c in exactly the order a row scatter over c
// would, duplicates and unsorted rows included.
func (ws *Workspace) TransposeCSR(c *CSR) *CSR {
	t := ws.CSR(c.cols, c.rows, len(c.ColIdx))
	clear(t.RowPtr)
	for _, j := range c.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < c.cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	// RowPtr[j] serves as row j's fill cursor; afterwards it holds the
	// start of row j+1, so shifting it up one slot restores the offsets.
	for i := 0; i < c.rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			j := c.ColIdx[k]
			p := t.RowPtr[j]
			t.ColIdx[p] = i
			t.Vals[p] = c.Vals[k]
			t.RowPtr[j] = p + 1
		}
	}
	copy(t.RowPtr[1:], t.RowPtr[:c.cols])
	t.RowPtr[0] = 0
	return t
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

// MulVecInto computes dst = A * x. dst must have length rows and must not
// alias x.
//
// On the transpose of a matrix M it computes x * M as a gather: each
// dst[j] accumulates in a register over column j of M in ascending row
// order, the order in which a row scatter over M would add into it, so
// the bits are the scatter's whenever the operands are finite (a zero
// x[i] the scatter skipped adds a signed zero, which leaves the sum
// unchanged). The uniformization series gather the same way over a
// chunked copy of the rows (see SELL).
func (c *CSR) MulVecInto(dst, x []float64) error {
	if len(x) != c.cols || len(dst) != c.rows {
		return ErrDimensionMismatch
	}
	for i := range dst {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		idx, vals := c.ColIdx[lo:hi], c.Vals[lo:hi]
		vals = vals[:len(idx)]
		var s float64
		for k, j := range idx {
			s += vals[k] * x[j]
		}
		dst[i] = s
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
