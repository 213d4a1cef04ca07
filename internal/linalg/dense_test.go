package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func vecAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestNewDenseFrom(t *testing.T) {
	m, err := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("NewDenseFrom: %v", err)
	}
	if r, c := m.Dims(); r != 2 || c != 2 {
		t.Fatalf("Dims = (%d,%d), want (2,2)", r, c)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g, want 3", m.At(1, 0))
	}
}

func TestNewDenseFromErrors(t *testing.T) {
	tests := []struct {
		name string
		give [][]float64
	}{
		{name: "empty", give: nil},
		{name: "empty row", give: [][]float64{{}}},
		{name: "ragged", give: [][]float64{{1, 2}, {3}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewDenseFrom(tt.give); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestIdentityMul(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	id := Identity(3)
	got, err := m.Mul(id)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("M*I != M at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b, _ := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := NewDenseFrom([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Errorf("(%d,%d) = %g, want %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Error("expected dimension mismatch")
	}
	if _, err := a.MulVec([]float64{1, 2}); err == nil {
		t.Error("expected dimension mismatch for MulVec")
	}
	if _, err := a.VecMul([]float64{1, 2, 3}); err == nil {
		t.Error("expected dimension mismatch for VecMul")
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	mv, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if !vecAlmostEqual(mv, []float64{3, 7}, 0) {
		t.Errorf("MulVec = %v, want [3 7]", mv)
	}
	vm, err := m.VecMul([]float64{1, 1})
	if err != nil {
		t.Fatalf("VecMul: %v", err)
	}
	if !vecAlmostEqual(vm, []float64{4, 6}, 0) {
		t.Errorf("VecMul = %v, want [4 6]", vm)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("transpose dims = (%d,%d)", r, c)
	}
	if tr.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %g, want 6", tr.At(2, 1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewDense(2, 2)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestScaleAddMat(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Errorf("Scale: At(1,1) = %g, want 8", m.At(1, 1))
	}
	other, _ := NewDenseFrom([][]float64{{1, 1}, {1, 1}})
	if err := m.AddMat(other); err != nil {
		t.Fatalf("AddMat: %v", err)
	}
	if m.At(0, 0) != 3 {
		t.Errorf("AddMat: At(0,0) = %g, want 3", m.At(0, 0))
	}
	if err := m.AddMat(NewDense(3, 3)); err == nil {
		t.Error("AddMat should reject mismatched dims")
	}
}

func TestRowIsCopy(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row returned aliased storage")
	}
}

func TestMaxAbs(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{-7, 2}, {3, 4}})
	if got := m.MaxAbs(); got != 7 {
		t.Errorf("MaxAbs = %g, want 7", got)
	}
}

// Property: (A*B)*v == A*(B*v) for random small matrices.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed uint32) bool {
		a := randMatrix(3, 3, seed)
		b := randMatrix(3, 3, seed+1)
		v := []float64{0.5, -1.5, 2.0}
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		lhs, err := ab.MulVec(v)
		if err != nil {
			return false
		}
		bv, err := b.MulVec(v)
		if err != nil {
			return false
		}
		rhs, err := a.MulVec(bv)
		if err != nil {
			return false
		}
		return vecAlmostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randMatrix produces a deterministic pseudo-random matrix from a seed using
// a splitmix-style generator (test helper; not for production randomness).
func randMatrix(rows, cols int, seed uint32) *Dense {
	m := NewDense(rows, cols)
	s := uint64(seed)*2654435769 + 1
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%2000)/1000 - 1
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, next())
		}
	}
	return m
}

// TestTransposeFromInPlace: a square matrix transposes into itself, and
// a rectangular one into a matrix of the swapped shape.
func TestTransposeFromInPlace(t *testing.T) {
	m := randMatrix(5, 5, 3)
	want := m.Transpose()
	if err := m.TransposeFrom(m); err != nil {
		t.Fatal(err)
	}
	for i := range want.data {
		if m.data[i] != want.data[i] {
			t.Fatalf("in place: element %d = %v, want %v", i, m.data[i], want.data[i])
		}
	}
	r := randMatrix(2, 3, 4)
	out := NewDense(3, 2)
	if err := out.TransposeFrom(r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if out.At(j, i) != r.At(i, j) {
				t.Fatalf("(%d,%d) = %v, want %v", j, i, out.At(j, i), r.At(i, j))
			}
		}
	}
}
