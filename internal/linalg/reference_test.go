package linalg

import (
	"fmt"
	"math"
)

// The allocating forms of the kernels. Nothing outside the tests calls
// them: production code holds workspaces and calls the …WS and …Into
// forms. The tests keep them as the references the workspace forms are
// held to, bit for bit.

// Lanczos is LanczosWS on a fresh workspace.
func Lanczos(apply MatVec, start []float64, k int, wantBasis bool) (LanczosResult, error) {
	return LanczosWS(&LanczosWorkspace{}, apply, start, k, wantBasis)
}

// TridiagEig is TridiagEigWS on a fresh workspace.
func TridiagEig(d, e []float64) (vals []float64, vecs *Matrix, err error) {
	return TridiagEigWS(&EigWorkspace{}, d, e)
}

// SymEig is SymEigWS on a fresh workspace.
func SymEig(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	return SymEigWS(&EigWorkspace{}, a)
}

// GramOp returns an implicit operator for C = B·Bᵀ, evaluated as
// B·(Bᵀ·v) without forming the ω×ω Gram matrix.
func GramOp(b *Matrix) MatVec {
	tmp := make([]float64, b.Cols)
	return func(dst, v []float64) {
		b.MulTVecTo(tmp, v)
		b.MulVecTo(dst, tmp)
	}
}

// HankelOp returns an implicit MatVec for H·Hᵀ where H is
// Hankel(x, end, omega, delta), never materialized.
func HankelOp(x []float64, end, omega, delta int) MatVec {
	h := &HankelGram{}
	h.Reset(x, end, omega, delta)
	return h.Apply
}

// FromRows builds a matrix from row slices of equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// MatVec is an implicit symmetric linear operator: it writes A·v into
// dst. dst and v never alias.
type MatVec func(dst, v []float64)

// Apply lets a MatVec function value be used wherever a SymOp is
// expected. Converting a func value to an interface does not allocate.
func (f MatVec) Apply(dst, v []float64) { f(dst, v) }

// Mul returns m·b, the allocating product MulInto and GramSelfInto are
// held to.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out
}

// MulVec returns m·v as a new slice of length m.Rows.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: mulvec dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	m.MulVecTo(out, v)
	return out
}

// Equalish reports whether m and b agree elementwise within tol.
func (m *Matrix) Equalish(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// SVD is SVDWS on a fresh workspace.
func SVD(a *Matrix) SVDResult {
	var ws SVDWorkspace
	return SVDWS(&ws, a)
}

// TopLeftSingularVectors is TopLeftSingularVectorsWS on a fresh
// workspace, into a new matrix.
func TopLeftSingularVectors(a *Matrix, k int) *Matrix {
	var ws SVDWorkspace
	out := &Matrix{}
	TopLeftSingularVectorsWS(&ws, out, a, k)
	return out
}
