package linalg

// The allocating forms of the eigen-kernels. Nothing outside the tests
// calls them: production code holds workspaces and calls the …WS forms.
// The tests keep them as the references the workspace forms are held
// to, bit for bit.

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
