// Package linalg implements the dense linear algebra FUNNEL needs, from
// scratch on the standard library: a row-major dense matrix, one-sided
// Jacobi SVD, Householder tridiagonalization, the QL implicit-shift
// eigensolver for symmetric tridiagonal matrices, Lanczos iteration with
// full reorthogonalization, and Hankel trajectory matrices with implicit
// (matrix-free) B·Bᵀ products.
//
// The SVD underlies classic SST and the MRLS baseline; Lanczos + QL are
// the Implicit Krylov Approximation (IKA) that gives FUNNEL its speed
// (§3.2.3 of the paper, after Idé & Tsuda, SDM'07).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements; element (i, j) lives at Data[i*Cols+j].
	Data []float64
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Reshape sets m to r×c, reusing the backing array when capacity
// allows. Element contents are unspecified afterwards; callers are
// expected to overwrite every entry. Hot paths use it to recycle a
// pooled matrix across windows without reallocating.
func (m *Matrix) Reshape(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	if cap(m.Data) < r*c {
		m.Data = make([]float64, r*c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
}

// Apply writes m·v into dst, making a square Matrix usable as a SymOp
// for LanczosWS. The caller is responsible for m actually being
// symmetric (Lanczos on a non-symmetric operator is undefined).
func (m *Matrix) Apply(dst, v []float64) { m.MulVecTo(dst, v) }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Mul returns m·b.
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

// MulInto writes a·b into dst (reshaped to a.Rows×b.Cols), with the
// same accumulation order and zero-skip term set as Mul, so results are
// bit-identical to the allocating path. dst must not alias a or b.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		oi := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bkj := range bk {
				oi[j] += aik * bkj
			}
		}
	}
}

// GramSelfInto writes a·aᵀ into dst (reshaped to a.Rows×a.Rows) without
// materializing the transpose. The accumulation mirrors
// a.Mul(a.T()) term for term — same k order, same zero skips — so the
// result is bit-identical to the allocating path.
func GramSelfInto(dst, a *Matrix) {
	n := a.Rows
	dst.Reshape(n, n)
	for i := 0; i < n; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < n; j++ {
			aj := a.Data[j*a.Cols : (j+1)*a.Cols]
			var s float64
			for k, aik := range ai {
				if aik == 0 {
					continue
				}
				s += aik * aj[k]
			}
			dst.Data[i*n+j] = s
		}
	}
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

// MulVecTo writes m·v into dst, which must have length m.Rows.
// It performs no allocation.
func (m *Matrix) MulVecTo(dst, v []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, r := range row {
			s += r * v[j]
		}
		dst[i] = s
	}
}

// MulTVecTo writes mᵀ·v into dst (length m.Cols) without forming the
// transpose. v must have length m.Rows.
func (m *Matrix) MulTVecTo(dst, v []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, r := range row {
			dst[j] += r * vi
		}
	}
}

// Col returns column j as a new slice.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol assigns column j from v (length m.Rows).
func (m *Matrix) SetCol(j int, v []float64) {
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
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

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow for
// large components.
func Norm2(v []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Normalize scales v to unit Euclidean norm in place and returns the
// original norm. A zero vector is left untouched and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}

// Axpy computes y ← y + a·x in place.
func Axpy(a float64, x, y []float64) {
	for i, xi := range x {
		y[i] += a * xi
	}
}

// hypot returns sqrt(a²+b²) without undue overflow (Numerical Recipes
// pythag). Kept below the compiler's inlining budget: the QL rotation
// loops call it once per rotation and the call overhead is measurable
// there.
func hypot(a, b float64) float64 {
	a, b = math.Abs(a), math.Abs(b)
	if a < b {
		a, b = b, a
	}
	if a == 0 {
		return 0
	}
	r := b / a
	return a * math.Sqrt(1+r*r)
}
