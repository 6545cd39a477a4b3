package linalg

import (
	"fmt"
	"math"
)

// LanczosResult holds the k-step Lanczos tridiagonalization of a
// symmetric operator C with respect to a start vector: Qᵀ·C·Q = T where
// T is tridiagonal with diagonal Alpha and subdiagonal Beta, and the
// columns of the Krylov basis Q are orthonormal with q₁ equal to the
// normalized start vector.
type LanczosResult struct {
	Alpha []float64 // diagonal of T, length k
	Beta  []float64 // subdiagonal of T, length k−1
	Q     *Matrix   // n×k Krylov basis (column-major vectors), nil unless requested
	K     int       // achieved dimension (≤ requested; smaller on breakdown)
}

// LanczosWorkspace holds the scratch buffers LanczosWS needs: the
// Krylov basis vectors, the working vector, the alpha/beta recurrence
// coefficients and the optional basis matrix. The zero value is ready
// for use; buffers grow on demand and are retained across calls, so a
// long-lived workspace makes repeated iterations allocation-free.
//
// A workspace is not safe for concurrent use, and the slices/matrix
// inside a LanczosResult produced with it remain valid only until the
// next LanczosWS call with the same workspace.
type LanczosWorkspace struct {
	alpha, beta []float64
	qbuf        []float64 // k row-contiguous basis vectors of length n
	w           []float64
	qmat        Matrix // n×k column-major view handed out as Result.Q
}

// ensure sizes the buffers for an n-dimensional operator and k steps.
func (ws *LanczosWorkspace) ensure(n, k int) {
	if cap(ws.alpha) < k {
		ws.alpha = make([]float64, k)
	}
	if cap(ws.beta) < k {
		ws.beta = make([]float64, k)
	}
	if cap(ws.qbuf) < k*n {
		ws.qbuf = make([]float64, k*n)
	}
	if cap(ws.w) < n {
		ws.w = make([]float64, n)
	}
	ws.w = ws.w[:n]
}

// LanczosWS runs k steps of the Lanczos iteration for the implicit n×n
// symmetric operator op, starting from start (which is copied, not
// modified). Full reorthogonalization is performed at every step — the
// matrices here are tiny (k = 5 in FUNNEL) so the O(nk²) cost is
// negligible and the numerical robustness matters more.
//
// If the Krylov space is exhausted early (beta underflow), the returned
// result has K < k. wantBasis controls whether Q is accumulated.
//
// Every buffer is drawn from ws, so a warmed-up workspace makes the call
// allocation-free. The returned result aliases ws-owned memory; it is
// invalidated by the next call with the same workspace.
func LanczosWS(ws *LanczosWorkspace, op SymOp, start []float64, k int, wantBasis bool) (LanczosResult, error) {
	n := len(start)
	if n == 0 {
		return LanczosResult{}, fmt.Errorf("linalg: empty start vector")
	}
	if k < 1 {
		return LanczosResult{}, fmt.Errorf("linalg: nonpositive Krylov dimension %d", k)
	}
	if k > n {
		k = n
	}
	ws.ensure(n, k)

	q0 := ws.qbuf[:n]
	copy(q0, start)
	if Normalize(q0) == 0 {
		return LanczosResult{}, fmt.Errorf("linalg: zero start vector")
	}
	nq := 1 // basis vectors built so far

	na, nb := 0, 0 // alphas and betas emitted
	w := ws.w

	for j := 0; j < k; j++ {
		qj := ws.qbuf[j*n : (j+1)*n]
		op.Apply(w, qj)
		a := Dot(qj, w)
		ws.alpha[na] = a
		na++
		if j == k-1 {
			break
		}
		// w ← w − a·q_j − β_{j−1}·q_{j−1}
		Axpy(-a, qj, w)
		if j > 0 {
			Axpy(-ws.beta[j-1], ws.qbuf[(j-1)*n:j*n], w)
		}
		// Full reorthogonalization (twice is enough).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < nq; i++ {
				qi := ws.qbuf[i*n : (i+1)*n]
				Axpy(-Dot(qi, w), qi, w)
			}
		}
		b := Norm2(w)
		if b < 1e-12 || math.IsNaN(b) {
			// Krylov space exhausted: T is effectively block-complete.
			break
		}
		ws.beta[nb] = b
		nb++
		qn := ws.qbuf[(j+1)*n : (j+2)*n]
		for i, wi := range w {
			qn[i] = wi / b
		}
		nq++
	}

	res := LanczosResult{Alpha: ws.alpha[:na], Beta: ws.beta[:nb], K: na}
	if wantBasis {
		if cap(ws.qmat.Data) < n*nq {
			ws.qmat.Data = make([]float64, n*nq)
		}
		ws.qmat.Rows, ws.qmat.Cols = n, nq
		ws.qmat.Data = ws.qmat.Data[:n*nq]
		for j := 0; j < nq; j++ {
			ws.qmat.SetCol(j, ws.qbuf[j*n:(j+1)*n])
		}
		res.Q = &ws.qmat
	}
	return res, nil
}

// Hankel builds the trajectory (Hankel) matrix of the series x whose
// columns are the δ overlapping windows of length ω ending at position
// end−1: column c (0 ≤ c < δ) is x[end−δ−ω+1+c : end−δ+1+c].
// In the paper's notation (Eq. 1) this is B(t) = [q(t−δ), …, q(t−1)]
// with end = t. It panics if the series is too short.
func Hankel(x []float64, end, omega, delta int) *Matrix {
	lo := end - delta - omega + 1
	if lo < 0 || end > len(x) {
		panic(fmt.Sprintf("linalg: hankel out of range: end=%d omega=%d delta=%d len=%d", end, omega, delta, len(x)))
	}
	m := NewMatrix(omega, delta)
	for c := 0; c < delta; c++ {
		base := lo + c
		for r := 0; r < omega; r++ {
			m.Data[r*delta+c] = x[base+r]
		}
	}
	return m
}

// HankelInto is Hankel with the trajectory matrix written into m
// (reshaped to ω×δ), so pooled callers build windows without
// allocating. Values are bit-identical to Hankel's.
func HankelInto(m *Matrix, x []float64, end, omega, delta int) {
	lo := end - delta - omega + 1
	if lo < 0 || end > len(x) {
		panic(fmt.Sprintf("linalg: hankel out of range: end=%d omega=%d delta=%d len=%d", end, omega, delta, len(x)))
	}
	m.Reshape(omega, delta)
	for c := 0; c < delta; c++ {
		base := lo + c
		for r := 0; r < omega; r++ {
			m.Data[r*delta+c] = x[base+r]
		}
	}
}
