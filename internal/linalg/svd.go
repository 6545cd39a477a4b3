package linalg

import (
	"math"
)

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ
// with singular values in descending order, U of size m×r and V of size
// n×r where r = min(m, n).
type SVDResult struct {
	U *Matrix   // left singular vectors, one per column
	S []float64 // singular values, descending
	V *Matrix   // right singular vectors, one per column
}

// jacobiMaxSweeps bounds the number of one-sided Jacobi sweeps. Typical
// matrices converge in well under 30 sweeps; the bound only guards
// against pathological input.
const jacobiMaxSweeps = 60

// SVDWorkspace holds the scratch buffers SVDWS needs: the working copy
// of the input, the rotation accumulator, the unsorted and sorted
// singular triplets and the sort permutation. The zero value is ready
// for use; buffers grow on demand and are retained, so a long-lived
// workspace makes repeated decompositions allocation-free.
//
// A workspace is not safe for concurrent use, and the matrices/slices
// inside an SVDResult produced with it remain valid only until the next
// call with the same workspace.
type SVDWorkspace struct {
	w, v, u, us, vs Matrix
	s, ss           []float64
	idx             []int
}

// SVDWS computes a thin singular value decomposition of a using
// one-sided Jacobi rotations. Jacobi SVD is slower than Golub–Kahan for
// large matrices but simple, unconditionally convergent and highly
// accurate — exactly the trade-off the paper attributes to full SVD when
// motivating the IKA fast path. Every buffer is drawn from ws, so a warm
// workspace performs no allocation. The returned matrices and slice
// alias ws-owned memory; they are invalidated by the next call with the
// same workspace.
func SVDWS(ws *SVDWorkspace, a *Matrix) SVDResult {
	m, n := a.Rows, a.Cols
	if m >= n {
		ws.w.Reshape(m, n)
		copy(ws.w.Data, a.Data)
		return svdTall(ws)
	}
	// For wide matrices decompose the transpose and swap U/V.
	ws.w.Reshape(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ws.w.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	r := svdTall(ws)
	return SVDResult{U: r.V, S: r.S, V: r.U}
}

// svdTall runs one-sided Jacobi on the tall (m ≥ n) matrix staged in
// ws.w, destroying it.
func svdTall(ws *SVDWorkspace) SVDResult {
	w := &ws.w
	m, n := w.Rows, w.Cols
	v := &ws.v
	v.Reshape(n, n)
	for i := range v.Data {
		v.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		v.Data[i*n+i] = 1
	}
	if n == 0 {
		ws.u.Reshape(m, 0)
		return SVDResult{U: &ws.u, S: nil, V: v}
	}

	// Frobenius-based convergence threshold for off-diagonal inner
	// products.
	var fro float64
	for _, x := range w.Data {
		fro += x * x
	}
	eps := 1e-15 * fro
	if eps == 0 {
		eps = 1e-300
	}

	colDot := func(p, q int) (app, aqq, apq float64) {
		for i := 0; i < m; i++ {
			wp := w.Data[i*n+p]
			wq := w.Data[i*n+q]
			app += wp * wp
			aqq += wq * wq
			apq += wp * wq
		}
		return
	}

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				app, aqq, apq := colDot(p, q)
				if apq*apq <= eps*1e-4 || (app == 0 && aqq == 0) {
					continue
				}
				// Skip rotations that cannot matter numerically.
				if math.Abs(apq) <= 1e-15*math.Sqrt(app*aqq) {
					continue
				}
				converged = false
				// Compute the Jacobi rotation that annihilates the
				// (p,q) entry of WᵀW.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				// Apply to columns p, q of W and V.
				for i := 0; i < m; i++ {
					wp := w.Data[i*n+p]
					wq := w.Data[i*n+q]
					w.Data[i*n+p] = c*wp - s*wq
					w.Data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.Data[i*n+p]
					vq := v.Data[i*n+q]
					v.Data[i*n+p] = c*vp - s*vq
					v.Data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if converged {
			break
		}
	}

	// Column norms are the singular values; normalized columns form U.
	if cap(ws.s) < n {
		ws.s = make([]float64, n)
		ws.ss = make([]float64, n)
		ws.idx = make([]int, n)
	}
	s := ws.s[:n]
	u := &ws.u
	u.Reshape(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			x := w.Data[i*n+j]
			norm += x * x
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.Data[i*n+j] = w.Data[i*n+j] / norm
			}
		} else {
			// Zero singular value: leave the U column zero; it is
			// completed to an orthonormal basis only if a caller needs
			// it, which FUNNEL does not.
			for i := 0; i < m; i++ {
				u.Data[i*n+j] = 0
			}
		}
	}

	// Sort descending by singular value, permuting U and V columns. A
	// stable insertion sort keeps tied values in Jacobi output order and
	// needs no allocation — n is a window width here, never large.
	idx := ws.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s[idx[j]] > s[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	ss := ws.ss[:n]
	us, vs := &ws.us, &ws.vs
	us.Reshape(m, n)
	vs.Reshape(n, n)
	for dst, src := range idx {
		ss[dst] = s[src]
		for i := 0; i < m; i++ {
			us.Data[i*n+dst] = u.Data[i*n+src]
		}
		for i := 0; i < n; i++ {
			vs.Data[i*n+dst] = v.Data[i*n+src]
		}
	}
	return SVDResult{U: us, S: ss, V: vs}
}

// TopLeftSingularVectorsWS writes the first k left singular vectors of
// a into dst (reshaped to a.Rows×k) as its columns, with the
// decomposition drawn from ws, performing no allocation once both are
// warm. It panics if k exceeds min(a.Rows, a.Cols).
func TopLeftSingularVectorsWS(ws *SVDWorkspace, dst, a *Matrix, k int) {
	r := SVDWS(ws, a)
	if k > len(r.S) {
		panic("linalg: k exceeds rank bound")
	}
	dst.Reshape(a.Rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < a.Rows; i++ {
			dst.Data[i*k+j] = r.U.Data[i*r.U.Cols+j]
		}
	}
}
