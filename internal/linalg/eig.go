package linalg

import (
	"fmt"
	"math"
)

// tqliMaxIter bounds the implicit-shift QL iterations per eigenvalue.
const tqliMaxIter = 50

// EigWorkspace holds the scratch buffers TridiagEigWS needs: the
// working copies of the diagonal and subdiagonal, the rotation
// accumulator, the sort permutation and the output eigenpairs. The zero
// value is ready for use; buffers grow on demand and are retained, so a
// long-lived workspace makes repeated solves allocation-free.
//
// A workspace is not safe for concurrent use, and the vals slice and
// vecs matrix returned by TridiagEigWS remain valid only until the next
// call with the same workspace.
type EigWorkspace struct {
	dd, ee, vals []float64
	idx          []int
	z, vecs      Matrix
	row, rowOut  []float64 // first-row accumulators for TridiagEigFirstRowWS
	symA, symV   Matrix    // SymEigWS: tred2 working copy (becomes Q) and Q·tvecs
	symD, symE   []float64 // SymEigWS: tridiagonal form of the input
}

// ensure sizes the buffers for order n.
func (ws *EigWorkspace) ensure(n int) {
	if cap(ws.dd) < n {
		ws.dd = make([]float64, n)
	}
	if cap(ws.ee) < n {
		ws.ee = make([]float64, n)
	}
	if cap(ws.vals) < n {
		ws.vals = make([]float64, n)
	}
	if cap(ws.idx) < n {
		ws.idx = make([]int, n)
	}
	if cap(ws.z.Data) < n*n {
		ws.z.Data = make([]float64, n*n)
	}
	if cap(ws.vecs.Data) < n*n {
		ws.vecs.Data = make([]float64, n*n)
	}
	ws.dd, ws.ee, ws.vals, ws.idx = ws.dd[:n], ws.ee[:n], ws.vals[:n], ws.idx[:n]
	ws.z.Rows, ws.z.Cols, ws.z.Data = n, n, ws.z.Data[:n*n]
	ws.vecs.Rows, ws.vecs.Cols, ws.vecs.Data = n, n, ws.vecs.Data[:n*n]
}

// TridiagEigWS computes all eigenvalues and eigenvectors of the
// symmetric tridiagonal matrix with diagonal d (length n) and
// subdiagonal e (length n−1) using the QL algorithm with implicit shifts
// (the "QL iteration" the paper cites from Numerical Recipes, §3.2.3).
//
// The returned eigenvalues are in descending order; column j of the
// returned matrix is the eigenvector for eigenvalue j, expressed in the
// basis in which the tridiagonal matrix is given (for Lanczos output,
// the Krylov basis). d and e are not modified.
//
// Every buffer is drawn from ws, so a warmed-up workspace makes the call
// allocation-free. The returned slice and matrix alias ws-owned memory;
// they are invalidated by the next call with the same workspace.
func TridiagEigWS(ws *EigWorkspace, d, e []float64) (vals []float64, vecs *Matrix, err error) {
	n := len(d)
	if n == 0 {
		ws.ensure(0)
		return nil, &ws.vecs, nil
	}
	if len(e) != n-1 && !(n == 1 && len(e) == 0) {
		return nil, nil, fmt.Errorf("linalg: subdiagonal length %d for order %d", len(e), n)
	}
	ws.ensure(n)
	dd := ws.dd
	copy(dd, d)
	// tqli uses e[1..n-1] with e[0] unused in NR indexing; here ee[i] is
	// the element below dd[i], shifted so ee has length n with a zero
	// sentinel at the end.
	ee := ws.ee
	copy(ee, e)
	ee[n-1] = 0

	z := &ws.z
	for i := range z.Data {
		z.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		z.Data[i*n+i] = 1
	}

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter == tqliMaxIter {
				return nil, nil, fmt.Errorf("linalg: QL iteration failed to converge at index %d", l)
			}
			// Find a small subdiagonal element to split the matrix.
			var m int
			for m = l; m < n-1; m++ {
				ddm := math.Abs(dd[m]) + math.Abs(dd[m+1])
				if math.Abs(ee[m]) <= 1e-300 || math.Abs(ee[m])+ddm == ddm {
					break
				}
			}
			if m == l {
				break
			}
			// Form implicit shift.
			g := (dd[l+1] - dd[l]) / (2 * ee[l])
			r := hypot(g, 1)
			g = dd[m] - dd[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					// Recover from underflow as in Numerical Recipes.
					dd[i+1] -= p
					ee[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = dd[i+1] - p
				r = (dd[i]-g)*s + 2*c*b
				p = s * r
				dd[i+1] = g + p
				g = c*r - b
				// Accumulate the rotation into the eigenvector matrix.
				for k := 0; k < n; k++ {
					f := z.Data[k*n+i+1]
					z.Data[k*n+i+1] = s*z.Data[k*n+i] + c*f
					z.Data[k*n+i] = c*z.Data[k*n+i] - s*f
				}
			}
			if underflow {
				continue
			}
			dd[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}

	// Sort eigenpairs in descending eigenvalue order. A stable insertion
	// sort keeps tied eigenvalues in QL output order and needs no
	// allocation — the matrices here are k×k with k ≤ 2η.
	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && dd[idx[j]] > dd[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	vals = ws.vals
	vecs = &ws.vecs
	for dst, src := range idx {
		vals[dst] = dd[src]
		for k := 0; k < n; k++ {
			vecs.Data[k*n+dst] = z.Data[k*n+src]
		}
	}
	return vals, vecs, nil
}

// TridiagEigFirstRowWS computes the eigenvalues of the symmetric
// tridiagonal matrix (diagonal d, subdiagonal e) together with only the
// FIRST component of every eigenvector, in descending eigenvalue order.
//
// It runs the exact same QL rotations as TridiagEigWS but accumulates
// them into a single row of the eigenvector matrix instead of all n —
// each rotation costs O(1) instead of O(n). The returned first-row
// components are bit-identical to row 0 of TridiagEigWS's eigenvector
// matrix (same rotations, same arithmetic, same stable ordering).
//
// This is the eigensolve shape of IKA's Eq. 13 discordance stage, which
// consumes only x_j(1)² — the squared cosines between the Krylov start
// vector and the Ritz directions — and is the hottest loop of the whole
// pipeline (three of the four eigensolves per scored window).
//
// The returned slices alias ws-owned memory and are invalidated by the
// next call with the same workspace. d and e are not modified.
func TridiagEigFirstRowWS(ws *EigWorkspace, d, e []float64) (vals, first []float64, err error) {
	n := len(d)
	if n == 0 {
		return nil, nil, nil
	}
	if len(e) != n-1 && !(n == 1 && len(e) == 0) {
		return nil, nil, fmt.Errorf("linalg: subdiagonal length %d for order %d", len(e), n)
	}
	ws.ensure(n)
	if cap(ws.row) < n {
		ws.row = make([]float64, n)
		ws.rowOut = make([]float64, n)
	}
	ws.row, ws.rowOut = ws.row[:n], ws.rowOut[:n]
	dd := ws.dd
	copy(dd, d)
	ee := ws.ee
	copy(ee, e)
	ee[n-1] = 0

	// Row 0 of the identity: the rotations below act on it exactly as
	// they act on row 0 of the full accumulator in TridiagEigWS.
	row := ws.row
	for i := range row {
		row[i] = 0
	}
	row[0] = 1

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter == tqliMaxIter {
				return nil, nil, fmt.Errorf("linalg: QL iteration failed to converge at index %d", l)
			}
			var m int
			for m = l; m < n-1; m++ {
				ddm := math.Abs(dd[m]) + math.Abs(dd[m+1])
				if math.Abs(ee[m]) <= 1e-300 || math.Abs(ee[m])+ddm == ddm {
					break
				}
			}
			if m == l {
				break
			}
			g := (dd[l+1] - dd[l]) / (2 * ee[l])
			r := hypot(g, 1)
			g = dd[m] - dd[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					dd[i+1] -= p
					ee[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = dd[i+1] - p
				r = (dd[i]-g)*s + 2*c*b
				p = s * r
				dd[i+1] = g + p
				g = c*r - b
				// Accumulate the rotation into row 0 only.
				f2 := row[i+1]
				row[i+1] = s*row[i] + c*f2
				row[i] = c*row[i] - s*f2
			}
			if underflow {
				continue
			}
			dd[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}

	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && dd[idx[j]] > dd[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	vals = ws.vals
	first = ws.rowOut
	for dst, src := range idx {
		vals[dst] = dd[src]
		first[dst] = row[src]
	}
	return vals, first, nil
}

// SymEigWS computes all eigenvalues and eigenvectors of the symmetric
// matrix a via Householder tridiagonalization followed by TridiagEigWS.
// Eigenvalues are returned in descending order; column j of the returned
// matrix is the eigenvector for eigenvalue j. Only the lower triangle of
// a is read, and a is not modified.
//
// Every buffer is drawn from ws, so a warmed-up workspace makes the call
// allocation-free. The returned slice and matrix alias ws-owned memory;
// they are invalidated by the next call with the same workspace.
func SymEigWS(ws *EigWorkspace, a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: SymEig requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if n == 0 {
		ws.symV.Reshape(0, 0)
		return nil, &ws.symV, nil
	}
	ws.symA.Reshape(n, n)
	copy(ws.symA.Data, a.Data)
	if cap(ws.symD) < n {
		ws.symD = make([]float64, n)
		ws.symE = make([]float64, n)
	}
	ws.symD, ws.symE = ws.symD[:n], ws.symE[:n]
	e := tred2(&ws.symA, ws.symD, ws.symE)
	vals, tvecs, err := TridiagEigWS(ws, ws.symD, e)
	if err != nil {
		return nil, nil, err
	}
	// Back-transform the tridiagonal eigenvectors: columns of Q·tvecs
	// (tred2 left Q in symA).
	MulInto(&ws.symV, &ws.symA, tvecs)
	return vals, &ws.symV, nil
}

// tred2 reduces the symmetric matrix a (destroyed: it becomes the
// accumulated orthogonal transformation Q with a = Q·T·Qᵀ) to
// tridiagonal form with Householder reflections. The diagonal is written
// into d and the subdiagonal into eFull (both length n, eFull[0]
// scratch); the returned subdiagonal view e aliases eFull[1:].
func tred2(a *Matrix, d, eFull []float64) (e []float64) {
	n := a.Rows

	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a.At(i, k))
			}
			if scale == 0 {
				eFull[i] = a.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					a.Set(i, k, a.At(i, k)/scale)
					h += a.At(i, k) * a.At(i, k)
				}
				f := a.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				eFull[i] = scale * g
				h -= f * g
				a.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					a.Set(j, i, a.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += a.At(j, k) * a.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += a.At(k, j) * a.At(i, k)
					}
					eFull[j] = g / h
					f += eFull[j] * a.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a.At(i, j)
					g = eFull[j] - hh*f
					eFull[j] = g
					for k := 0; k <= j; k++ {
						a.Set(j, k, a.At(j, k)-f*eFull[k]-g*a.At(i, k))
					}
				}
			}
		} else {
			eFull[i] = a.At(i, l)
		}
		d[i] = h
	}

	d[0] = 0
	eFull[0] = 0
	// Accumulate transformations.
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += a.At(i, k) * a.At(k, j)
				}
				for k := 0; k <= l; k++ {
					a.Set(k, j, a.At(k, j)-g*a.At(k, i))
				}
			}
		}
		d[i] = a.At(i, i)
		a.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			a.Set(j, i, 0)
			a.Set(i, j, 0)
		}
	}

	return eFull[1:n]
}
