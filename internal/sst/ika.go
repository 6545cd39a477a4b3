package sst

import (
	"math"
	"sync"

	"repro/internal/linalg"
)

// IKA is the Implicit Krylov Approximation SST (§3.2.3) — the scorer
// FUNNEL actually deploys. It computes the same robust score as Robust
// but never performs a full SVD or dense eigensolve:
//
//  1. The η future directions βᵢ(t) and their eigenvalues are obtained
//     by running Lanczos on the implicit operator A(t)·A(t)ᵀ (matrix
//     compression: only matrix–vector products with A and Aᵀ are
//     evaluated) followed by a QL eigensolve of the tiny k×k
//     tridiagonal matrix.
//  2. For each βᵢ, φᵢ is approximated via Lanczos(C, βᵢ, k) with
//     C = B(t)·B(t)ᵀ implicit: by Idé & Tsuda's result, the squared
//     projections of βᵢ onto the top-η eigendirections of C are the
//     squared first components of the top-η eigenvectors of T_k
//     (Eq. 13: φᵢ ≈ 1 − Σⱼ x_j(1)²).
//
// The per-point cost is O(k·ω·γ) instead of the O(ω·δ²)-per-sweep
// iterative SVD, which is where the 401.8 µs vs 2.852 s gap in Table 2
// comes from.
//
// The hot path is allocation-free in steady state: the trajectory
// matrices exist only as implicit linalg.HankelGram operators over the
// window slice, and every Krylov basis, tridiagonal scratch and Ritz
// vector lives in a pooled workspace. Concurrent callers (the assessor's
// per-KPI workers, funnel.AssessAll workers) each draw their own
// workspace from the pool, so a single IKA value is safe for concurrent
// use and its scores are bit-identical to sequential evaluation.
type IKA struct {
	cfg  Config
	pool sync.Pool
}

// NewIKA constructs the IKA-accelerated robust SST scorer. It panics on
// an invalid configuration.
func NewIKA(cfg Config) *IKA {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &IKA{cfg: cfg}
	s.pool.New = func() any { return &workspace{} }
	return s
}

// Config returns the resolved configuration.
func (s *IKA) Config() Config { return s.cfg }

// Name identifies the scorer in the detector registry.
func (s *IKA) Name() string { return "sst" }

// ScoreAt returns the IKA change score of x at index t. It approximates
// Robust.ScoreAt to within Krylov accuracy (tight for k = 2η−1 ≥ η+2 on
// the effectively low-rank Hankel Gram matrices FUNNEL sees).
func (s *IKA) ScoreAt(x []float64, t int) float64 {
	ws := s.pool.Get().(*workspace)
	v := s.scoreAt(ws, x, t)
	s.pool.Put(ws)
	return v
}

// scoreAt evaluates one window with every buffer drawn from ws.
func (s *IKA) scoreAt(ws *workspace, x []float64, t int) float64 {
	w, tl := analysisWindowInto(ws, x, t, s.cfg)

	// B(t) and A(t) as implicit Gram operators over the window slice —
	// no ω×δ matrix is ever materialized on this path.
	ws.past.Reset(w, tl, s.cfg.Omega, s.cfg.Delta)
	futureEnd := tl + s.cfg.Rho + s.cfg.Gamma + s.cfg.Omega - 1
	ws.future.Reset(w, futureEnd, s.cfg.Omega, s.cfg.Gamma)

	ws.start = grow(ws.start, s.cfg.Omega)
	ws.future.RowSums(ws.start)
	score := s.scoreWindow(ws, &ws.past, &ws.future)
	if s.cfg.RobustFilter {
		score *= robustMultiplierWS(ws, w, tl, s.cfg.Omega)
	}
	return score
}

// scoreWindow runs the IKA core — η future Ritz pairs, then the λ-weighted
// discordance of each — against arbitrary past/future Gram operators, with
// ws.start already holding the Krylov start vector for the future solve.
// The per-window path passes the implicit HankelGram operators; the
// sliding sweep passes incrementally maintained dense Gram matrices. A
// degenerate window scores 0.
func (s *IKA) scoreWindow(ws *workspace, past, future linalg.SymOp) float64 {
	eta := s.futureDirections(ws, future)
	var num, den float64
	for i := 0; i < eta; i++ {
		beta := ws.betas[i*s.cfg.Omega : (i+1)*s.cfg.Omega]
		phi := s.discordance(ws, past, beta)
		num += ws.lambdas[i] * phi
		den += ws.lambdas[i]
	}
	if den > 0 {
		return clamp01(num / den)
	}
	return 0
}

// futureDirections extracts η Ritz pairs of the future Gram operator via
// Lanczos + QL, storing the eigenvalues in ws.lambdas and the normalized
// Ritz vectors (reconstructed in the original ω-dimensional space from
// the Krylov basis) row-contiguously in ws.betas. ws.start must hold the
// Krylov start vector. It returns the number of pairs, 0 on a degenerate
// window.
func (s *IKA) futureDirections(ws *workspace, future linalg.SymOp) int {
	n := s.cfg.Omega
	if linalg.Norm2(ws.start) < 1e-12 {
		// Deterministic fallback for a vanishing A·1 (e.g. a perfectly
		// antisymmetric window): a fixed ramp.
		for i := range ws.start {
			ws.start[i] = 1 + float64(i)
		}
	}
	res, err := linalg.LanczosWS(&ws.lan, future, ws.start, s.cfg.K, true)
	if err != nil {
		return 0
	}
	vals, vecs, err := linalg.TridiagEigWS(&ws.eig, res.Alpha, res.Beta)
	if err != nil {
		return 0
	}
	eta := s.cfg.Eta
	if eta > res.K {
		eta = res.K
	}
	// Copy the selected pairs out: the Lanczos and eig workspaces are
	// reused by every discordance solve below.
	ws.lambdas = grow(ws.lambdas, eta)
	ws.betas = grow(ws.betas, eta*n)
	for i := 0; i < eta; i++ {
		idx := i
		if s.cfg.FutureSmallest {
			idx = res.K - 1 - i
		}
		l := vals[idx]
		if l < 0 {
			l = 0
		}
		ws.lambdas[i] = l
		// Ritz vector: Q · y_idx, without extracting the column.
		beta := ws.betas[i*n : (i+1)*n]
		mulVecColTo(beta, res.Q, vecs, idx)
		linalg.Normalize(beta)
	}
	return eta
}

// mulVecColTo writes q · (column col of y) into dst.
func mulVecColTo(dst []float64, q, y *linalg.Matrix, col int) {
	for i := 0; i < q.Rows; i++ {
		row := q.Data[i*q.Cols : (i+1)*q.Cols]
		var s float64
		for j, r := range row {
			s += r * y.Data[j*y.Cols+col]
		}
		dst[i] = s
	}
}

// discordance approximates φ = 1 − Σⱼ (βᵀuⱼ)² for the top-η
// eigendirections uⱼ of the past Gram operator via Eq. 13. Only the first
// components of the tridiagonal eigenvectors enter the score, so the
// solve accumulates just that row of the rotations
// (TridiagEigFirstRowWS) — bit-identical to reading row 0 of the full
// eigenvector matrix at a fraction of the cost, and this eigensolve runs
// η times per window against the future stage's once.
func (s *IKA) discordance(ws *workspace, past linalg.SymOp, beta []float64) float64 {
	res, err := linalg.LanczosWS(&ws.lan, past, beta, s.cfg.K, false)
	if err != nil {
		return 0
	}
	vals, first, err := linalg.TridiagEigFirstRowWS(&ws.eig, res.Alpha, res.Beta)
	if err != nil {
		return 0
	}
	eta := s.cfg.Eta
	if eta > res.K {
		eta = res.K
	}
	var proj float64
	for j := 0; j < eta; j++ {
		// First component of the j-th tridiagonal eigenvector: the
		// cosine between β (the Krylov start vector) and the j-th Ritz
		// direction of C.
		x1 := first[j]
		// Skip numerically-zero Ritz values: they correspond to the
		// null space, not to genuine past dynamics.
		if vals[j] <= 1e-12*math.Max(1, vals[0]) {
			continue
		}
		proj += x1 * x1
	}
	return clamp01(1 - proj)
}
