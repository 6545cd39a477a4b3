package sst

import (
	"repro/internal/linalg"
	"repro/internal/stats"
)

// workspace holds every buffer one ScoreAt evaluation needs, so that a
// steady-state score performs zero heap allocations. Each scorer owns a
// sync.Pool of workspaces: concurrent callers (the assessor's
// per-KPI workers, funnel.AssessAll workers) each check one out for the duration
// of a single window evaluation, so no state is ever shared between
// goroutines and sequential scoring reuses one workspace for the whole
// series.
//
// Buffers grow on demand and are retained across windows; after the
// first evaluation with a given geometry every field is warm.
type workspace struct {
	// win is the normalized analysis-window buffer (Config.Normalize).
	win []float64
	// scratch backs stats.MedianMADInto for normalization and the
	// Eq. 11 robustness filter.
	scratch []float64
	// past and future are the implicit Hankel Gram operators B·Bᵀ and
	// A·Aᵀ of the current window — the ω×δ trajectory matrices are
	// never materialized on this path.
	past, future linalg.HankelGram
	// lan and eig back the Lanczos + QL solves of the IKA path.
	lan linalg.LanczosWorkspace
	eig linalg.EigWorkspace
	// start is the Krylov start vector (row sums of A).
	start []float64
	// lambdas and betas hold the η future Ritz values and vectors
	// (betas is η row-contiguous vectors of length ω), copied out of
	// the Lanczos workspace before it is reused for the φ solves.
	lambdas []float64
	betas   []float64
	// hank, gram, u, beta1 and svd back the dense reference scorers
	// (Classic/Robust): the materialized trajectory matrix, the future
	// Gram product, the η past singular vectors, the top future singular
	// vector, and the Jacobi SVD scratch.
	hank  linalg.Matrix
	gram  linalg.Matrix
	u     linalg.Matrix
	beta1 linalg.Matrix
	svd   linalg.SVDWorkspace
}

// colDot returns the inner product of column j of m with v, with the
// same ascending-index accumulation as linalg.Dot(m.Col(j), v) — the
// allocation-free replacement for extracting the column.
func colDot(m *linalg.Matrix, j int, v []float64) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += m.Data[i*m.Cols+j] * v[i]
	}
	return s
}

// grow returns s resized to n, reusing its backing array when possible.
// Contents are unspecified.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// analysisWindowInto is analysisWindow with the normalized copy written
// into ws.win and the median/MAD scratch drawn from ws.scratch, so the
// steady-state path allocates nothing. The returned slice aliases either
// x (no normalization) or ws.win.
func analysisWindowInto(ws *workspace, x []float64, t int, cfg Config) ([]float64, int) {
	lo := t - cfg.PastSpan()
	hi := t + cfg.FutureSpan()
	if lo < 0 || hi > len(x) {
		panic(windowRangeError(x, lo, hi))
	}
	w := x[lo:hi]
	if !cfg.Normalize {
		return w, t - lo
	}
	past := x[lo:t]
	ws.scratch = grow(ws.scratch, len(w))
	med, mad := stats.MedianMADInto(past, ws.scratch)
	scale := normScale(past, med, mad)
	ws.win = grow(ws.win, len(w))
	for i, v := range w {
		ws.win[i] = (v - med) / scale
	}
	return ws.win, t - lo
}

// robustMultiplierWS is robustMultiplier with the median/MAD scratch
// drawn from ws.scratch.
func robustMultiplierWS(ws *workspace, w []float64, tl, omega int) float64 {
	before, after, ok := robustSections(w, tl, omega)
	if !ok {
		return 1
	}
	ws.scratch = grow(ws.scratch, max(len(before), len(after)))
	medA, madA := stats.MedianMADInto(before, ws.scratch)
	medB, madB := stats.MedianMADInto(after, ws.scratch)
	return sectionContrast(medA, madA, medB, madB)
}
