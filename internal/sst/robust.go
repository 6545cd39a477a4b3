package sst

import (
	"math"
	"sync"

	"repro/internal/linalg"
)

// Robust is FUNNEL's robustness-improved SST (§3.2.2) computed with
// exact dense decompositions (full Jacobi SVD for the past subspace and
// a full symmetric eigensolve of the future Gram matrix). It exists as
// the reference implementation the IKA fast path is validated against,
// and as the "Improved SST" row of Table 1 when combined with the
// detection pipeline but without DiD.
//
// Instead of the single dominant future direction, Robust uses η
// eigenvectors βᵢ of A(t)·A(t)ᵀ and forms the eigenvalue-weighted score
// x̂(t) = Σ λᵢ·φᵢ / Σ λᵢ with φᵢ = 1 − Σⱼ (βᵢᵀuⱼ)² (Eqs. 8–10), then
// applies the median/MAD section filter (Eq. 11).
type Robust struct {
	cfg  Config
	pool sync.Pool
}

// NewRobust constructs the robust SST scorer with exact decompositions.
// It panics on an invalid configuration.
func NewRobust(cfg Config) *Robust {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Robust{cfg: cfg}
	r.pool.New = func() any { return &workspace{} }
	return r
}

// Config returns the resolved configuration.
func (r *Robust) Config() Config { return r.cfg }

// Name identifies the scorer in the detector registry.
func (r *Robust) Name() string { return "sst-robust" }

// ScoreAt returns the robust SST change score of x at index t.
// Without the robustness filter the score lies in [0, 1]; with it, the
// score is additionally scaled by the local level/spread change. The
// trajectory matrices, the past SVD, the future Gram product and its
// eigensolve all live in the pooled workspace, so a steady-state score
// allocates nothing; scores are bit-identical to the allocating
// reference path (the allocating SVD and eigensolve delegate to the
// same workspace kernels, and GramSelfInto mirrors MulInto term for term).
func (r *Robust) ScoreAt(x []float64, t int) float64 {
	ws := r.pool.Get().(*workspace)
	defer r.pool.Put(ws)
	w, tl := analysisWindowInto(ws, x, t, r.cfg)

	linalg.HankelInto(&ws.hank, w, tl, r.cfg.Omega, r.cfg.Delta)
	linalg.TopLeftSingularVectorsWS(&ws.svd, &ws.u, &ws.hank, r.cfg.Eta)

	futureEnd := tl + r.cfg.Rho + r.cfg.Gamma + r.cfg.Omega - 1
	linalg.HankelInto(&ws.hank, w, futureEnd, r.cfg.Omega, r.cfg.Gamma)
	linalg.GramSelfInto(&ws.gram, &ws.hank)
	vals, vecs, err := linalg.SymEigWS(&ws.eig, &ws.gram)
	if err != nil {
		// The QL iteration essentially never fails on PSD Gram
		// matrices; treat a failure as "no evidence of change".
		return 0
	}

	// Select the η eigenpairs (leading, or trailing under
	// FutureSmallest) into the workspace: λᵢ floored at zero, βᵢ copied
	// row-contiguously out of the eigenvector matrix before the next
	// window reuses it.
	n := r.cfg.Omega
	eta := r.cfg.Eta
	if eta > len(vals) {
		eta = len(vals)
	}
	ws.lambdas = grow(ws.lambdas, eta)
	ws.betas = grow(ws.betas, eta*n)
	for i := 0; i < eta; i++ {
		idx := i
		if r.cfg.FutureSmallest {
			idx = len(vals) - 1 - i
		}
		l := vals[idx]
		if l < 0 {
			l = 0
		}
		ws.lambdas[i] = l
		beta := ws.betas[i*n : (i+1)*n]
		for row := 0; row < n; row++ {
			beta[row] = vecs.Data[row*vecs.Cols+idx]
		}
	}

	// Eqs. 9–10, mirroring weightedDiscordance term for term.
	var num, den float64
	for i := 0; i < eta; i++ {
		beta := ws.betas[i*n : (i+1)*n]
		var proj float64
		for j := 0; j < ws.u.Cols; j++ {
			d := colDot(&ws.u, j, beta)
			proj += d * d
		}
		phi := clamp01(1 - proj)
		num += ws.lambdas[i] * phi
		den += ws.lambdas[i]
	}
	var score float64
	if den != 0 && !math.IsNaN(num) {
		score = clamp01(num / den)
	}
	if r.cfg.RobustFilter {
		score *= robustMultiplierWS(ws, w, tl, r.cfg.Omega)
	}
	return score
}

// selectFutureDirections picks the η eigenpairs of the future Gram
// matrix per the configuration: leading eigenvalues by default, or the
// trailing ones when FutureSmallest is set (the paper's literal Eq. 8
// wording). Non-positive eigenvalues (numerical noise on a PSD matrix)
// are floored at zero.
func selectFutureDirections(vals []float64, vecs *linalg.Matrix, cfg Config) (lambdas []float64, betas [][]float64) {
	n := len(vals)
	eta := cfg.Eta
	if eta > n {
		eta = n
	}
	lambdas = make([]float64, 0, eta)
	betas = make([][]float64, 0, eta)
	for i := 0; i < eta; i++ {
		idx := i
		if cfg.FutureSmallest {
			idx = n - 1 - i
		}
		l := vals[idx]
		if l < 0 {
			l = 0
		}
		lambdas = append(lambdas, l)
		betas = append(betas, vecs.Col(idx))
	}
	return lambdas, betas
}

// weightedDiscordance evaluates Eqs. 9–10: the λ-weighted mean of the
// per-direction discordances φᵢ = 1 − Σⱼ (βᵢᵀuⱼ)², clamped to [0, 1].
// A zero eigenvalue mass yields 0 (a constant future carries no change
// evidence).
func weightedDiscordance(ueta *linalg.Matrix, lambdas []float64, betas [][]float64) float64 {
	var num, den float64
	for i, beta := range betas {
		var proj float64
		for j := 0; j < ueta.Cols; j++ {
			d := linalg.Dot(ueta.Col(j), beta)
			proj += d * d
		}
		phi := clamp01(1 - proj)
		num += lambdas[i] * phi
		den += lambdas[i]
	}
	if den == 0 || math.IsNaN(num) {
		return 0
	}
	return clamp01(num / den)
}
