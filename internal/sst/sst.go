// Package sst implements the Singular Spectrum Transform family of
// change-point scorers at the heart of FUNNEL (§3.2 of the paper):
//
//   - Classic: the original SVD-based SST (Moskvina & Zhigljavsky 2003;
//     Idé & Inoue 2005). Accurate and fast to react, but fragile under
//     noise and expensive (full SVD per point).
//   - Robust: FUNNEL's robustness improvements (§3.2.2) — η future
//     eigen-directions weighted by eigenvalue (Eqs. 8–10) and the
//     median/MAD section filter (Eq. 11).
//   - IKA: the Robust scorer with the Implicit Krylov Approximation
//     (§3.2.3, after Idé & Tsuda 2007) replacing every SVD/eigen
//     decomposition with a few Lanczos steps on an implicit operator
//     plus a QL solve of a k×k tridiagonal matrix. This is the variant
//     FUNNEL deploys.
//
// All scorers share the same sliding-window geometry. For a point t of
// the series x, the past trajectory (Hankel) matrix B(t) stacks δ
// overlapping windows of length ω ending just before t, and the future
// matrix A(t) stacks γ windows of length ω starting at t+ρ. Scores are
// in [0, 1] before the robustness multiplier (0 = future dynamics lie
// inside the past subspace; 1 = orthogonal to it).
package sst

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Config specifies the shared SST geometry and the robustness options.
type Config struct {
	// Omega is the sub-window length ω. The paper uses ω = 9 in the
	// evaluation (giving a 34-point sliding input window) and suggests
	// 5 for fast mitigation, 15 for precise assessment (§3.2.3).
	Omega int
	// Delta is the number of past windows δ; 0 means δ = ω (the IKA
	// requirement, §3.2.3).
	Delta int
	// Gamma is the number of future windows γ; 0 means γ = δ (§3.2.2).
	Gamma int
	// Rho is the future offset ρ; the paper fixes ρ = 0 (§3.2.2).
	Rho int
	// Eta is the dimension η of the past subspace and the number of
	// future eigen-directions; 0 means 3 (§3.2.2: "a value of 3 or 4 is
	// suitable ... we set η = 3").
	Eta int
	// K is the Krylov subspace dimension for IKA; 0 derives it from η
	// via Eq. 14 (k = 2η for even η, 2η−1 for odd).
	K int
	// FutureSmallest selects the η eigenvectors of A·Aᵀ with the
	// *smallest* eigenvalues, which is the paper's literal wording for
	// Eq. 8. The default (false) uses the largest — see DESIGN.md for
	// why — and the ablation bench compares both.
	FutureSmallest bool
	// RobustFilter enables the Eq. 11 median/MAD section multiplier.
	RobustFilter bool
	// Normalize robustly normalizes the local analysis window before
	// scoring, using the *past-span* median and MAD as the reference:
	// quiet noise maps to unit scale while a genuine change keeps its
	// magnitude relative to the baseline noise. This makes thresholds
	// scale-free across KPIs whose raw units differ by many orders of
	// magnitude.
	Normalize bool
}

// withDefaults resolves the zero-value conventions.
func (c Config) withDefaults() Config {
	if c.Omega <= 0 {
		c.Omega = 9
	}
	if c.Eta <= 0 {
		c.Eta = 3
	}
	if c.Delta <= 0 {
		c.Delta = c.Omega
	}
	if c.Gamma <= 0 {
		c.Gamma = c.Delta
	}
	if c.K <= 0 {
		c.K = KrylovDim(c.Eta)
	}
	return c
}

// KrylovDim returns the Krylov subspace dimension of Eq. 14:
// 2η for even η and 2η−1 for odd η.
func KrylovDim(eta int) int {
	if eta%2 == 0 {
		return 2 * eta
	}
	return 2*eta - 1
}

// Validate reports configuration errors after default resolution.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Eta > c.Omega {
		return fmt.Errorf("sst: eta %d exceeds omega %d", c.Eta, c.Omega)
	}
	if c.Eta > c.Delta || c.Eta > c.Gamma {
		return fmt.Errorf("sst: eta %d exceeds window counts delta=%d gamma=%d", c.Eta, c.Delta, c.Gamma)
	}
	if c.Rho < 0 {
		return fmt.Errorf("sst: negative rho %d", c.Rho)
	}
	if c.K > c.Omega {
		return fmt.Errorf("sst: krylov dimension %d exceeds omega %d", c.K, c.Omega)
	}
	return nil
}

// PastSpan returns the number of points required strictly before the
// scored point: δ + ω − 1.
func (c Config) PastSpan() int {
	c = c.withDefaults()
	return c.Delta + c.Omega - 1
}

// FutureSpan returns the number of points required from the scored
// point onward: ρ + γ + ω − 1.
func (c Config) FutureSpan() int {
	c = c.withDefaults()
	return c.Rho + c.Gamma + c.Omega - 1
}

// WindowSize returns the total sliding-window length W = PastSpan +
// FutureSpan. With the paper's defaults (ω = δ = γ = 9, ρ = 0) this is
// 34, matching W_FUNNEL in §4.1.
func (c Config) WindowSize() int { return c.PastSpan() + c.FutureSpan() }

// Scorer is a change-point scorer over a raw series. ScoreAt evaluates
// the change score of x at index t; it panics when t's analysis window
// does not fit inside x.
type Scorer interface {
	// ScoreAt returns the change score of x at index t.
	ScoreAt(x []float64, t int) float64
	// Config returns the resolved geometry of the scorer.
	Config() Config
}

// ScoreSeries evaluates s at every index whose analysis window fits,
// returning a slice aligned with x where unscorable positions are NaN.
// A scorer implementing RangeScorer (e.g. a SlidingScorer wrapper)
// sweeps the series incrementally instead of re-evaluating every window
// from scratch.
func ScoreSeries(s Scorer, x []float64) []float64 {
	cfg := s.Config()
	out := nanSeries(len(x))
	if rs, ok := s.(RangeScorer); ok {
		rs.ScoreRangeInto(out, x, cfg.PastSpan(), len(x)-cfg.FutureSpan()+1)
		return out
	}
	for t := cfg.PastSpan(); t+cfg.FutureSpan() <= len(x); t++ {
		out[t] = s.ScoreAt(x, t)
	}
	return out
}

// nanSeries returns n NaNs: a score series before any position is scored.
func nanSeries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// analysisWindow extracts (and optionally normalizes) the local window
// around t, returning the window and the index of t within it.
//
// When cfg.Normalize is set, the whole window is shifted by the median
// and scaled by the MAD of its *past* span only. Anchoring the scale to
// the pre-change baseline is what lets the robustness filter separate
// "noise wiggles" (≈ unit scale after normalization) from genuine
// changes (magnitude ≫ 1 when the shift exceeds the baseline noise).
// Degenerate baselines (zero MAD) fall back to the standard deviation
// and finally to a floor proportional to the baseline level, so that a
// small absolute shift on a perfectly flat KPI still registers as
// significant.
func analysisWindow(x []float64, t int, cfg Config) ([]float64, int) {
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
	med, mad := stats.MedianMAD(past)
	scale := normScale(past, med, mad)
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = (v - med) / scale
	}
	return out, t - lo
}

// windowRangeError formats the analysis-window panic message.
func windowRangeError(x []float64, lo, hi int) string {
	return fmt.Sprintf("sst: window [%d,%d) out of series length %d", lo, hi, len(x))
}

// normScale resolves the normalization scale from the past span's median
// and MAD, falling back to the standard deviation and finally to a floor
// proportional to the baseline level.
func normScale(past []float64, med, mad float64) float64 {
	scale := mad * stats.MADScale
	if scale == 0 {
		scale = stats.Stddev(past)
	}
	if floor := 1e-3 * math.Max(math.Abs(med), 1); scale < floor {
		scale = floor
	}
	return scale
}

// pastMatrix builds B(t) for the local window; tl is t's index inside w.
func pastMatrix(w []float64, tl int, cfg Config) *linalg.Matrix {
	return linalg.Hankel(w, tl, cfg.Omega, cfg.Delta)
}

// futureMatrix builds A(t) for the local window.
func futureMatrix(w []float64, tl int, cfg Config) *linalg.Matrix {
	end := tl + cfg.Rho + cfg.Gamma + cfg.Omega - 1
	return linalg.Hankel(w, end, cfg.Omega, cfg.Gamma)
}

// clamp01 confines a score to [0, 1], mapping NaN to 0.
func clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v), v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// robustMultiplier evaluates the Eq. 11 section filter at index tl of
// the window w. The a and b statistics are medians and MADs over the
// (2ω−1)-point stretches before and from tl; sections where both the
// local level and the local spread stay static multiply the raw score
// toward zero, suppressing noise-driven false scores (§3.2.2).
//
// Eq. 11 is typeset ambiguously in the paper. A literal product
// |Δmedian|·√|ΔMAD| would annihilate a genuine level shift whose
// spread is unchanged (ΔMAD = 0), so we combine the two terms
// additively: |Δmedian| + √|ΔMAD|. Either term alone passing means a
// change in level or in spread survives the filter; a static section
// yields ≈ 0; on normalized windows the median term scales linearly
// with the shift-to-noise ratio, which is what separates real changes
// from the ≲1-unit median wobble of pure noise. See DESIGN.md
// ("Paper-formula interpretation notes").
func robustMultiplier(w []float64, tl, omega int) float64 {
	before, after, ok := robustSections(w, tl, omega)
	if !ok {
		return 1
	}
	medA, madA := stats.MedianMAD(before)
	medB, madB := stats.MedianMAD(after)
	return sectionContrast(medA, madA, medB, madB)
}

// robustSections slices the (2ω−1)-point stretches before and from tl;
// ok is false when either section is empty (window edge).
func robustSections(w []float64, tl, omega int) (before, after []float64, ok bool) {
	span := 2*omega - 1
	lo := tl - span
	hi := tl + span
	if lo < 0 {
		lo = 0
	}
	if hi > len(w) {
		hi = len(w)
	}
	before = w[lo:tl]
	after = w[tl:hi]
	return before, after, len(before) > 0 && len(after) > 0
}

// sectionContrast combines the level and spread deltas of Eq. 11.
func sectionContrast(medA, madA, medB, madB float64) float64 {
	return math.Abs(medA-medB) + math.Sqrt(math.Abs(madA-madB))
}
