// Package bsts implements a CausalImpact-style Bayesian structural
// time-series causality stage (Brodersen et al. 2015; evaluated against
// classical DiD by Pellegrini et al.): an alternative to the did
// package's 2×2 estimator that models the treated KPI as a local-level
// state-space process around a linear trend, with a regression on the
// concurrent (or historical) control series,
//
//	y_t = a + b·t + μ_t + β·c_t + ε_t   ε_t ~ N(0, σ²_ε)  (observation)
//	μ_t = μ_{t−1} + η_t                  η_t ~ N(0, σ²_η)  (local level)
//
// fit on the pre-change period only. The post-change counterfactual is
// the model run forward — the trend line extrapolated, the level
// deviation carried from the Kalman filter's terminal state, and β·c_t
// tracking whatever the control did — and the impact estimate is the
// mean gap between the observed post series and that counterfactual,
// with a posterior predictive variance that grows with the forecast
// horizon (trend-extrapolation error and accumulated level innovations,
// so distant post bins count for less). The trend term is what lets the
// stage ride out slow in-window drift (seasonal shoulders, warm-up
// ramps) that a flat random-walk forecast would misread as impact; it
// is deterministic rather than a stochastic slope state because on the
// ~30-bin windows the funnel hands this stage, a random-walk slope's
// forecast variance compounds quadratically and drowns every real
// effect (the same reason CausalImpact defaults to a tight prior on the
// trend).
//
// Hyperparameters are estimated from the data rather than sampled: β by
// ordinary least squares on the pre period, (a, b) by a least-squares
// line on the regression residuals, and the two variances by method of
// moments on the twice-differenced detrended residuals r_t, for which
// Var(Δ²r) = 2σ²_η + 6σ²_ε with lag-1 autocovariance −σ²_η − 4σ²_ε and
// lag-2 autocovariance σ²_ε. Because those moments are noisy on short
// windows, σ²_ε is floored at half its white-noise share of Var(Δ²r)
// and σ²_η is capped at a small fraction of σ²_ε — the shrinkage
// CausalImpact expresses as a prior, applied here as hard bounds to
// stay deterministic (no MCMC). All bounds are relative, i.e.
// scale-free.
//
// The inference keeps the CausalImpact shape — a credible interval on
// the cumulative gap — reported through the same did.Result contract
// (α, standard error, t-statistic) the funnel's attribution rule
// already consumes, so funnel.Stages.Estimate can swap stages without
// touching the decision logic. Relative to classical DiD the model is
// strictly more flexible — DiD is the special case b = 0, σ²_η = 0,
// β = 1 — which buys robustness when the pre period drifts, at the cost
// of wider intervals on short windows.
package bsts

import (
	"errors"
	"math"

	"repro/internal/did"
)

// ErrShortPeriod is returned when a pre or post period is too short to
// identify the model (the second-difference moment estimator needs a
// handful of residuals).
var ErrShortPeriod = errors.New("bsts: period too short to fit the state-space model")

// Model carries the fitted hyperparameters and filter state, exposed so
// tests and diagnostics can assert on the fit rather than only on the
// verdict.
type Model struct {
	// Beta is the OLS regression coefficient on the control series.
	Beta float64
	// BetaVar is the sampling variance of Beta.
	BetaVar float64
	// Intercept and Trend are the least-squares line through the
	// regression residuals (pre-period bins indexed 0..n−1).
	Intercept, Trend float64
	// TrendVar is the sampling variance of Trend.
	TrendVar float64
	// ObsVar and LevelVar are σ²_ε and σ²_η.
	ObsVar, LevelVar float64
	// Level and LevelP are the Kalman filter's terminal level-deviation
	// mean and variance at the end of the pre period.
	Level, LevelP float64
}

// Estimate fits the model on the pre period and scores the post-period
// gap. The four samples share the did.Estimate shape: aligned windows
// of the treated and control series around the change (normalize them
// with did.NormalizeGroups first for a scale-free α). It returns the
// impact as a did.Result — Alpha is the mean posterior gap, StdErr its
// posterior predictive standard deviation — so the caller's attribution
// thresholds apply unchanged.
func Estimate(treatedPre, treatedPost, controlPre, controlPost []float64) (did.Result, error) {
	_, res, err := Fit(treatedPre, treatedPost, controlPre, controlPost)
	return res, err
}

// Fit is Estimate returning the fitted model alongside the result.
func Fit(treatedPre, treatedPost, controlPre, controlPost []float64) (Model, did.Result, error) {
	n := min2(len(treatedPre), len(controlPre))
	m := min2(len(treatedPost), len(controlPost))
	if n < 8 || m < 1 {
		return Model{}, did.Result{}, ErrShortPeriod
	}
	yPre, cPre := treatedPre[len(treatedPre)-n:], controlPre[len(controlPre)-n:]
	yPost, cPost := treatedPost[:m], controlPost[:m]

	var mod Model

	// β by OLS of y on c over the pre period; a constant control
	// (no concurrent variation to borrow) degenerates to β = 0 and the
	// pure trend model.
	cMean, yMean := mean(cPre), mean(yPre)
	sxx, sxy := 0.0, 0.0
	for i := range yPre {
		dc := cPre[i] - cMean
		sxx += dc * dc
		sxy += dc * (yPre[i] - yMean)
	}
	if sxx > 0 {
		mod.Beta = sxy / sxx
	}

	// Regression residuals z_t = y_t − β·c_t carry the trend plus noise.
	z := make([]float64, n)
	rss := 0.0
	for i := range yPre {
		z[i] = yPre[i] - mod.Beta*cPre[i]
		r := yPre[i] - yMean - mod.Beta*(cPre[i]-cMean)
		rss += r * r
	}
	if sxx > 0 && n > 2 {
		mod.BetaVar = rss / float64(n-2) / sxx
	}

	// Least-squares line through z (bins 0..n−1): the deterministic
	// trend component. Stt = Σ(t−t̄)² is the usual slope normalizer.
	tMean := float64(n-1) / 2
	zMean := mean(z)
	stt, stz := 0.0, 0.0
	for i, v := range z {
		dt := float64(i) - tMean
		stt += dt * dt
		stz += dt * (v - zMean)
	}
	mod.Trend = stz / stt
	mod.Intercept = zMean - mod.Trend*tMean

	// Detrended residuals e_t feed the local-level filter.
	e := make([]float64, n)
	s2 := 0.0
	for i, v := range z {
		e[i] = v - (mod.Intercept + mod.Trend*float64(i))
		s2 += e[i] * e[i]
	}
	s2 /= float64(n - 2)
	mod.TrendVar = s2 / stt

	// σ²_ε and σ²_η by method of moments on Δ²e (the line drops out of
	// second differences), clamped to the feasible region and shrunk as
	// described in the package comment.
	varD2, acov1, acov2 := diff2Moments(e)
	obsVar := math.Max(clamp(acov2, 0, varD2/6), varD2/12)
	levelVar := clamp(-acov1-4*obsVar, 0, 0.1*obsVar)
	floor := 1e-9 * (varD2 + 1)
	mod.ObsVar = math.Max(obsVar, floor)
	mod.LevelVar = math.Max(levelVar, floor)

	// Kalman filter for the level deviation through the pre period.
	mod.Level, mod.LevelP = e[0], mod.ObsVar
	for i := 1; i < n; i++ {
		p := mod.LevelP + mod.LevelVar
		k := p / (p + mod.ObsVar)
		mod.Level += k * (e[i] - mod.Level)
		mod.LevelP = (1 - k) * p
	}

	// Posterior predictive gap over the post period: bin j (1-based) is
	// forecast at trend position x_j = n−1+j.
	gapSum, cPostMean := 0.0, mean(cPost)
	dxMean := 0.0
	for j := range yPost {
		x := float64(n - 1 + j + 1)
		gapSum += yPost[j] - (mod.Intercept + mod.Trend*x + mod.Level + mod.Beta*cPost[j])
		dxMean += x - tMean
	}
	fm := float64(m)
	alpha := gapSum / fm
	dxMean /= fm

	// Var(mean forecast error), term by term:
	//   line extrapolation  s²·(1/n + d̄ₓ²/Stt)   (shared intercept/slope error)
	//   terminal state      P_T                    (fully shared)
	//   level innovations   σ²_η·(m+1)(2m+1)/(6m)  (Cov(j,k) = min(j,k)·σ²_η)
	//   observation noise   σ²_ε/m                 (independent per bin)
	//   regression          Var(β)·c̄²              (shared β error)
	minAvg := (fm + 1) * (2*fm + 1) / (6 * fm)
	varMean := s2*(1/float64(n)+dxMean*dxMean/stt) +
		mod.LevelP + mod.LevelVar*minAvg + mod.ObsVar/fm +
		mod.BetaVar*cPostMean*cPostMean
	se := math.Sqrt(varMean)

	res := did.Result{
		Alpha:       alpha,
		StdErr:      se,
		TreatedDiff: mean(yPost) - yMean,
		ControlDiff: cPostMean - cMean,
	}
	switch {
	case se > 0:
		res.TStat = alpha / se
	case alpha != 0:
		res.TStat = math.Inf(1)
		if alpha < 0 {
			res.TStat = math.Inf(-1)
		}
	}
	return mod, res, nil
}

// diff2Moments returns the variance and lag-1/lag-2 autocovariances of
// the second differences of z.
func diff2Moments(z []float64) (varD2, acov1, acov2 float64) {
	nd := len(z) - 2
	d := make([]float64, nd)
	for i := 0; i < nd; i++ {
		d[i] = z[i+2] - 2*z[i+1] + z[i]
	}
	dm := mean(d)
	for _, v := range d {
		varD2 += (v - dm) * (v - dm)
	}
	varD2 /= float64(nd)
	for i := 0; i+1 < nd; i++ {
		acov1 += (d[i] - dm) * (d[i+1] - dm)
	}
	acov1 /= float64(nd)
	for i := 0; i+2 < nd; i++ {
		acov2 += (d[i] - dm) * (d[i+2] - dm)
	}
	acov2 /= float64(nd)
	return varD2, acov1, acov2
}

// clamp restricts v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
