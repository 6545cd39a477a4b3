// Package did implements the Difference-in-Differences estimator FUNNEL
// uses to decide whether a detected KPI change was *caused by* the
// software change or merely coincided with it (§3.2.4–§3.2.5).
//
// The estimator compares the change over time in the treated group
// (KPIs of tservers/tinstances) with the change over time in a control
// group: cservers/cinstances under Dark Launching, or the same
// time-of-day windows from up to 30 historical days when no concurrent
// control exists (affected services, Full Launching). Factors other
// than the software change — seasonality, attacks, infrastructure
// events — move both groups equally, so their contribution cancels in
// α = (ȲT,post − ȲC,post) − (ȲT,pre − ȲC,pre)  (Eq. 16).
package did

import (
	"errors"
	"math"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// ErrEmptyGroup is returned when a required pre/post sample is empty.
var ErrEmptyGroup = errors.New("did: empty group sample")

// Result is the outcome of a DiD estimation.
type Result struct {
	// Alpha is the DiD impact estimator α of Eq. 16, in the units of
	// the (typically normalized) KPI.
	Alpha float64
	// StdErr is the standard error of α under the linear parametric
	// model of Eq. 15 with independent transient shocks.
	StdErr float64
	// TStat is Alpha/StdErr (0 when StdErr is 0 and Alpha is 0; ±Inf
	// when only StdErr is 0).
	TStat float64
	// TreatedDiff and ControlDiff are the within-group post−pre mean
	// differences whose difference is Alpha.
	TreatedDiff, ControlDiff float64
}

// Causal reports whether the estimate attributes the KPI change to the
// software change at the given |α| threshold. Empirically the paper
// sets the threshold to a small value like 0.5 for change-sensitive
// services (§3.2.4); on robustly normalized KPIs that corresponds to
// half a baseline-MAD of sustained relative movement.
func (r Result) Causal(alphaThreshold float64) bool {
	return math.Abs(r.Alpha) >= alphaThreshold
}

// Significant reports whether the estimate is statistically
// significant at the given minimum |t|-statistic — the second half of
// the attribution rule (Eq. 15 exists "to obtain the standard errors
// and significance levels for the DiD estimator").
func (r Result) Significant(minT float64) bool {
	return math.Abs(r.TStat) >= minT
}

// Estimate computes the DiD estimator from the four group samples:
// treated pre/post and control pre/post period measurements. Each slice
// holds the pooled KPI samples of that group and period (multiple
// KPIs × ω time bins). NaN samples are ignored.
func Estimate(treatedPre, treatedPost, controlPre, controlPost []float64) (Result, error) {
	tPre, tPreVar, tPreN := cleanMoments(treatedPre)
	tPost, tPostVar, tPostN := cleanMoments(treatedPost)
	cPre, cPreVar, cPreN := cleanMoments(controlPre)
	cPost, cPostVar, cPostN := cleanMoments(controlPost)
	if tPreN == 0 || tPostN == 0 || cPreN == 0 || cPostN == 0 {
		return Result{}, ErrEmptyGroup
	}
	r := Result{
		TreatedDiff: tPost - tPre,
		ControlDiff: cPost - cPre,
	}
	r.Alpha = r.TreatedDiff - r.ControlDiff
	// Variance of a difference of four independent group means.
	v := tPreVar/float64(tPreN) + tPostVar/float64(tPostN) +
		cPreVar/float64(cPreN) + cPostVar/float64(cPostN)
	r.StdErr = math.Sqrt(v)
	switch {
	case r.StdErr > 0:
		r.TStat = r.Alpha / r.StdErr
	case r.Alpha == 0:
		r.TStat = 0
	default:
		r.TStat = math.Inf(1)
		if r.Alpha < 0 {
			r.TStat = math.Inf(-1)
		}
	}
	return r, nil
}

// cleanMoments returns the mean, variance and count of the non-NaN
// entries of xs.
func cleanMoments(xs []float64) (mean, variance float64, n int) {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		return math.NaN(), 0, 0
	}
	return stats.Mean(clean), stats.Variance(clean), len(clean)
}

// HistoricalControl assembles the §3.2.5 control group for a KPI with
// no concurrent control: for each of up to maxDays whole days before
// the change bin t, it extracts the same-time-of-day pre/post windows
// of length w and pools them. The paper uses the 30 days before the day
// of the software change to wash out time-of-day and day-of-week
// effects and dilute baseline contamination.
//
// It returns the pooled control pre and post samples; ok is false when
// not a single historical day is fully covered by the series.
func HistoricalControl(s *timeseries.Series, t, w, maxDays int) (pre, post []float64, ok bool) {
	for d := 1; d <= maxDays; d++ {
		p, q, found := s.SamePeriodDaysAgo(t, w, d)
		if !found {
			continue
		}
		pre = append(pre, p...)
		post = append(post, q...)
		ok = true
	}
	return pre, post, ok
}

// HistoricalControlWeekly assembles a weekday-matched control group:
// the same clock-time pre/post windows from whole *weeks* earlier.
// Weekly lags cancel the day-of-week pattern exactly (a Friday→Saturday
// transition is compared with earlier Friday→Saturday transitions),
// whereas daily lags would mix weekdays into the baseline. ok is false
// when not a single prior week is covered.
func HistoricalControlWeekly(s *timeseries.Series, t, w, maxWeeks int) (pre, post []float64, ok bool) {
	for wk := 1; wk <= maxWeeks; wk++ {
		p, q, found := s.SamePeriodDaysAgo(t, w, 7*wk)
		if !found {
			continue
		}
		pre = append(pre, p...)
		post = append(post, q...)
		ok = true
	}
	return pre, post, ok
}

// EstimateSeasonal runs the DiD estimator with the treated group taken
// from the series around the change bin t and the control group built
// from the same clock-time windows of the preceding maxDays days
// (Full-Launching / affected-service path, §3.2.5).
func EstimateSeasonal(s *timeseries.Series, t, w, maxDays int) (Result, error) {
	if t-w < 0 || t+w > s.Len() {
		return Result{}, errors.New("did: pre/post periods out of range")
	}
	cPre, cPost, ok := HistoricalControl(s, t, w, maxDays)
	if !ok {
		return Result{}, errors.New("did: no historical control available")
	}
	tPre, tPost := s.Around(t, w)
	return Estimate(tPre, tPost, cPre, cPost)
}

// NormalizeGroups robustly normalizes the four group samples so that α
// thresholds are comparable across KPIs of wildly different units. The
// shift is the pooled pre-period median; the scale is the MAD of the
// *within-group* pre-period deviations (each group centered on its own
// median before pooling) — the DiD model's KPI-specific fixed effects
// ξ(i) (Eq. 15) put treated and control at different levels, and a
// between-group scale would dilute α toward zero exactly when the
// groups differ most. The same shift and scale are applied to all four
// samples, preserving α's meaning.
func NormalizeGroups(treatedPre, treatedPost, controlPre, controlPost []float64) (tp, tq, cp, cq []float64) {
	clean := func(xs []float64) []float64 {
		out := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) {
				out = append(out, x)
			}
		}
		return out
	}
	tPre := clean(treatedPre)
	cPre := clean(controlPre)
	pooled := append(append([]float64{}, tPre...), cPre...)
	var med, scale float64
	if len(pooled) > 0 {
		med = stats.Median(pooled)
		dev := make([]float64, 0, len(pooled))
		for _, group := range [][]float64{tPre, cPre} {
			if len(group) == 0 {
				continue
			}
			gm := stats.Median(group)
			for _, x := range group {
				dev = append(dev, x-gm)
			}
		}
		scale = stats.MAD(dev) * stats.MADScale
		if scale == 0 {
			scale = stats.Stddev(dev)
		}
	}
	if floor := 1e-3 * math.Max(math.Abs(med), 1); scale < floor {
		scale = floor
	}
	norm := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = (x - med) / scale
		}
		return out
	}
	return norm(treatedPre), norm(treatedPost), norm(controlPre), norm(controlPost)
}
