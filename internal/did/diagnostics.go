package did

import (
	"errors"
	"math"

	"repro/internal/timeseries"
)

// DiD identification rests on the parallel-trends assumption (§3.2.4:
// "in the absence of software changes, the difference between the
// average KPIs for the treated group and those for the control group
// remains stable over time"). This file provides the standard placebo
// diagnostic: run the same estimator on two *pre-change* periods, where
// the true treatment effect is zero by construction; a significant
// placebo α means the groups were already drifting apart and the real
// estimate should not be trusted.

// TrendCheck is the outcome of a parallel-trends placebo test.
type TrendCheck struct {
	// Placebo is the DiD estimate over the two pre-change periods.
	Placebo Result
	// Parallel reports whether the placebo estimate stayed below the
	// threshold used for the real decision.
	Parallel bool
}

// ErrShortPrePeriod is returned when the series cannot supply two
// disjoint pre-change windows.
var ErrShortPrePeriod = errors.New("did: pre-change history too short for a placebo test")

// ParallelTrendsAt runs the placebo test for treated/control series
// around the change, which falls at bin t of treated's timeline and at
// bin ct of control's, with period length w: period 0 is [t−2w, t−w)
// and period 1 is [t−w, t), both strictly before the change.
// alphaThreshold is the same |α| bound the caller uses for the real
// decision; samples are normalized with NormalizeGroups first so the
// bound is comparable.
func ParallelTrendsAt(treated, control *timeseries.Series, t, ct, w int, alphaThreshold float64) (TrendCheck, error) {
	if t-2*w < 0 || t > treated.Len() || ct-2*w < 0 || ct > control.Len() {
		return TrendCheck{}, ErrShortPrePeriod
	}
	tEarly := treated.Values[t-2*w : t-w]
	tLate := treated.Values[t-w : t]
	cEarly := control.Values[ct-2*w : ct-w]
	cLate := control.Values[ct-w : ct]
	np, nq, ncp, ncq := NormalizeGroups(tEarly, tLate, cEarly, cLate)
	res, err := Estimate(np, nq, ncp, ncq)
	if err != nil {
		return TrendCheck{}, err
	}
	return TrendCheck{
		Placebo:  res,
		Parallel: math.Abs(res.Alpha) < alphaThreshold,
	}, nil
}

// PlaceboSeasonal runs the placebo test for the historical-control path
// (§3.2.5): the treated side is the pre-change windows of the series,
// the control side the same clock-time windows of earlier days. The
// design mirrors EstimateSeasonal shifted one period into the past.
func PlaceboSeasonal(s *timeseries.Series, t, w, maxDays int, alphaThreshold float64) (TrendCheck, error) {
	if t-2*w < 0 || t > s.Len() {
		return TrendCheck{}, ErrShortPrePeriod
	}
	// Pretend the change happened at t−w: both periods are genuinely
	// pre-change.
	res, err := EstimateSeasonal(s, t-w, w, maxDays)
	if err != nil {
		return TrendCheck{}, err
	}
	return TrendCheck{
		Placebo:  res,
		Parallel: math.Abs(res.Alpha) < alphaThreshold,
	}, nil
}
