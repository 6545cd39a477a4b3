// Package timeseries provides the fixed-interval KPI time-series model
// used throughout FUNNEL: 1-minute-binned series, with slicing by
// wall-clock period, day-over-day extraction for the 30-day seasonal
// baseline (§3.2.5), and gap filling.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// DefaultStep is the paper's time bin: KPIs are collected every minute
// and FUNNEL bins all event series into 1-minute buckets (§3.1).
const DefaultStep = time.Minute

// Series is a regularly sampled time series. Values[i] covers the
// half-open interval [Start + i·Step, Start + (i+1)·Step).
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// New returns a Series starting at start with the given step and values.
// The values slice is used directly (not copied).
func New(start time.Time, step time.Duration, values []float64) *Series {
	if step <= 0 {
		panic(fmt.Sprintf("timeseries: nonpositive step %v", step))
	}
	return &Series{Start: start, Step: step, Values: values}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// End returns the time just past the last bin.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// TimeAt returns the start time of bin i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the bin index containing t and whether t falls inside
// the series' span.
func (s *Series) IndexOf(t time.Time) (int, bool) {
	if t.Before(s.Start) {
		return 0, false
	}
	i := int(t.Sub(s.Start) / s.Step)
	if i >= len(s.Values) {
		return len(s.Values) - 1, false
	}
	return i, true
}

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Start: s.Start, Step: s.Step, Values: v}
}

// Slice returns the sub-series of bins [i, j). The values share the
// underlying array with s.
func (s *Series) Slice(i, j int) *Series {
	if i < 0 || j > len(s.Values) || i > j {
		panic(fmt.Sprintf("timeseries: slice [%d,%d) of %d", i, j, len(s.Values)))
	}
	return &Series{Start: s.TimeAt(i), Step: s.Step, Values: s.Values[i:j]}
}

// Window returns the values of the w bins ending at (and including)
// index end−1, i.e. Values[end−w : end]. It panics when out of range.
func (s *Series) Window(end, w int) []float64 {
	if end-w < 0 || end > len(s.Values) {
		panic(fmt.Sprintf("timeseries: window end=%d w=%d len=%d", end, w, len(s.Values)))
	}
	return s.Values[end-w : end]
}

// Around returns up to w bins before index t (exclusive) and w bins from
// t (inclusive) — the pre/post windows the DiD estimator compares.
// Both slices share the underlying array. It panics if either side is
// incomplete.
func (s *Series) Around(t, w int) (pre, post []float64) {
	if t-w < 0 || t+w > len(s.Values) {
		panic(fmt.Sprintf("timeseries: around t=%d w=%d len=%d", t, w, len(s.Values)))
	}
	return s.Values[t-w : t], s.Values[t : t+w]
}

// SamePeriodDaysAgo returns the w-bin pre window and w-bin post window
// around the same time of day as bin t, but d whole days earlier. This
// is how §3.2.5 builds the seasonal control group out of historical
// measurements. ok is false when the historical window is out of range.
func (s *Series) SamePeriodDaysAgo(t, w, d int) (pre, post []float64, ok bool) {
	shift := d * int(24*time.Hour/s.Step)
	h := t - shift
	if h-w < 0 || h+w > len(s.Values) {
		return nil, nil, false
	}
	return s.Values[h-w : h], s.Values[h : h+w], true
}

// FillGaps replaces NaN bins in place by linear interpolation between
// the nearest valid neighbours, extending flat at the edges. A series
// with no valid samples is zero-filled. It returns the receiver.
func (s *Series) FillGaps() *Series {
	v := s.Values
	n := len(v)
	// Find first valid sample.
	first := -1
	for i, x := range v {
		if !math.IsNaN(x) {
			first = i
			break
		}
	}
	if first == -1 {
		for i := range v {
			v[i] = 0
		}
		return s
	}
	for i := 0; i < first; i++ {
		v[i] = v[first]
	}
	last := first
	for i := first + 1; i < n; i++ {
		if math.IsNaN(v[i]) {
			continue
		}
		if i > last+1 {
			// Interpolate the gap (last, i).
			span := float64(i - last)
			for k := last + 1; k < i; k++ {
				frac := float64(k-last) / span
				v[k] = v[last]*(1-frac) + v[i]*frac
			}
		}
		last = i
	}
	for i := last + 1; i < n; i++ {
		v[i] = v[last]
	}
	return s
}

// HasGaps reports whether the series contains NaN bins.
func (s *Series) HasGaps() bool {
	for _, x := range s.Values {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// Align truncates a set of series to their common time span on a shared
// step, returning aligned clones. It returns an error if the steps
// differ, the series are not bin-aligned with each other, or the common
// span is empty.
func Align(series ...*Series) ([]*Series, error) {
	if len(series) == 0 {
		return nil, nil
	}
	step := series[0].Step
	start := series[0].Start
	end := series[0].End()
	for _, s := range series[1:] {
		if s.Step != step {
			return nil, fmt.Errorf("timeseries: step mismatch %v vs %v", s.Step, step)
		}
		if s.Start.Sub(start)%step != 0 {
			return nil, fmt.Errorf("timeseries: series not bin-aligned")
		}
		if s.Start.After(start) {
			start = s.Start
		}
		if s.End().Before(end) {
			end = s.End()
		}
	}
	if !end.After(start) {
		return nil, fmt.Errorf("timeseries: empty common span")
	}
	n := int(end.Sub(start) / step)
	out := make([]*Series, len(series))
	for i, s := range series {
		off := int(start.Sub(s.Start) / step)
		v := make([]float64, n)
		copy(v, s.Values[off:off+n])
		out[i] = New(start, step, v)
	}
	return out, nil
}

// Average returns the pointwise mean of the given series, which must be
// pre-aligned (same start, step and length). The control-group KPI in
// the DiD comparison is the average over all cservers/cinstances
// (§3.2.4). NaN samples are skipped; a bin where every series is NaN
// yields NaN.
func Average(series []*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("timeseries: no series to average")
	}
	n := series[0].Len()
	for _, s := range series[1:] {
		if s.Len() != n || s.Step != series[0].Step || !s.Start.Equal(series[0].Start) {
			return nil, fmt.Errorf("timeseries: average requires aligned series")
		}
	}
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		var cnt int
		for _, s := range series {
			x := s.Values[i]
			if math.IsNaN(x) {
				continue
			}
			sum += x
			cnt++
		}
		if cnt == 0 {
			v[i] = math.NaN()
		} else {
			v[i] = sum / float64(cnt)
		}
	}
	return New(series[0].Start, series[0].Step, v), nil
}
