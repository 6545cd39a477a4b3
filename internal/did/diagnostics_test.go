package did

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

func mkSeries(n int, f func(i int) float64) *timeseries.Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	return timeseries.New(time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC), time.Minute, v)
}

func TestParallelTrendsHoldsForParallelGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	// Both groups share a common upward drift: the DiD cancels it.
	treated := mkSeries(300, func(i int) float64 { return 10 + 0.02*float64(i) + 0.2*rng.NormFloat64() })
	control := mkSeries(300, func(i int) float64 { return 50 + 0.02*float64(i) + 0.2*rng.NormFloat64() })
	chk, err := ParallelTrendsAt(treated, control, 250, 250, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Parallel {
		t.Fatalf("parallel groups flagged as drifting: placebo α = %v", chk.Placebo.Alpha)
	}
}

func TestParallelTrendsDetectsDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	// The treated group drifts relative to control before the change.
	treated := mkSeries(300, func(i int) float64 { return 10 + 0.1*float64(i) + 0.2*rng.NormFloat64() })
	control := mkSeries(300, func(i int) float64 { return 50 + 0.2*rng.NormFloat64() })
	chk, err := ParallelTrendsAt(treated, control, 250, 250, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if chk.Parallel {
		t.Fatalf("diverging groups passed the placebo: α = %v", chk.Placebo.Alpha)
	}
	if chk.Placebo.Alpha <= 0 {
		t.Fatalf("placebo α = %v, want positive for an upward treated drift", chk.Placebo.Alpha)
	}
}

func TestParallelTrendsShortHistory(t *testing.T) {
	s := mkSeries(100, func(i int) float64 { return 1 })
	if _, err := ParallelTrendsAt(s, s, 50, 50, 60, 0.5); err != ErrShortPrePeriod {
		t.Fatalf("err = %v", err)
	}
}

func TestPlaceboSeasonal(t *testing.T) {
	// A clean daily cycle passes the seasonal placebo.
	n := 5 * 1440
	s := mkSeries(n, func(i int) float64 {
		return 100 + 40*math.Sin(2*math.Pi*float64(i%1440)/1440)
	})
	tIdx := 4*1440 + 600
	chk, err := PlaceboSeasonal(s, tIdx, 30, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Parallel {
		t.Fatalf("clean seasonal series failed its placebo: α = %v", chk.Placebo.Alpha)
	}
	// A pre-existing drift (baseline contamination in the last half
	// hour before the change — inside the placebo's "post" period but
	// before the real change) fails it.
	drifted := s.Clone()
	for i := tIdx - 30; i < n; i++ {
		drifted.Values[i] += 30
	}
	chk2, err := PlaceboSeasonal(drifted, tIdx, 30, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if chk2.Parallel {
		t.Fatalf("contaminated baseline passed the placebo: α = %v", chk2.Placebo.Alpha)
	}
	if _, err := PlaceboSeasonal(s, 10, 30, 3, 0.5); err != ErrShortPrePeriod {
		t.Fatalf("short history err = %v", err)
	}
}
