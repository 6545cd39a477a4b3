package sst

import (
	"math"
	"testing"
)

// perWindowSeries scores every position through ScoreAt — the reference
// the incremental sweep is held against.
func perWindowSeries(s Scorer, x []float64) []float64 {
	cfg := s.Config()
	out := nanSeries(len(x))
	for t := cfg.PastSpan(); t+cfg.FutureSpan() <= len(x); t++ {
		out[t] = s.ScoreAt(x, t)
	}
	return out
}

// compareSweep asserts got tracks want positionwise: NaN exactly where
// want is NaN, within tol elsewhere.
func compareSweep(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		switch {
		case math.IsNaN(want[i]):
			if !math.IsNaN(got[i]) {
				t.Fatalf("%s: score[%d] = %v, want NaN", name, i, got[i])
			}
		case math.Abs(got[i]-want[i]) > tol:
			t.Fatalf("%s: score[%d] = %v, per-window %v (|Δ| = %g > %g)",
				name, i, got[i], want[i], math.Abs(got[i]-want[i]), tol)
		}
	}
}

// The tentpole equivalence guarantee: the incremental sweep agrees with
// the per-window IKA path within 1e-9 across the full option matrix.
func TestSlidingIKAMatchesPerWindowAcrossMatrix(t *testing.T) {
	x := mixedSeries(300, 65)
	for name, cfg := range configMatrix() {
		ika := NewIKA(cfg)
		want := perWindowSeries(ika, x)
		got := ScoreSeries(NewSliding(ika), x)
		compareSweep(t, name, got, want, 1e-9)
	}
}

// A KPI level far above its spread is the numerically hostile case for
// the sliding path's affine normalization identity; recentring must keep
// the sweep within the same 1e-9 budget.
func TestSlidingIKALargeOffsetSeries(t *testing.T) {
	x := mixedSeries(300, 66)
	for i := range x {
		x[i] += 3.7e7
	}
	for _, cfg := range []Config{
		{Normalize: true, RobustFilter: true},
		{Normalize: true},
	} {
		ika := NewIKA(cfg)
		want := perWindowSeries(ika, x)
		got := ScoreSeries(NewSliding(ika), x)
		compareSweep(t, "large-offset", got, want, 1e-9)
	}
}

// Wrapping a scorer without an incremental path must fall back to
// per-window ScoreAt — trivially exact.
func TestSlidingFallbackExactForDensePaths(t *testing.T) {
	x := mixedSeries(160, 67)
	cfg := Config{Normalize: true, RobustFilter: true}
	for name, inner := range map[string]Scorer{
		"classic": NewClassic(cfg),
		"robust":  NewRobust(cfg),
	} {
		want := perWindowSeries(inner, x)
		got := ScoreSeries(NewSliding(inner), x)
		for i := range want {
			if !math.IsNaN(want[i]) && got[i] != want[i] {
				t.Fatalf("%s: score[%d] = %v, want exact %v", name, i, got[i], want[i])
			}
			if math.IsNaN(want[i]) != math.IsNaN(got[i]) {
				t.Fatalf("%s: NaN mask differs at %d", name, i)
			}
		}
	}
}

// A steady-state incremental sweep performs zero heap allocations beyond
// the output slice.
func TestSlidingSweepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	x := mixedSeries(400, 70)
	for name, cfg := range configMatrix() {
		sl := NewSliding(NewIKA(cfg))
		rcfg := sl.Config()
		lo := rcfg.PastSpan()
		hi := len(x) - rcfg.FutureSpan() + 1
		out := make([]float64, len(x))
		sl.ScoreRangeInto(out, x, lo, hi) // warm the pooled state
		allocs := testing.AllocsPerRun(10, func() {
			sl.ScoreRangeInto(out, x, lo, hi)
		})
		if allocs != 0 {
			t.Errorf("%s: allocs/sweep = %v, want 0", name, allocs)
		}
	}
}
