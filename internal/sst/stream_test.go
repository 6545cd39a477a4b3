package sst

import (
	"math"
	"testing"
)

// bitCompare asserts got equals want bit for bit (NaNs included).
func bitCompare(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score[%d] = %x, want %x (%v vs %v)",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// The streaming guarantee the assess-on-ingest path rests on: scoring
// positions one at a time as their bins "arrive" (growing prefixes of
// x) produces bit-identical output to the one-shot batch sweep, for
// every scorer configuration.
func TestStreamSweepMatchesBatchBitExact(t *testing.T) {
	x := mixedSeries(300, 71)
	for name, cfg := range configMatrix() {
		sl := NewSliding(NewIKA(cfg))
		want := ScoreSeries(sl, x)

		rcfg := sl.Config()
		hi := len(x) - rcfg.FutureSpan() + 1
		sw := sl.NewStream()
		sw.Reset(0)
		got := nanSeries(len(x))
		// Feed the series one bin at a time; score every position the
		// newly arrived bin completes, against only the prefix seen so
		// far — exactly what the streaming assessor does.
		for n := 1; n <= len(x); n++ {
			for sw.Pos() < hi && sw.Pos()+rcfg.FutureSpan() <= n {
				got[sw.Pos()] = sw.Next(x[:n])
			}
		}
		bitCompare(t, name, got, want)
	}
}

// Reset must fully clear the carried state: a reused StreamSweep's
// second sweep over a different series matches that series' batch
// sweep bit for bit.
func TestStreamSweepResetReuse(t *testing.T) {
	sl := NewSliding(NewIKA(Config{Normalize: true, RobustFilter: true}))
	rcfg := sl.Config()
	sw := sl.NewStream()
	for _, seed := range []int64{81, 82} {
		x := mixedSeries(220, seed)
		want := ScoreSeries(sl, x)
		sw.Reset(0)
		got := nanSeries(len(x))
		for sw.Pos() < len(x)-rcfg.FutureSpan()+1 {
			got[sw.Pos()] = sw.Next(x)
		}
		bitCompare(t, "reuse", got, want)
	}
}

// A non-IKA inner scorer has no incremental path; the stream must fall
// back to per-window evaluation, trivially exact against the batch
// fallback.
func TestStreamSweepFallbackExact(t *testing.T) {
	cfg := Config{Normalize: true, RobustFilter: true}
	sl := NewSliding(NewRobust(cfg))
	x := mixedSeries(140, 83)
	want := ScoreSeries(sl, x)
	rcfg := sl.Config()
	sw := sl.NewStream()
	sw.Reset(0)
	got := nanSeries(len(x))
	for sw.Pos() < len(x)-rcfg.FutureSpan()+1 {
		got[sw.Pos()] = sw.Next(x)
	}
	bitCompare(t, "fallback", got, want)
}

// Resuming mid-series must honor the lo clamp: a sweep started at an
// interior lo matches ScoreRangeInto over the same range.
func TestStreamSweepInteriorLo(t *testing.T) {
	sl := NewSliding(NewIKA(Config{Normalize: true, RobustFilter: true}))
	x := mixedSeries(260, 84)
	rcfg := sl.Config()
	lo := rcfg.PastSpan() + 37
	hi := len(x) - rcfg.FutureSpan() + 1
	want := nanSeries(len(x))
	sl.ScoreRangeInto(want, x, lo, hi)
	sw := sl.NewStream()
	sw.Reset(lo)
	got := nanSeries(len(x))
	for sw.Pos() < hi {
		got[sw.Pos()] = sw.Next(x)
	}
	bitCompare(t, "interior-lo", got, want)
}
