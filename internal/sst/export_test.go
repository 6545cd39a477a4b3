package sst

// Hooks for the external package sst_test, whose run-rule tests also
// import internal/detect (which imports this package).

// BoundShapes is boundShapes.
var BoundShapes = boundShapes

// RunRuleSweep is a batch sweep of s over x that also returns how many
// of its bounded positions the run rule answered.
func RunRuleSweep(s *SlidingScorer, x []float64) (scores []float64, solved, bounded, ruled int) {
	cfg := s.Config()
	scores = nanSeries(len(x))
	lo, hi := cfg.PastSpan(), len(x)-cfg.FutureSpan()+1
	if hi <= lo {
		return scores, 0, 0, 0
	}
	st := &slidingState{}
	s.scoreRange(st, scores, x, lo, hi)
	return scores, st.solved, st.bounded, st.ruled
}

// Multipliers returns the Eq. 11 multiplier of every scored position of
// x (NaN elsewhere), from the sorting reference sortingStats.
func Multipliers(cfg Config, x []float64) []float64 {
	cfg = NewIKA(cfg).Config()
	out := nanSeries(len(x))
	for t := cfg.PastSpan(); t+cfg.FutureSpan() <= len(x); t++ {
		_, _, out[t] = sortingStats(cfg, x, t)
	}
	return out
}

// RaceEnabled is raceEnabled.
const RaceEnabled = raceEnabled
