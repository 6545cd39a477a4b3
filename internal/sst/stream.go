package sst

// StreamSweep is a resumable incremental sweep over one growing series:
// the always-on streaming assessor scores each window position as soon
// as the bins it needs have arrived, instead of re-running the whole
// sweep when a change's observation window completes.
//
// A StreamSweep owns its sliding state permanently (it is not pooled),
// so positions scored across many Next calls replay exactly the
// operation sequence — Gram initialization at the first position, O(ω)
// slides after, the recenter cadence, the sorted Eq. 11 spans — of one
// uninterrupted ScoreRangeInto(out, x, lo, hi) call over the same
// positions. That makes the streamed scores bit-identical to the batch
// sweep, which is what lets the streaming assessment path reuse them
// verbatim (TestStreamSweepMatchesBatch pins this).
//
// The caller contract mirrors the batch sweep's data dependency: the
// prefix of x already consumed must be append-only between calls — Next
// at position t reads x[t−PastSpan, t+FutureSpan) and the maintained
// Gram products summarize earlier bins, so mutating a consumed bin
// silently desynchronizes the state. Streaming callers detect mutation
// (late writes, prune) upstream and Reset.
//
// A StreamSweep is not safe for concurrent use; guard it with the
// owning stream state's lock.
type StreamSweep struct {
	s    *SlidingScorer
	st   slidingState
	lo   int // first sweep position (after the PastSpan clamp)
	next int // next position Next will score
}

// NewStream returns a resumable sweep drawing its configuration from s.
// Floor is read through s: it must not change between Reset and the
// sweep's last Next.
func (s *SlidingScorer) NewStream() *StreamSweep {
	return &StreamSweep{s: s}
}

// Reset starts a fresh sweep whose first scored position is
// max(lo, PastSpan) — the same clamp ScoreRangeInto applies.
func (sw *StreamSweep) Reset(lo int) {
	if min := sw.s.inner.Config().PastSpan(); lo < min {
		lo = min
	}
	sw.lo = lo
	sw.next = lo
	if sw.s.ika != nil {
		sw.s.stepReset(&sw.st)
	}
}

// Pos returns the next position Next will score.
func (sw *StreamSweep) Pos() int { return sw.next }

// Bounded returns how many positions since Reset the scorer's Floor
// bound answered without a past solve.
func (sw *StreamSweep) Bounded() int { return sw.st.bounded }

// Next scores the sweep's next position against x and advances. x is
// the series prefix seen so far: it must extend through at least
// Pos()+FutureSpan bins and contain the same values the previous calls
// saw (append-only). The caller is responsible for only calling Next
// when the window fits — there is no internal clamp, matching the
// panic behavior of the batch path on a short series.
func (sw *StreamSweep) Next(x []float64) float64 {
	t := sw.next
	sw.next++
	if sw.s.ika == nil {
		// No incremental path for the wrapped scorer: per-window
		// evaluation, exactly like the batch fallback in ScoreRangeInto.
		return sw.s.inner.ScoreAt(x, t)
	}
	// The Gram trackers pin the series slice they were initialized on;
	// re-point them at the current (longer, possibly reallocated) prefix
	// so slides past the old length stay in bounds. The consumed prefix
	// is unchanged by contract, so maintained products are unaffected.
	sw.st.pastG.SetSeries(x)
	sw.st.futG.SetSeries(x)
	return sw.s.step(&sw.st, x, t, sw.lo)
}
