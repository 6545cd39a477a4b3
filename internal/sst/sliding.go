package sst

import (
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// recenterEvery is the number of window positions between Gram recenters
// (and thus rebuilds) on the normalized sliding path. It matches the
// linalg default rebuild cadence: often enough that neither
// floating-point drift nor a drifting normalization median can cost the
// sweep its 1e-9 agreement with the per-window path, rare enough that
// the O(ω²δ) rebuild amortizes to noise.
const recenterEvery = 64

// RangeScorer is a Scorer with an incremental fast path over contiguous
// window positions. ScoreRangeInto fills out[t] for every t in [lo, hi)
// whose analysis window fits in x, leaving other entries of out
// untouched; out and x share indexing.
type RangeScorer interface {
	Scorer
	ScoreRangeInto(out, x []float64, lo, hi int)
}

// SlidingScorer wraps a Scorer with an incremental whole-series sweep.
// Consecutive window positions share all but one lag product of their
// Hankel Gram matrices, so instead of rebuilding both operators from
// scratch at every position (the O(ω²) redundancy ScoreAt cannot avoid),
// the sweep maintains them with O(ω) retire/add updates and hands the
// IKA core dense, incrementally maintained Gram matrices.
//
// ScoreAt on single positions delegates to the wrapped scorer
// unchanged. sst.ScoreSeries and the detect pipeline recognize the
// RangeScorer interface and route sweeps through the fast path. Only
// *IKA has an incremental implementation — for any other scorer the
// sweep falls back to per-window ScoreAt (trivially identical scores);
// for IKA the sweep agrees with the per-window path to well within
// 1e-9 (the operators are algebraically equal; only rounding order
// differs).
//
// A SlidingScorer is safe for concurrent use: each concurrent sweep
// draws its own state from an internal pool.
type SlidingScorer struct {
	// WarmStart is ignored: every window is scored cold, from the row-sum
	// vector at the full Krylov dimension.
	//
	// Deprecated: has no effect; remove with benchmark/layers.go:761,
	// ROADMAP 2a.
	WarmStart bool
	// Floor, when positive and the wrapped IKA has RobustFilter on, lets
	// the sweep answer a position from the Eq. 11 multiplier alone: the
	// solved score is x̂·mult with x̂ ∈ [0, 1], so where mult < Floor the
	// sweep returns mult — an upper bound that is itself under Floor —
	// without any eigen-solve. Every position whose score reaches Floor is
	// solved and bit-identical to the Floor-0 sweep, which is all a gate
	// thresholding at Floor reads; funnel.NewAssessor sets it to that
	// threshold. 0 (the default) solves everything: calibration, ROC
	// sweeps and the arena need exact sub-threshold scores. Set before
	// first use; not safe to change concurrently with scoring.
	Floor float64

	inner Scorer
	ika   *IKA // non-nil when inner is *IKA: enables the incremental path
	pool  sync.Pool
}

// slidingState is the per-sweep mutable state: the incremental Gram
// trackers, their dense readouts, the IKA workspace and the sorted Eq. 11
// spans. Pooled so concurrent sweeps never share state.
type slidingState struct {
	ws     workspace
	pastG  linalg.SlidingHankelGram
	futG   linalg.SlidingHankelGram
	gp, gf linalg.Matrix
	win    []float64 // normalized window for the sorting Eq. 11 filter
	// pastSpan and aftSpan are the 2ω−1 raw values before and from the
	// previous position in the order a stable ascending sort leaves them,
	// valid while spansOK; syncSpans slides them.
	pastSpan, aftSpan []float64
	spansOK           bool
	untilRecen        int // positions until the next normalized-path recenter
	bounded           int // positions since stepReset answered by the Floor bound
}

// NewSliding wraps inner with the incremental sweep fast path.
func NewSliding(inner Scorer) *SlidingScorer {
	s := &SlidingScorer{inner: inner}
	s.ika, _ = inner.(*IKA)
	s.pool.New = func() any { return &slidingState{} }
	return s
}

// Config returns the wrapped scorer's resolved configuration.
func (s *SlidingScorer) Config() Config { return s.inner.Config() }

// Name delegates to the wrapped scorer's registry name when it has one,
// so a sliding wrapper is transparent to the detector arena.
func (s *SlidingScorer) Name() string {
	if n, ok := s.inner.(interface{ Name() string }); ok {
		return n.Name()
	}
	return "sliding"
}

// ScoreAt scores a single position by delegating to the wrapped scorer.
func (s *SlidingScorer) ScoreAt(x []float64, t int) float64 {
	return s.inner.ScoreAt(x, t)
}

// ScoreRangeInto scores every position in [lo, hi) whose analysis window
// fits, writing out[t] and leaving other entries untouched.
func (s *SlidingScorer) ScoreRangeInto(out, x []float64, lo, hi int) {
	s.sweepInto(out, x, lo, hi)
}

// Sweep is ScoreSeries over this scorer that also reports how the
// positions were answered: solved by the eigen-solves, or bounded by
// Floor (always 0 at Floor 0 and for a non-IKA inner scorer).
func (s *SlidingScorer) Sweep(x []float64) (scores []float64, solved, bounded int) {
	cfg := s.inner.Config()
	scores = nanSeries(len(x))
	n, bounded := s.sweepInto(scores, x, cfg.PastSpan(), len(x)-cfg.FutureSpan()+1)
	return scores, n - bounded, bounded
}

// sweepInto is ScoreRangeInto returning the number of positions scored
// and how many of them the Floor bound answered.
func (s *SlidingScorer) sweepInto(out, x []float64, lo, hi int) (n, bounded int) {
	cfg := s.inner.Config()
	if min := cfg.PastSpan(); lo < min {
		lo = min
	}
	if max := len(x) - cfg.FutureSpan() + 1; hi > max {
		hi = max
	}
	if hi <= lo {
		return 0, 0
	}
	if s.ika == nil {
		// No incremental path for this scorer: per-window sweep.
		for t := lo; t < hi; t++ {
			out[t] = s.inner.ScoreAt(x, t)
		}
		return hi - lo, 0
	}
	st := s.pool.Get().(*slidingState)
	s.scoreRange(st, out, x, lo, hi)
	bounded = st.bounded
	s.pool.Put(st)
	return hi - lo, bounded
}

// scoreRange runs the incremental IKA sweep with all state drawn from st.
func (s *SlidingScorer) scoreRange(st *slidingState, out, x []float64, lo, hi int) {
	s.stepReset(st)
	for t := lo; t < hi; t++ {
		out[t] = s.step(st, x, t, lo)
	}
}

// stepReset prepares st for a fresh sweep whose first step position will
// pass t == lo. It is the (batch and streaming) sweep prologue; step
// performs one position.
func (s *SlidingScorer) stepReset(st *slidingState) {
	st.ws.start = grow(st.ws.start, s.ika.cfg.Omega)
	st.spansOK = false
	st.bounded = 0
}

// step scores position t of x, advancing the incremental Gram trackers
// and the sorted spans in st. lo is the sweep's first position: at t == lo
// the trackers initialize, at every later t they slide by one — so a
// caller feeding consecutive positions t = lo, lo+1, ... replays exactly
// the operation sequence of one scoreRange(st, out, x, lo, hi) call, bit
// for bit. This shared body is what keeps the resumable StreamSweep
// byte-identical to the batch sweep.
//
// The Eq. 11 multiplier is evaluated first: the solved score is
// x̂·mult with x̂ ∈ [0, 1], so a multiplier under Floor already decides
// the position, which then costs the two slides and Eq. 11 only. Every
// solved position is scored cold — row-sum start vector, full Krylov
// dimension — so it depends on its own window alone.
func (s *SlidingScorer) step(st *slidingState, x []float64, t, lo int) float64 {
	cfg := s.ika.cfg
	n := cfg.Omega
	if t == lo {
		cadence := 0 // linalg default: periodic drift-washing rebuilds
		if cfg.Normalize {
			cadence = -1 // recentring below is the only rebuild
		}
		st.pastG.RefreshEvery, st.futG.RefreshEvery = cadence, cadence
		st.pastG.Init(x, t, n, cfg.Delta)
		st.futG.Init(x, t+cfg.Rho+cfg.Gamma+n-1, n, cfg.Gamma)
		st.untilRecen = 0
	} else {
		st.pastG.Slide()
		st.futG.Slide()
	}

	med, inv, mult := s.windowStats(st, x, t)
	if cfg.Normalize {
		if st.untilRecen <= 0 {
			// Keep the maintained products centered at the current
			// level so the affine normalization identity stays at
			// full precision even on large-offset KPIs.
			st.pastG.Recenter(med)
			st.futG.Recenter(med)
			st.untilRecen = recenterEvery
		}
		st.untilRecen--
	}
	// A NaN multiplier compares false and is solved.
	if cfg.RobustFilter && mult < s.Floor {
		st.bounded++
		return mult
	}

	st.futG.GramInto(&st.gf, med, inv)
	st.futG.RowSumsInto(st.ws.start, med, inv)
	st.pastG.GramInto(&st.gp, med, inv)
	return s.ika.scoreWindow(&st.ws, &st.gp, &st.gf) * mult
}

// spanMax bounds the values the sorted spans admit: with every |v| under
// it the normalized images (v−med)·inv (inv ≤ 1e3) cannot overflow, so a
// span that syncSpans accepts needs no second finiteness test.
const spanMax = 1e300

// windowStats returns what position t needs before any eigen-solve: the
// past span's median and inverse scale (0 and 1 unless the scorer
// normalizes) and the Eq. 11 multiplier (1 with the filter off).
//
// With δ = ω the filter's before-section is exactly the normalized past
// span, whose statistics follow from the raw ones: v ↦ (v−med)·inv is
// monotone and the span's length 2ω−1 is odd, so its median is the image
// of med, ±0, and its MAD is the image of mad. The same map carries the
// sorted raw after-section onto its sorted normalized values, so on the
// deployed geometry neither section is sorted and the window is never
// normalized: both spans slide. A span holding a NaN, an Inf or a value
// past spanMax, δ ≠ ω, or an after-section the window clips keeps the
// sorting path (the sort's NaN order is not monotone-invariant).
func (s *SlidingScorer) windowStats(st *slidingState, x []float64, t int) (med, inv, mult float64) {
	cfg := s.ika.cfg
	tl, span := cfg.PastSpan(), 2*cfg.Omega-1
	w := x[t-tl : t+cfg.FutureSpan()]
	past := w[:tl]
	if !cfg.Normalize {
		if !cfg.RobustFilter {
			return 0, 1, 1
		}
		return 0, 1, robustMultiplierWS(&st.ws, w, tl, cfg.Omega)
	}
	if cfg.RobustFilter && tl == span && tl+span <= len(w) && st.syncSpans(x, t, span) {
		med, mad := sortedMedianMAD(st.pastSpan, 0, 1)
		inv = 1 / normScale(past, med, mad)
		medB, madB := sortedMedianMAD(st.aftSpan, med, inv)
		return med, inv, sectionContrast(0, mad*inv, medB, madB)
	}
	st.ws.scratch = grow(st.ws.scratch, len(w))
	med, mad := stats.MedianMADInto(past, st.ws.scratch)
	inv = 1 / normScale(past, med, mad)
	if !cfg.RobustFilter {
		return med, inv, 1
	}
	st.win = grow(st.win, len(w))
	for i, v := range w {
		st.win[i] = (v - med) * inv
	}
	return med, inv, robustMultiplierWS(&st.ws, st.win, tl, cfg.Omega)
}

// syncSpans brings the sorted spans to position t — x[t−span:t] and
// x[t:t+span] — by one retire/insert each when they hold position t−1,
// by two sorts otherwise, and reports whether they are usable: false while
// either span holds a value outside ±spanMax.
func (st *slidingState) syncSpans(x []float64, t, span int) bool {
	in := x[t+span-1]
	if st.spansOK = st.spansOK && math.Abs(in) <= spanMax; st.spansOK {
		slideSorted(st.pastSpan, x[t-1-span], x[t-1])
		slideSorted(st.aftSpan, x[t-1], in)
		return true
	}
	for _, v := range x[t-span : t+span] {
		if !(math.Abs(v) <= spanMax) {
			return false
		}
	}
	st.pastSpan = sortedInto(st.pastSpan, x[t-span:t])
	st.aftSpan = sortedInto(st.aftSpan, x[t:t+span])
	st.spansOK = true
	return true
}

// sortedInto returns src insertion-sorted into dst's backing array: equal
// values (±0 included) keep their order, as in stats.MedianMADInto's sort.
func sortedInto(dst, src []float64) []float64 {
	dst = grow(dst, len(src))
	for i, v := range src {
		j := i
		for ; j > 0 && dst[j-1] > v; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = v
	}
	return dst
}

// slideSorted replaces the oldest occurrence of old in the stably sorted s
// — the first of its equal run — with in, placed after its own equal run:
// the order sorting the slid span afresh would give.
func slideSorted(s []float64, old, in float64) {
	i := 0
	for s[i] < old {
		i++
	}
	for ; i+1 < len(s) && s[i+1] <= in; i++ {
		s[i] = s[i+1]
	}
	for ; i > 0 && s[i-1] > in; i-- {
		s[i] = s[i-1]
	}
	s[i] = in
}

// sortedMedianMAD returns the median and MAD of the values (v−shift)·scale
// over the ascending, odd-length, finite s with scale ≥ 0, bit for bit what
// stats.MedianMADInto returns on them: the map is monotone, so the median
// is the middle value's image and the deviations grow away from it on
// either side — the MAD is the (n/2)-th step of merging the two runs.
func sortedMedianMAD(s []float64, shift, scale float64) (median, mad float64) {
	mid := len(s) / 2
	median = (s[mid] - shift) * scale
	dev := func(i int) float64 {
		if i < 0 || i >= len(s) {
			return math.Inf(1)
		}
		return math.Abs((s[i]-shift)*scale - median)
	}
	// The median's own deviation, 0, is step 0 and mad's initial value.
	i, j := mid-1, mid+1
	below, above := dev(i), dev(j)
	for c := 0; c < mid; c++ {
		if below <= above {
			mad = below
			i--
			below = dev(i)
		} else {
			mad = above
			j++
			above = dev(j)
		}
	}
	return median, mad
}
