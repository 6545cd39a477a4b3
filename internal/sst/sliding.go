package sst

import (
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
// unchanged. sst.ScoreSeries, sst.ScoreSeriesParallel and the detect
// pipeline recognize the RangeScorer interface and route sweeps through
// the fast path. Only *IKA has an incremental implementation — for any
// other scorer the sweep falls back to per-window ScoreAt (trivially
// identical scores); for IKA the sweep agrees with the per-window path
// to well within 1e-9 (the operators are algebraically equal; only
// rounding order differs).
//
// A SlidingScorer is safe for concurrent use: each concurrent sweep
// draws its own state from an internal pool.
type SlidingScorer struct {
	// WarmStart starts each position's future Lanczos solve from the
	// previous position's dominant Ritz vector instead of the row-sum
	// vector, and drops that solve's Krylov dimension from k = 2η−1 to
	// η+1: the start vector already spans most of the dominant subspace,
	// so fewer iterations resolve the η directions. (The φ solves keep
	// the full dimension — their start vector β is nearly orthogonal to
	// the past subspace exactly when a change is present.) Scores then
	// agree with the per-window path to detector precision (~1e-2 on
	// [0,1] scores) rather than 1e-9. funnel.NewAssessor always sets it;
	// it is a field so tests can leave it off and hold the sweep to the
	// 1e-9 reference. Set before first use; not safe to flip
	// concurrently with scoring.
	WarmStart bool
	// Floor, when positive and the wrapped IKA has RobustFilter on, lets
	// the sweep answer a position from the Eq. 11 multiplier alone: the
	// solved score is x̂·mult with x̂ ∈ [0, 1], so where mult < Floor the
	// sweep returns mult — an upper bound that is itself under Floor —
	// without the past solves. Every position whose score reaches Floor is
	// solved and bit-identical to the Floor-0 sweep, which is all a gate
	// thresholding at Floor reads; funnel.NewAssessor sets it to that
	// threshold. 0 (the default) solves everything: calibration, ROC
	// sweeps and the arena need exact sub-threshold scores. Set before
	// first use, like WarmStart.
	Floor float64

	inner Scorer
	ika   *IKA // non-nil when inner is *IKA: enables the incremental path
	pool  sync.Pool
}

// slidingState is the per-sweep mutable state: the incremental Gram
// trackers, their dense readouts, the IKA workspace and the warm-start
// carry. Pooled so concurrent sweeps never share state.
type slidingState struct {
	ws         workspace
	pastG      linalg.SlidingHankelGram
	futG       linalg.SlidingHankelGram
	gp, gf     linalg.Matrix
	win        []float64 // normalized window for the Eq. 11 filter
	warm       []float64 // previous position's top Ritz vector
	warmOK     bool
	untilRecen int // positions until the next normalized-path recenter
	bounded    int // positions since stepReset answered by the Floor bound
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
	n := s.ika.cfg.Omega
	st.ws.start = grow(st.ws.start, n)
	st.warm = grow(st.warm, n)
	st.warmOK = false
	st.bounded = 0
}

// step scores position t of x, advancing the incremental Gram trackers
// and the warm-start carry in st. lo is the sweep's first position: at
// t == lo the trackers initialize, at every later t they slide by one —
// so a caller feeding consecutive positions t = lo, lo+1, ... replays
// exactly the operation sequence of one scoreRange(st, out, x, lo, hi)
// call, bit for bit. This shared body is what keeps the resumable
// StreamSweep byte-identical to the batch sweep.
//
// The Eq. 11 multiplier is evaluated first: the solved score is
// x̂·mult with x̂ ∈ [0, 1], so a multiplier under Floor already decides
// the position and the past-side work (the Gram readout and the η
// discordance solves) is skipped. Both trackers still slide and recenter,
// and with WarmStart the future solve still runs, so the carry — and with
// it every later solved position — is what it would have been.
func (s *SlidingScorer) step(st *slidingState, x []float64, t, lo int) float64 {
	cfg := s.ika.cfg
	n := cfg.Omega
	ws := &st.ws
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

	wlo := t - cfg.PastSpan()
	whi := t + cfg.FutureSpan()
	med, mad, inv := 0.0, 0.0, 1.0
	if cfg.Normalize {
		past := x[wlo:t]
		ws.scratch = grow(ws.scratch, whi-wlo)
		med, mad = stats.MedianMADInto(past, ws.scratch)
		inv = 1 / normScale(past, med, mad)
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

	mult := 1.0
	if cfg.RobustFilter {
		mult = s.sectionMultiplier(st, x[wlo:whi], t-wlo, med, mad, inv)
	}
	// A NaN multiplier compares false and is solved.
	bounded := cfg.RobustFilter && mult < s.Floor
	if bounded {
		st.bounded++
		if !s.WarmStart {
			return mult
		}
	}

	st.futG.GramInto(&st.gf, med, inv)
	k := cfg.K
	if s.WarmStart && st.warmOK {
		copy(ws.start, st.warm)
		k = cfg.Eta + 1
	} else {
		st.futG.RowSumsInto(ws.start, med, inv)
	}
	var score float64
	var eta int
	if bounded {
		score, eta = mult, s.ika.futureDirections(ws, &st.gf, k)
	} else {
		st.pastG.GramInto(&st.gp, med, inv)
		score, eta = s.ika.scoreWindow(ws, &st.gp, &st.gf, k)
		if cfg.RobustFilter {
			score *= mult
		}
	}
	if s.WarmStart {
		if eta > 0 {
			copy(st.warm, ws.betas[:n])
		}
		st.warmOK = eta > 0
	}
	return score
}

// sectionMultiplier evaluates the Eq. 11 filter at index tl of the raw
// window w, normalizing it into st.win first when the scorer normalizes.
// med, mad and inv are the past span's statistics step already holds.
//
// With δ = ω the filter's before-section is exactly the normalized past
// span, whose statistics follow from the ones in hand without a third
// sort: v ↦ (v−med)·inv is monotone and the span's length 2ω−1 is odd, so
// its median is the image of med, ±0, and its MAD is the image of mad.
// Non-finite spans keep the sorting path (the sort's NaN order is not
// monotone-invariant).
func (s *SlidingScorer) sectionMultiplier(st *slidingState, w []float64, tl int, med, mad, inv float64) float64 {
	cfg := s.ika.cfg
	if !cfg.Normalize {
		return robustMultiplierWS(&st.ws, w, tl, cfg.Omega)
	}
	st.win = grow(st.win, len(w))
	for i, v := range w {
		st.win[i] = (v - med) * inv
	}
	w = st.win
	before, after, ok := robustSections(w, tl, cfg.Omega)
	if !ok || tl != 2*cfg.Omega-1 || !allFinite(before) {
		return robustMultiplierWS(&st.ws, w, tl, cfg.Omega)
	}
	medB, madB := stats.MedianMADInto(after, st.ws.scratch)
	return sectionContrast(0, mad*inv, medB, madB)
}

// allFinite reports whether xs holds no NaN or ±Inf.
func allFinite(xs []float64) bool {
	for _, v := range xs {
		if v-v != 0 {
			return false
		}
	}
	return true
}
