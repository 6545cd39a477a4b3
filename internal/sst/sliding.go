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
	cfg := s.inner.Config()
	if min := cfg.PastSpan(); lo < min {
		lo = min
	}
	if max := len(x) - cfg.FutureSpan() + 1; hi > max {
		hi = max
	}
	if hi <= lo {
		return
	}
	if s.ika == nil {
		// No incremental path for this scorer: per-window sweep.
		for t := lo; t < hi; t++ {
			out[t] = s.inner.ScoreAt(x, t)
		}
		return
	}
	st := s.pool.Get().(*slidingState)
	s.scoreRange(st, out, x, lo, hi)
	s.pool.Put(st)
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
}

// step scores position t of x, advancing the incremental Gram trackers
// and the warm-start carry in st. lo is the sweep's first position: at
// t == lo the trackers initialize, at every later t they slide by one —
// so a caller feeding consecutive positions t = lo, lo+1, ... replays
// exactly the operation sequence of one scoreRange(st, out, x, lo, hi)
// call, bit for bit. This shared body is what keeps the resumable
// StreamSweep byte-identical to the batch sweep.
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
	med, inv := 0.0, 1.0
	if cfg.Normalize {
		past := x[wlo:t]
		ws.scratch = grow(ws.scratch, whi-wlo)
		m, mad := stats.MedianMADInto(past, ws.scratch)
		med, inv = m, 1/normScale(past, m, mad)
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
	st.pastG.GramInto(&st.gp, med, inv)
	st.futG.GramInto(&st.gf, med, inv)

	k := cfg.K
	if s.WarmStart && st.warmOK {
		copy(ws.start, st.warm)
		k = cfg.Eta + 1
	} else {
		st.futG.RowSumsInto(ws.start, med, inv)
	}

	score, eta := s.ika.scoreWindow(ws, &st.gp, &st.gf, k)
	if s.WarmStart {
		if eta > 0 {
			copy(st.warm, ws.betas[:n])
			st.warmOK = true
		} else {
			st.warmOK = false
		}
	}
	if cfg.RobustFilter {
		w := x[wlo:whi]
		if cfg.Normalize {
			st.win = grow(st.win, whi-wlo)
			for i, v := range w {
				st.win[i] = (v - med) * inv
			}
			w = st.win[:whi-wlo]
		}
		score *= robustMultiplierWS(ws, w, t-wlo, n)
	}
	return score
}
