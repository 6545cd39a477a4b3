package funnel

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/timeseries"
	"repro/internal/topo"
)

// WindowSource is the optional windowed face of a SeriesSource
// (monitor.Store implements it). When the assessor's source provides
// it, Assess fetches only the windows an assessment actually reads —
// the detection window around the change for every KPI, the
// seasonal-DiD lookback only for a detected KPI with no concurrent
// control — via RangeInto, into pooled buffers, instead of copying every
// KPI's full retained history. Verdicts and reports are byte-identical
// to the flat path: all fetches at one depth share the same window
// bounds (so cross-series index arithmetic still lines up), report-facing
// bin indices are translated back to full-series positions, and any
// window the fetch cannot reproduce exactly falls back to the full
// series. Offline sources (workload.MapSource, replay
// corpora) simply do not implement it and keep the flat path.
type WindowSource interface {
	SeriesSource
	// Start returns the source's epoch (bin 0 of every full series).
	Start() time.Time
	// Step returns the bin width.
	Step() time.Duration
	// RangeInto decodes the key's bins covering [from, to), clamped to
	// the stored span, into dst (reusing its capacity). It returns the
	// window values, the window's start time, and whether the clamped
	// window is non-empty.
	RangeInto(key topo.KPIKey, from, to time.Time, dst []float64) ([]float64, time.Time, bool)
}

// fetchSlack pads the computed fetch horizon so bin-rounding at the
// window edges can never make a windowed read shorter than what the
// deepest reader indexes.
const fetchSlack = 16

// winFetcher serves one Assess call's series reads from windowed
// RangeInto fetches at two depths, each with a per-assessment cache: a
// key decodes at most once per depth, into buffers recycled across
// assessments via the assessor-level pool.
//
// near reaches back over what every KPI reads — gap gating, the
// detection window, the concurrent-control DiD periods with their
// similarity and parallel-trends checks. deep reaches back HistoryDays
// further and is touched only by the historical-control arm of a
// detected KPI (determine). Both end at the same bin. A KPI with no
// detection, or with a concurrent control, never decodes its history.
type winFetcher struct {
	src  WindowSource
	base time.Time // store epoch at fetch-bound time: a flat Series would start here
	step time.Duration
	pool *sync.Pool

	near, deep fetchDepth

	mu sync.Mutex
	// bufs collects every pooled buffer handed out at either depth,
	// returned to the pool when the assessment's reports are built
	// (nothing in a Report aliases fetched values).
	bufs [][]float64
}

// fetchDepth is one of a winFetcher's two windows: the SeriesSource the
// assessment code reads at that depth.
type fetchDepth struct {
	f        *winFetcher
	from, to time.Time
	m        sync.Map     // topo.KPIKey → *fetchEntry
	fetches  atomic.Int64 // series decoded at this depth
}

// fetchEntry memoizes one key's fetch; once guards the single decode
// even when workers race on a shared control KPI.
type fetchEntry struct {
	once sync.Once
	s    *timeseries.Series
	ok   bool
}

// newWinFetcher builds the per-assessment fetcher for a change at this
// time. Forwards, both depths cover the detection window plus the DiD
// post period. Backwards, near covers the detection window with the
// scorer's past span and the two pre-change DiD periods the placebo
// test reads; deep adds the seasonal-DiD lookback (HistoryDays of
// same-clock-time windows).
func newWinFetcher(src WindowSource, at time.Time, cfg *Config, pool *sync.Pool) *winFetcher {
	step := src.Step()
	binsPerDay := 0
	if step <= 24*time.Hour {
		binsPerDay = int(24 * time.Hour / step)
	}
	nearBack := 2*cfg.DiDWindow + cfg.WindowBins + cfg.SST.PastSpan() + fetchSlack
	deepBack := cfg.HistoryDays*binsPerDay + nearBack
	needFwd := cfg.WindowBins + cfg.SST.FutureSpan()
	if cfg.DiDWindow > needFwd {
		needFwd = cfg.DiDWindow
	}
	needFwd += fetchSlack
	f := &winFetcher{src: src, base: src.Start(), step: step, pool: pool}
	to := at.Add(time.Duration(needFwd) * step)
	f.near = fetchDepth{f: f, from: at.Add(-time.Duration(nearBack) * step), to: to}
	f.deep = fetchDepth{f: f, from: at.Add(-time.Duration(deepBack) * step), to: to}
	return f
}

// Series returns the key's window at this depth, memoized per
// assessment.
func (d *fetchDepth) Series(key topo.KPIKey) (*timeseries.Series, bool) {
	e, _ := d.m.LoadOrStore(key, &fetchEntry{})
	ent := e.(*fetchEntry)
	ent.once.Do(func() { ent.s, ent.ok = d.fetch(key) })
	return ent.s, ent.ok
}

// fetch performs the windowed read, falling back to the full series
// whenever the window alone could not reproduce the flat path exactly.
func (d *fetchDepth) fetch(key topo.KPIKey) (*timeseries.Series, bool) {
	f := d.f
	d.fetches.Add(1)
	var buf []float64
	if p, _ := f.pool.Get().(*[]float64); p != nil {
		buf = (*p)[:0]
	}
	vals, start, ok := f.src.RangeInto(key, d.from, d.to, buf)
	f.keep(vals)
	if !ok {
		// Unknown key, or a series that ends before the window starts;
		// the flat path would still return the short series, so fall
		// back to it (a missing key stays missing).
		return f.src.Series(key)
	}
	if n := len(vals); n > 0 && (math.IsNaN(vals[0]) || math.IsNaN(vals[n-1])) {
		// A gap run crosses the fetch boundary: gap interpolation would
		// anchor on bins outside the window and diverge from the flat
		// path, so this series pays the full copy instead.
		return f.src.Series(key)
	}
	return timeseries.New(start, f.step, vals), true
}

// keep records a handed-out buffer for release.
func (f *winFetcher) keep(b []float64) {
	if cap(b) == 0 {
		return
	}
	f.mu.Lock()
	f.bufs = append(f.bufs, b)
	f.mu.Unlock()
}

// offsetOf translates a fetched series' bin indices back to positions
// in the key's full series (what reports and detections carry): the
// number of bins between the store epoch and the fetched window start.
// A nil fetcher (flat path) or a fallback full series translates by 0.
func (f *winFetcher) offsetOf(s *timeseries.Series) int {
	if f == nil {
		return 0
	}
	return int(s.Start.Sub(f.base) / f.step)
}

// release returns every fetched buffer to the pool; the caller
// guarantees no live Report references them.
func (f *winFetcher) release() {
	if f == nil {
		return
	}
	f.mu.Lock()
	bufs := f.bufs
	f.bufs = nil
	f.mu.Unlock()
	for i := range bufs {
		b := bufs[i]
		f.pool.Put(&b)
	}
}
