package funnel

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/timeseries"
	"repro/internal/topo"
)

// footprint is what assessing a change reads of a KPI, in bins relative
// to the change bin, resolved once per Assessor from the Config and the
// source's step. It is the one place WindowBins, DiDWindow and the SST
// spans combine into a reach; the fetch depths, the gap gate, the
// detection segment (which the Streamer scores) and the ready bin read
// it. No reach carries slack: one bin short moves reports.
type footprint struct {
	past, fut int // one score position's SST reach: [t−past, t+fut)
	gate      int // the gap gate's half-width, WindowBins
	// nearBack and fwd are the furthest any reader reaches back and
	// forward at lag 0: the detection segment, or the DiD periods with
	// the placebo's extra pre-period. deepBack is the historical arm's:
	// those periods at every daily lag up to HistoryDays.
	nearBack, deepBack, fwd int
}

// newFootprint resolves the footprint of cfg (with defaults applied)
// over a source of bin width step.
func newFootprint(cfg *Config, step time.Duration) footprint {
	binsPerDay := 0
	if step <= 24*time.Hour {
		binsPerDay = int(24 * time.Hour / step)
	}
	past, fut := cfg.SST.PastSpan(), cfg.SST.FutureSpan()
	didBack := cfg.DiDWindow
	if cfg.VerifyParallelTrends {
		didBack *= 2
	}
	return footprint{
		past:     past,
		fut:      fut,
		gate:     cfg.WindowBins,
		nearBack: max(cfg.WindowBins+past, didBack),
		deepBack: cfg.HistoryDays*binsPerDay + didBack,
		fwd:      max(cfg.WindowBins+fut, cfg.DiDWindow),
	}
}

// segment is the detection segment [lo, hi) of a change at changeBin,
// clamped at the series start.
func (fp *footprint) segment(changeBin int) (lo, hi int) {
	return DetectionSegment(changeBin, fp.gate, fp.past, fp.fut)
}

// DetectionSegment is the bins [lo, hi) a detector scores to judge a
// change at changeBin: ±windowBins around it, widened by the scorer's
// reach — pastSpan bins before a score position and futureSpan from it
// on (sst.Config's PastSpan and FutureSpan) — and clamped at the series
// start. FUNNEL and the baseline methods read the same segment.
func DetectionSegment(changeBin, windowBins, pastSpan, futureSpan int) (lo, hi int) {
	return max(changeBin-windowBins-pastSpan, 0), changeBin + windowBins + futureSpan
}

// gateWindow is the gap gate's window [lo, hi) around changeBin:
// ±WindowBins, clamped at the series start.
func (fp *footprint) gateWindow(changeBin int) (lo, hi int) {
	return max(changeBin-fp.gate, 0), changeBin + fp.gate
}

// readyBin is the first bin past everything an assessment of a change
// at changeBin reads: once a series holds it, the series is complete.
func (fp *footprint) readyBin(changeBin int) int { return changeBin + fp.fwd }

// winFetcher serves one Assess call's series reads from windowed
// RangeInto fetches at two depths, each with a per-assessment cache: a
// key decodes at most once per depth, into buffers recycled across
// assessments via the assessor-level pool. Reports are exactly what the
// keys' full series would give: all fetches at one depth share the same
// bounds (so cross-series index arithmetic lines up), bin indices are
// translated back to full-series positions, and any window the fetch
// cannot reproduce exactly falls back to the full series.
//
// The depths are the footprint's. near covers what every KPI reads —
// gap gating, the detection segment, the concurrent-control DiD periods
// with their similarity and parallel-trends checks. deep also covers
// the same-clock windows of up to HistoryDays earlier days and is
// touched only by the historical-control arm of a detected KPI
// (determine). Both end at the same bin. A KPI with no detection, or
// with a concurrent control, never decodes its history.
type winFetcher struct {
	src  SeriesSource
	base time.Time // source epoch at fetch-bound time: a full Series starts here
	step time.Duration
	pool *sync.Pool

	near, deep fetchDepth

	mu sync.Mutex
	// bufs collects every pooled buffer handed out at either depth,
	// returned to the pool when the assessment's reports are built
	// (nothing in a Report aliases fetched values).
	bufs [][]float64
}

// fetchDepth is one of a winFetcher's two windows: where the assessment
// reads series at that depth, and the group averages already built over
// them. Every treated server KPI of a metric shares its control group, so
// in both the serial and the fanned-out path only the first KPI to ask
// pays the align-and-average; the rest (and any concurrent askers, via
// the per-entry once) share the result. Entries are read-only after
// creation — every downstream consumer clones before mutating.
type fetchDepth struct {
	f        *winFetcher
	from, to time.Time
	m        sync.Map     // topo.KPIKey → *fetchEntry
	avgs     sync.Map     // joined key string → *avgEntry
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
// time: both depths end fp.fwd bins after the change, near starts
// fp.nearBack bins before it and deep fp.deepBack bins.
func newWinFetcher(src SeriesSource, at time.Time, fp *footprint, pool *sync.Pool) *winFetcher {
	step := src.Step()
	f := &winFetcher{src: src, base: src.Start(), step: step, pool: pool}
	to := at.Add(time.Duration(fp.fwd) * step)
	f.near = fetchDepth{f: f, from: at.Add(-time.Duration(fp.nearBack) * step), to: to}
	f.deep = fetchDepth{f: f, from: at.Add(-time.Duration(fp.deepBack) * step), to: to}
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
// whenever the window alone could not reproduce its answer exactly.
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
		// the full read still returns the short series, so fall back to
		// it (a missing key stays missing).
		return f.src.Series(key)
	}
	if n := len(vals); n > 0 && (math.IsNaN(vals[0]) || math.IsNaN(vals[n-1])) {
		// A gap run crosses the fetch boundary: gap interpolation would
		// anchor on bins outside the window and diverge from the full
		// series, so this series pays the full copy instead.
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
// number of bins between the source epoch and the fetched window start.
// A fallback full series translates by 0.
func (f *winFetcher) offsetOf(s *timeseries.Series) int {
	return int(s.Start.Sub(f.base) / f.step)
}

// release returns every fetched buffer to the pool; the caller
// guarantees no live Report references them.
func (f *winFetcher) release() {
	f.mu.Lock()
	bufs := f.bufs
	f.bufs = nil
	f.mu.Unlock()
	for i := range bufs {
		b := bufs[i]
		f.pool.Put(&b)
	}
}
