package funnel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sst"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// Streamer is the deployed form of FUNNEL (§5): it accepts software-
// change registrations as the operations team deploys them and emits an
// assessment report for each change as soon as everything the
// assessment reads after the change has arrived in the store
// (footprint.readyBin) — the paper's "1 h is enough for software change
// assessment" horizon plus the scorer's lookahead, or the DiD
// post-period where that reaches further. Instead of re-sweeping the
// detection segment at that moment, it subscribes to the store's coalescing bin
// feed and advances a per-KPI sliding scorer as each bin lands. By the
// time the last required bin arrives, every score position is already
// computed, so materializing the verdict costs only the DiD
// determination — the SST sweep, the dominant term in bin-to-verdict
// latency, has been amortized to O(ω) work per bin. Reading is per bin
// too: the feed hands over, with each dirty key, the lowest bin written
// since the last drain, and a score state that has consumed the window
// up to some bin reads only the bins from there on when that low-water
// is at or past it (advance).
//
// Correctness contract: streaming reports are byte-identical to the
// batch path. The streamer never trusts its own incremental state —
// at assessment time the cached scores are used only when the window
// the batch path fetched matches the streamed prefix bit-for-bit
// (see cachedScores); any divergence (late write, prune, re-encode)
// silently degrades to the batch sweep. Failure can cost
// latency, never a wrong verdict.
//
// One background goroutine (scoreLoop) advances the owed score states,
// leaving the other cores to ingest, registration and verdicts; the
// assessment loop advances its own change's states inline.
type Streamer struct {
	assessor *Assessor
	store    *monitor.Store
	feed     *monitor.BinFeed
	col      *obs.Collector // nil when unobserved
	scfg     StreamConfig

	// filter is the immutable tracked-key snapshot the feed consults on
	// the ingest hot path (lock-free; nil rejects everything).
	filter atomic.Pointer[map[topo.KPIKey]struct{}]

	mu      sync.Mutex
	pending []*streamChange
	tracked map[topo.KPIKey][]*kpiStream
	seen    map[string]bool
	closed  bool

	nTracked atomic.Int64
	nPending atomic.Int64

	// owed holds the score states waiting for scoreLoop, each at most
	// once (kpiStream.enq), in the order they were owed; wake has one
	// slot and tells scoreLoop the list is non-empty.
	owedMu sync.Mutex
	owed   []*kpiStream
	wake   chan struct{}

	assessQ chan assessTask
	out     chan *Report
	quit    chan struct{}
	wg      sync.WaitGroup
}

// StreamConfig tunes the streaming machinery around the assessor
// proper, never its verdicts. Zero fields take the documented defaults.
type StreamConfig struct {
	// PollInterval is the fallback bookkeeping cadence: readiness and
	// staleness are re-checked at least this often even if the feed
	// goes quiet (default 500ms).
	PollInterval time.Duration
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	return c
}

// streamChange tracks one registered change until its verdict is
// final.
type streamChange struct {
	change changelog.Change
	probe  topo.KPIKey
	states []*kpiStream
	// forced records that the stale-probe path already emitted its one
	// provisional (Inconclusive-bearing) report; the change then stays
	// pending so a recovered feed still yields the real verdict, but a
	// permanently-severed one never re-emits.
	forced bool
}

// assessTask is one queued assessment; final retires the change's
// score states afterwards.
type assessTask struct {
	sc    *streamChange
	final bool
}

// kpiStream is the incremental score state for one (change, KPI) pair:
// the change's detection segment (footprint.segment) [absLo,
// absLo+segLen) in store-absolute bins, the raw prefix streamed so far,
// its gap-filled image, and the score positions completed by the
// resumable sweep.
type kpiStream struct {
	key      topo.KPIKey
	changeAt time.Time
	fp       *footprint // the assessor's

	mu       sync.Mutex
	absLo    int
	segLen   int
	raw      []float64 // verified streamed prefix of the window
	filled   []float64 // FillGaps image of raw[:lastReal+1]
	scores   []float64 // len segLen; NaN until scored
	scratch  []float64 // RangeInto reuse buffer
	lastReal int       // index of last non-NaN raw bin, -1 when none
	invalid  bool      // the change precedes the store epoch

	// sweep scores the window's positions in order, resumably; its Pos
	// is the next score position (segment frame).
	sweep *sst.StreamSweep

	// low is the lowest store-absolute bin the feed reported written to
	// key since the last advance took it: lowNone when nothing is
	// pending, lowAll when the drain could not say (overflow).
	// drainLoop lowers it, advance swaps it out.
	low atomic.Int64

	enq atomic.Bool // already on the owed list
}

const (
	lowNone = math.MaxInt64 // no write reported: only new bins to read
	lowAll  = -1            // below any bin: re-read and verify the window
)

// noteLow lowers the pending low-water to bin if it is above it.
func (ks *kpiStream) noteLow(bin int64) {
	for {
		cur := ks.low.Load()
		if bin >= cur || ks.low.CompareAndSwap(cur, bin) {
			return
		}
	}
}

// NewStreamer builds the streaming assessor on store and starts its
// feed drain, scorer, and assessment loop. Close releases
// them. The assessor configuration cfg is exactly the batch one;
// scfg tunes only the streaming machinery, never the verdicts.
func NewStreamer(store *monitor.Store, tp *topo.Topology, cfg Config, scfg StreamConfig) (*Streamer, error) {
	return newStreamer(store, tp, cfg, scfg, 0)
}

// newStreamer is NewStreamer over a feed whose dirty set holds at most
// feedKeys keys (0 = the store default); tests lower it to overflow the
// feed.
func newStreamer(store *monitor.Store, tp *topo.Topology, cfg Config, scfg StreamConfig, feedKeys int) (*Streamer, error) {
	assessor, err := NewAssessor(store, tp, cfg)
	if err != nil {
		return nil, err
	}
	scfg = scfg.withDefaults()
	sr := &Streamer{
		assessor: assessor,
		store:    store,
		col:      cfg.Obs,
		scfg:     scfg,
		tracked:  make(map[topo.KPIKey][]*kpiStream),
		seen:     make(map[string]bool),
		wake:     make(chan struct{}, 1),
		assessQ:  make(chan assessTask, 64),
		out:      make(chan *Report, 16),
		quit:     make(chan struct{}),
	}
	assessor.scores = sr
	sr.feed = store.NewBinFeed(sr.feedFilter, feedKeys)
	if sr.col != nil {
		sr.col.SetGaugeFunc(obs.GaugeStreamQueue, sr.owedLen)
		sr.col.SetGaugeFunc(obs.GaugeStreamTracked, sr.nTracked.Load)
		sr.col.SetGaugeFunc(obs.GaugeStreamPending, sr.nPending.Load)
	}
	sr.wg.Add(3)
	go sr.drainLoop()
	go sr.assessLoop()
	go sr.scoreLoop()
	return sr, nil
}

// feedFilter is consulted on the store's append path (lock-free): only
// keys with live score states mark the feed dirty, so an idle streamer
// costs ingest one pointer load and a map miss.
func (sr *Streamer) feedFilter(k topo.KPIKey) bool {
	m := sr.filter.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[k]
	return ok
}

// rebuildFilterLocked publishes a fresh tracked-key snapshot; caller
// holds sr.mu, so snapshots are published in the order tracked changed.
// The caller then pushes the new answers down into the store's cached
// per-series flags with refilter, after releasing sr.mu.
func (sr *Streamer) rebuildFilterLocked() {
	if len(sr.tracked) == 0 {
		sr.filter.Store(nil)
	} else {
		m := make(map[topo.KPIKey]struct{}, len(sr.tracked))
		for k := range sr.tracked {
			m[k] = struct{}{}
		}
		sr.filter.Store(&m)
	}
}

// refilter re-evaluates the feed flags of one change's KPIs — the only
// keys whose answer a registration or retirement can move — against
// the filter snapshot current at that moment. It runs outside sr.mu:
// each flag is set under its shard lock from the snapshot loaded there,
// so whichever of two racing calls writes a shared key last wrote the
// newer answer. The catch-up enqueue after registration covers any
// append that landed before the flag flipped.
func (sr *Streamer) refilter(sc *streamChange) {
	keys := make([]topo.KPIKey, len(sc.states))
	for i, ks := range sc.states {
		keys[i] = ks.key
	}
	sr.feed.Refilter(keys)
}

// Reports delivers finished assessments. The channel closes after
// Close.
func (sr *Streamer) Reports() <-chan *Report { return sr.out }

// Config returns the resolved assessor configuration.
func (sr *Streamer) Config() Config { return sr.assessor.Config() }

// Pending returns the number of changes awaiting their verdict.
func (sr *Streamer) Pending() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return len(sr.pending)
}

// RegisterChange records a deployed software change for streaming
// assessment. Impact-set identification runs immediately to fail fast
// on bad registrations: the service must be known, the change must
// treat at least one server whose KPIs the configuration names, and
// the change ID must be fresh —
// a duplicate would double-assess and double-report the same rollout.
func (sr *Streamer) RegisterChange(c changelog.Change) error {
	set, err := sr.assessor.topo.IdentifyImpactSet(c.Service, c.Servers)
	if err != nil {
		return err
	}
	if len(set.TServers) == 0 {
		return fmt.Errorf("funnel: change %q treats no server of %q", c.ID, c.Service)
	}
	// The probe is one treated KPI whose series length signals that the
	// observation window has arrived.
	cfg := sr.assessor.cfg
	probe := topo.KPIKey{Scope: topo.ScopeServer, Entity: set.TServers[0]}
	switch {
	case len(cfg.ServerMetrics) > 0:
		probe.Metric = cfg.ServerMetrics[0]
	case len(cfg.InstanceMetrics) > 0:
		probe = topo.KPIKey{Scope: topo.ScopeInstance, Entity: set.TInstances[0], Metric: cfg.InstanceMetrics[0]}
	}
	sc := &streamChange{change: c, probe: probe}
	for _, k := range set.TreatedKPIs(cfg.ServerMetrics, cfg.InstanceMetrics) {
		if k.Scope == topo.ScopeService {
			continue // aggregates are computed at assess time, not stored
		}
		sc.states = append(sc.states, sr.newKPIStream(k, c.At))
	}
	if len(sc.states) == 0 {
		return errNoKPIs(c.ID) // nothing would ever make it ready
	}
	sr.mu.Lock()
	if sr.closed {
		sr.mu.Unlock()
		return fmt.Errorf("funnel: streamer closed")
	}
	if sr.seen[c.ID] {
		sr.mu.Unlock()
		return fmt.Errorf("funnel: change %q already registered", c.ID)
	}
	sr.seen[c.ID] = true
	sr.pending = append(sr.pending, sc)
	for _, ks := range sc.states {
		sr.tracked[ks.key] = append(sr.tracked[ks.key], ks)
	}
	sr.rebuildFilterLocked()
	sr.nPending.Store(int64(len(sr.pending)))
	sr.nTracked.Add(int64(len(sc.states)))
	sr.mu.Unlock()
	sr.refilter(sc)
	// Catch up with bins that landed before registration.
	sr.enqueue(sc.states)
	return nil
}

// newKPIStream builds the score state for one treated KPI: a resumable
// sweep of the assessor's own scorer, so the streamed positions replay
// the batch sweep's operation sequence.
func (sr *Streamer) newKPIStream(key topo.KPIKey, changeAt time.Time) *kpiStream {
	ks := &kpiStream{
		key:      key,
		changeAt: changeAt,
		fp:       &sr.assessor.fp,
		lastReal: -1,
		sweep:    sr.assessor.scorer.NewStream(),
	}
	ks.low.Store(lowNone)
	// The window's geometry, in store bins, which never renumber.
	changeBin := int(changeAt.Sub(sr.store.Start()) / sr.store.Step())
	if changeBin < 0 {
		// The change precedes the store epoch; the batch path owns this
		// case (it reports the error per KPI).
		ks.invalid = true
		return ks
	}
	lo, hi := ks.fp.segment(changeBin)
	ks.absLo, ks.segLen = lo, hi-lo
	ks.resetLocked()
	return ks
}

// resetLocked discards the streamed prefix and score progress, keeping
// the geometry; caller holds ks.mu.
func (ks *kpiStream) resetLocked() {
	ks.raw = ks.raw[:0]
	ks.filled = ks.filled[:0]
	ks.lastReal = -1
	if cap(ks.scores) < ks.segLen {
		ks.scores = make([]float64, ks.segLen)
	}
	ks.scores = ks.scores[:ks.segLen]
	for i := range ks.scores {
		ks.scores[i] = math.NaN()
	}
	ks.sweep.Reset(0)
}

// advance brings the state up to date with the store and scores every
// position whose SST window is now complete. It takes the low-water
// the feed reported for the key since the previous advance. At or past
// the consumed prefix — the steady state, one new bin — only the bins
// [absLo+len(raw), absLo+segLen) are read and appended. Inside the
// prefix (a late write, a gap fill, an overwrite), unknown (feed
// overflow) or with nothing consumed yet, the whole window is
// re-read and the consumed prefix verified bit-for-bit, a mismatch
// restarting the state to re-amortize. Either way the FillGaps
// transform is replayed over the arrived bins. All incremental state
// is derived, never authoritative: cached compares the whole segment
// against what the batch path fetched before any score is served, so a
// write this state never heard of costs a batch sweep, not a verdict.
func (ks *kpiStream) advance(sr *Streamer) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	low := ks.low.Swap(lowNone)
	if ks.invalid {
		return
	}
	start, step := sr.store.Start(), sr.store.Step()
	lo := ks.absLo
	tail := len(ks.raw) > 0 && low >= int64(ks.absLo+len(ks.raw))
	if tail {
		if len(ks.raw) == ks.segLen {
			return // window complete, nothing left to read
		}
		lo += len(ks.raw)
	}
	from := start.Add(time.Duration(lo) * step)
	to := start.Add(time.Duration(ks.absLo+ks.segLen) * step)
	vals, wstart, ok := sr.store.RangeInto(ks.key, from, to, ks.scratch[:0])
	if cap(vals) > cap(ks.scratch) {
		ks.scratch = vals
	}
	if !ok {
		return // no bin of the range stored yet
	}
	if !wstart.Equal(from) {
		// A prune dropped the window's first bins: this state can never
		// complete, and the batch path owns the window.
		return
	}
	if n := ks.absLo + ks.segLen - lo; len(vals) > n {
		vals = vals[:n]
	}
	if tail {
		ks.raw = append(ks.raw, vals...)
		sr.col.Add(obs.CtrStreamTailReads, 1)
	} else {
		if len(vals) < len(ks.raw) {
			// The stored span shrank below the consumed prefix: resync.
			sr.col.Add(obs.CtrStreamInvalidations, 1)
			ks.resetLocked()
		}
		same := true
		for i := range ks.raw {
			if math.Float64bits(vals[i]) != math.Float64bits(ks.raw[i]) {
				same = false
				break
			}
		}
		if !same {
			sr.col.Add(obs.CtrStreamInvalidations, 1)
			ks.resetLocked()
		}
		ks.raw = append(ks.raw[:0], vals...)
		sr.col.Add(obs.CtrStreamFullReads, 1)
	}
	// The verified prefix is unchanged, so only bins past the previous
	// lastReal can move it (a reset put it back to -1).
	prev := ks.lastReal
	for i := len(ks.raw) - 1; i > prev; i-- {
		if !math.IsNaN(ks.raw[i]) {
			ks.lastReal = i
			break
		}
	}
	if ks.lastReal == prev {
		return // no new real bin: nothing new is stable
	}
	ks.refillLocked(prev)
	// Score every position whose full SST window fits inside the real
	// prefix. Bins past lastReal are gaps-so-far: FillGaps would
	// extrapolate them today and replace them when data arrives, so
	// scores touching them are not yet stable and must wait.
	stable := ks.lastReal + 1
	hi := ks.segLen - ks.fp.fut + 1
	x := ks.filled[:stable]
	// A step may also revise earlier positions of ks.scores (the run
	// rule solving a cluster it held back); once the last position is
	// scored, End makes a still-short cluster's bounds final.
	t0 := sr.col.Now()
	n, solved, bounded := 0, ks.sweep.Solved(), ks.sweep.Bounded()
	for t := ks.sweep.Pos(); t < hi && t+ks.fp.fut <= stable; t = ks.sweep.Pos() {
		ks.sweep.NextInto(ks.scores, x)
		n++
	}
	if n == 0 {
		return
	}
	if ks.sweep.Pos() == hi {
		ks.sweep.End()
	}
	if sr.col != nil {
		sr.col.Add(obs.CtrStreamAdvances, 1)
		sr.col.ObserveSinceN(obs.StageSSTWindow, t0, n)
		sr.col.Add(obs.CtrWindowsSolved, int64(ks.sweep.Solved()-solved))
		sr.col.Add(obs.CtrWindowsBounded, int64(ks.sweep.Bounded()-bounded))
	}
}

// refillLocked extends filled from the image of raw[:prev+1] it holds
// (prev = -1: nothing) to raw[:lastReal+1], as timeseries.FillGaps
// would over that prefix. timeseries.FillThrough is prefix-stable, so
// growing the series append-only never changes already-filled positions
// — which is what the resumable sweep requires of its input, and why the
// bins up to the previous lastReal need no second pass.
func (ks *kpiStream) refillLocked(prev int) {
	ks.filled = append(ks.filled[:prev+1], ks.raw[prev+1:ks.lastReal+1]...)
	timeseries.FillThrough(ks.filled, prev)
}

// cached returns a copy of the completed score series when it provably
// matches what the batch path is about to sweep, nil otherwise.
func (ks *kpiStream) cached(absLo int, segment []float64) []float64 {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if ks.invalid || absLo != ks.absLo || len(segment) != ks.segLen {
		return nil
	}
	if ks.sweep.Pos() < ks.segLen-ks.fp.fut+1 || ks.lastReal+1 < ks.segLen {
		return nil // sweep not complete over the full window
	}
	// The batch path scores its gap-filled segment; ours must agree
	// bit-for-bit or the cache abstains. This covers the fill edge too:
	// the batch series may reach before the segment (a near depth wider
	// than the segment, or the full series a gap run across the fetch
	// edge falls back to) and interpolate a leading gap of the segment
	// from a real bin there, which this state, reading from the
	// segment's first bin, extends flat instead; the images differ.
	for i, v := range segment {
		if math.Float64bits(v) != math.Float64bits(ks.filled[i]) {
			return nil
		}
	}
	out := make([]float64, ks.segLen)
	copy(out, ks.scores)
	return out
}

// cachedScores implements scoreCache for the assessor: it serves the
// completed sweep for a (key, window) the streamer tracks. The
// returned slice is a private copy (GapMask mutates it downstream).
func (sr *Streamer) cachedScores(key topo.KPIKey, absLo int, segment []float64) []float64 {
	sr.mu.Lock()
	states := sr.tracked[key]
	var ks *kpiStream
	for _, c := range states {
		c.mu.Lock()
		match := !c.invalid && c.absLo == absLo && c.segLen == len(segment)
		c.mu.Unlock()
		if match {
			ks = c
			break
		}
	}
	sr.mu.Unlock()
	if ks == nil {
		return nil
	}
	return ks.cached(absLo, segment)
}

// enqueue puts on the owed list every state of states not already on
// it and wakes the scorer. The list holds each state at most once, so
// it is bounded by the tracked states and nothing is ever shed; the
// ingest path never waits on the scorer.
func (sr *Streamer) enqueue(states []*kpiStream) {
	sr.owedMu.Lock()
	for _, ks := range states {
		if !ks.enq.Swap(true) {
			sr.owed = append(sr.owed, ks)
		}
	}
	sr.owedMu.Unlock()
	select {
	case sr.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// owedLen is the owed list's length, the stream.queue_depth gauge.
func (sr *Streamer) owedLen() int64 {
	sr.owedMu.Lock()
	defer sr.owedMu.Unlock()
	return int64(len(sr.owed))
}

// scoreLoop is the one background scorer: it takes the whole owed list
// at each wake-up and advances its states in the order they were owed.
// A state's enq clears just before its advance, so a bin that lands
// during the advance owes it again rather than being missed.
func (sr *Streamer) scoreLoop() {
	defer sr.wg.Done()
	var batch []*kpiStream
	for {
		select {
		case <-sr.quit:
			return
		case <-sr.wake:
		}
		sr.owedMu.Lock()
		batch, sr.owed = sr.owed, batch[:0]
		sr.owedMu.Unlock()
		for i, ks := range batch {
			ks.enq.Store(false)
			ks.advance(sr)
			batch[i] = nil // drop the reference until the next swap
		}
	}
}

// drainLoop turns feed wakeups into advance work and runs the
// readiness bookkeeping.
func (sr *Streamer) drainLoop() {
	defer sr.wg.Done()
	ticker := time.NewTicker(sr.scfg.PollInterval)
	defer ticker.Stop()
	var (
		keyBuf []topo.KPIKey
		lowBuf []int
		advBuf []*kpiStream
	)
	for {
		poll := false
		select {
		case <-sr.quit:
			return
		case <-sr.feed.C():
		case <-ticker.C:
			poll = true
		}
		keys, lows, overflow := sr.feed.DrainBins(keyBuf[:0], lowBuf[:0])
		keyBuf, lowBuf = keys, lows
		toAdvance := advBuf[:0]
		sr.mu.Lock()
		if overflow {
			for _, states := range sr.tracked {
				for _, ks := range states {
					ks.noteLow(lowAll)
				}
				toAdvance = append(toAdvance, states...)
			}
		} else {
			for i, k := range keys {
				states := sr.tracked[k]
				for _, ks := range states {
					ks.noteLow(int64(lows[i]))
				}
				toAdvance = append(toAdvance, states...)
			}
		}
		sr.mu.Unlock()
		sr.enqueue(toAdvance)
		clear(toAdvance) // drop the references until the next wake-up
		advBuf = toAdvance
		sr.checkReady(poll)
	}
}

// checkReady queues an assessment for every pending change whose probe
// series reached the ready bin, and — on poll ticks only — applies the
// stale-probe escape hatch: when the rest of the store has moved
// StaleBins past the ready bin but the probe feed stalled, one
// provisional report is emitted (the gap gate inside turns the severed
// KPIs into explicit Inconclusive verdicts). The change then stays
// pending without re-emitting, so a recovered feed still produces the
// real verdict and a permanently-severed one produces exactly one.
func (sr *Streamer) checkReady(poll bool) {
	start, step := sr.store.Start(), sr.store.Step()
	fp, staleBins := &sr.assessor.fp, sr.assessor.cfg.StaleBins
	var tasks []assessTask
	var stats monitor.Stats
	statsLoaded := false
	sr.mu.Lock()
	still := sr.pending[:0]
	for _, sc := range sr.pending {
		readyBin := fp.readyBin(int(sc.change.At.Sub(start) / step))
		if n, ok := sr.store.SeriesLen(sc.probe); ok && n > readyBin {
			tasks = append(tasks, assessTask{sc: sc, final: true})
			continue
		}
		if poll && !sc.forced {
			if !statsLoaded {
				stats, statsLoaded = sr.store.Stats(), true
			}
			if stats.LastBin >= readyBin+staleBins {
				sc.forced = true
				tasks = append(tasks, assessTask{sc: sc, final: false})
			}
		}
		still = append(still, sc)
	}
	sr.pending = still
	sr.nPending.Store(int64(len(still)))
	closed := sr.closed
	sr.mu.Unlock()
	if closed {
		return
	}
	for _, t := range tasks {
		select {
		case sr.assessQ <- t:
		case <-sr.quit:
			return
		}
	}
}

// assessLoop materializes verdicts. Before assessing it flushes every
// score state of the change inline, so the cache is as complete as the
// store allows without waiting for the background scorer to reach it.
func (sr *Streamer) assessLoop() {
	defer sr.wg.Done()
	for {
		select {
		case <-sr.quit:
			return
		case t := <-sr.assessQ:
			for _, ks := range t.sc.states {
				ks.advance(sr)
			}
			rep, err := sr.assessor.Assess(t.sc.change)
			if err == nil {
				select {
				case sr.out <- rep:
				case <-sr.quit:
					return
				}
			}
			if t.final {
				sr.retire(t.sc)
			}
		}
	}
}

// retire drops a finished change's score states from the tracked map
// and republishes the feed filter.
func (sr *Streamer) retire(sc *streamChange) {
	sr.mu.Lock()
	for _, ks := range sc.states {
		states := sr.tracked[ks.key]
		for i, c := range states {
			if c == ks {
				states = append(states[:i], states[i+1:]...)
				break
			}
		}
		if len(states) == 0 {
			delete(sr.tracked, ks.key)
		} else {
			sr.tracked[ks.key] = states
		}
	}
	sr.nTracked.Add(int64(-len(sc.states)))
	sr.rebuildFilterLocked()
	sr.mu.Unlock()
	sr.refilter(sc)
}

// Close unregisters the feed, stops the loops, and closes the report
// stream. Pending changes are dropped.
func (sr *Streamer) Close() {
	sr.mu.Lock()
	if sr.closed {
		sr.mu.Unlock()
		return
	}
	sr.closed = true
	sr.mu.Unlock()
	close(sr.quit)
	sr.feed.Close()
	sr.wg.Wait()
	if sr.col != nil {
		sr.col.DeleteVar(obs.GaugeStreamQueue)
		sr.col.DeleteVar(obs.GaugeStreamTracked)
		sr.col.DeleteVar(obs.GaugeStreamPending)
	}
	close(sr.out)
}
