// Package obs is the telemetry layer of the FUNNEL reproduction: named
// counters, bounded-bucket latency histograms for every pipeline stage,
// and per-assessment traces, all built on the standard library only
// (expvar for the variable registry and JSON rendering, net/http/pprof
// for profiles, runtime/metrics for process health).
//
// The paper's headline claim is operational — 24,119 changes assessed
// per day over 2.26M KPIs within minutes (Table 3) — and a deployment
// earns trust only when each of those decisions can be inspected: which
// stage spent the time, what the detector score was at decision time,
// which control group DiD chose, and why the verdict came out the way
// it did. A Collector answers the aggregate questions via /metrics; a
// Trace answers the per-change questions via /traces/<change-id>.
//
// Every method is a nil-safe no-op on a nil *Collector, so library
// users who configure no telemetry pay only a nil check, and none of
// it is ever read back by the pipeline: what is computed, and by which
// algorithm, is the same with and without a collector.
package obs

import (
	"expvar"
	"io"
	"log/slog"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline stage names: one latency histogram per stage, published in
// the metrics JSON as "stage.<name>".
const (
	// StageImpactSet is §3.1's impact-set construction.
	StageImpactSet = "impact_set"
	// StageSSTWindow is one sliding-window SST score (the Table-2
	// unit). The sweep is timed as a whole: each batch sweep and each
	// streaming advance records its n windows at their mean cost, so
	// count is windows scored, sum is exact, and max and the buckets
	// read mean per-window cost. The mean is over every position of the
	// sweep, the ones the Eq. 11 bound answered (CtrWindowsBounded) and
	// the ones that were eigen-solved (CtrWindowsSolved) alike.
	StageSSTWindow = "sst_window"
	// StageSSTScore is the whole scoring pass over one KPI's
	// assessment window (all sliding windows of that KPI).
	StageSSTScore = "sst_score"
	// StagePersist is the persistence-rule gating pass (§4.1) that
	// turns pointwise scores into declared detections.
	StagePersist = "persist"
	// StageDiDControl is DiD control-group selection: concurrent
	// dark-launch averaging (§3.2.4) or historical window extraction
	// (§3.2.5).
	StageDiDControl = "did_control"
	// StageDiDEstimate is DiD normalization, estimation and the
	// attribution decision (Eqs. 15–16).
	StageDiDEstimate = "did_estimate"
	// StageRender is report rendering (text or JSON).
	StageRender = "render"
	// StageAssess is one whole change assessment end to end.
	StageAssess = "assess"
	// StageBinToVerdict is the end-to-end freshness of a verdict:
	// emission time minus the node-local arrival time of the assessed
	// KPI's most recent ingested bin (its ingest high-watermark). One
	// observation per assessed KPI whose source tracks arrivals, so the
	// histogram's p50/p90/p99 answer the paper's "within minutes" claim
	// (Table 3) for a live deployment.
	StageBinToVerdict = "bin_to_verdict"
)

// Counter names. Counters are expvar.Ints inside the collector's map;
// gauges are counters that are decremented again (e.g. active conns).
const (
	// CtrIngested counts measurements appended to the KPI store.
	CtrIngested = "monitor.ingested"
	// CtrPushes counts measurements delivered to subscribers.
	CtrPushes = "monitor.pushes"
	// CtrPushDrops counts measurements lost on slow subscribers
	// (drop-oldest evictions plus failed final sends).
	CtrPushDrops = "monitor.push_drops"
	// CtrConnsActive gauges currently-open ingest/subscribe/admin
	// network connections.
	CtrConnsActive = "monitor.conns_active"
	// CtrSubsActive gauges live store subscriptions.
	CtrSubsActive = "monitor.subs_active"
	// CtrRegistrations counts accepted change registrations.
	CtrRegistrations = "daemon.registrations"
	// CtrAdminErrors counts rejected admin requests.
	CtrAdminErrors = "daemon.admin_errors"
	// CtrChangesAssessed counts completed change assessments.
	CtrChangesAssessed = "assess.changes"
	// CtrKPIsAssessed counts per-KPI assessments across all changes.
	CtrKPIsAssessed = "assess.kpis"
	// CtrKPIsFlagged counts KPI changes attributed to software
	// changes.
	CtrKPIsFlagged = "assess.kpis_flagged"
	// CtrRunsDeclared counts score runs that satisfied the
	// persistence rule and became detections.
	CtrRunsDeclared = "detect.runs_declared"
	// CtrRunsDiscarded counts score runs the persistence rule
	// discarded as one-off events.
	CtrRunsDiscarded = "detect.runs_discarded"
	// CtrReconnects counts successful client/publisher redials after a
	// broken connection.
	CtrReconnects = "monitor.reconnects"
	// CtrReplayed counts measurements replayed from the store to a
	// resuming subscriber (resume-from-last-seen-bin).
	CtrReplayed = "monitor.replayed"
	// CtrDeadlineKicks counts connections a server closed because a
	// read or write deadline expired.
	CtrDeadlineKicks = "monitor.deadline_kicks"
	// CtrFrameRejects counts frames rejected for exceeding the
	// max-frame-size bound.
	CtrFrameRejects = "monitor.frame_rejects"
	// CtrConnPanics counts per-connection handler panics that were
	// recovered (the connection is dropped, the server survives).
	CtrConnPanics = "monitor.conn_panics"
	// CtrConnDrops counts connections a server dropped for protocol
	// violations or I/O errors (clean client disconnects excluded).
	CtrConnDrops = "monitor.conn_drops"
	// CtrInconclusive counts per-KPI assessments that came back
	// inconclusive because the feed was too gappy or stale.
	CtrInconclusive = "assess.kpis_inconclusive"
	// CtrBatchFrames counts batch (0x04) ingest frames decoded; each
	// frame carries many measurements (those land in CtrIngested).
	CtrBatchFrames = "monitor.batch_frames"
	// CtrIngestKeyResolves counts series lookups by the ingest
	// connections' key handle tables: one per key a connection sees for
	// the first time, and one per key it sees again after a prune
	// invalidated its handles. It tracks distinct keys, not
	// measurements; a rate near monitor.ingested means the tables are
	// thrashing (unique keys past their cap, or a prune storm).
	CtrIngestKeyResolves = "monitor.ingest_key_resolves"
	// CtrIngestKeyLookups counts measurements whose key handle the
	// tables found by a map lookup on the framed key bytes, not by
	// position: about none per bin from a publisher that keeps its key
	// order, one per measurement from one that shuffles it.
	CtrIngestKeyLookups = "monitor.ingest_key_lookups"
	// GaugeWALLogBytes is the record bytes in the live log generation,
	// GaugeWALRotations how many generations a compaction or a durability
	// re-arm has started (persistent stores only).
	GaugeWALLogBytes  = "monitor.wal_log_bytes"
	GaugeWALRotations = "monitor.wal_rotations"
	// CtrWALAppends counts measurements appended to the write-ahead log.
	CtrWALAppends = "monitor.wal_appends"
	// CtrWALReplayed counts WAL records replayed into the store during
	// crash recovery.
	CtrWALReplayed = "monitor.wal_replayed"
	// CtrRecoveryMillis is the wall time, in milliseconds, the store
	// spent in crash recovery before it could take its first bin
	// (snapshot read + log replay + attaching fresh logs).
	CtrRecoveryMillis = "monitor.recovery_ms"
	// CtrRecoveryGenerations is the number of log generations that
	// recovery found and replayed, and CtrRecoveryLogBytes the size of
	// their records. One generation is a clean restart or a single
	// crash; several mean the store kept dying before it compacted.
	CtrRecoveryGenerations = "monitor.recovery_generations"
	CtrRecoveryLogBytes    = "monitor.recovery_log_bytes"
	// CtrCompactions counts WAL compactions (snapshot dump + log
	// truncation).
	CtrCompactions = "monitor.compactions"
	// CtrWALSyncs counts explicit fsync passes over the log.
	CtrWALSyncs = "monitor.wal_syncs"
	// CtrDiskErrors counts disk I/O failures the persister observed
	// (transient and permanent alike; each degraded episode starts
	// with at least one).
	CtrDiskErrors = "monitor.disk_errors"
	// CtrWALRearms counts successful durability re-arms: after a
	// transient disk fault the persister rotated to fresh logs and
	// rewrote a full snapshot from memory.
	CtrWALRearms = "monitor.wal_rearms"
	// CtrPersistErrors counts persist-state transitions out of
	// healthy — the operator-facing "durability was lost" signal,
	// emitted at the first error of an episode rather than when
	// someone later calls Sync or Compact.
	CtrPersistErrors = "monitor.store_persist_errors"
	// CtrStreamAdvances counts per-KPI incremental score advances the
	// streaming assessor performed (each covers one or more newly
	// arrived bins).
	CtrStreamAdvances = "stream.advances"
	// CtrStreamCacheHits counts assessments that consumed a fully
	// pre-scored streaming window (the fast path: no batch sweep at
	// verdict time).
	CtrStreamCacheHits = "stream.cache_hits"
	// CtrStreamCacheMisses counts assessments that fell back to the
	// batch sweep (window incomplete, diverged, or never tracked).
	CtrStreamCacheMisses = "stream.cache_misses"
	// CtrStreamInvalidations counts streaming score states discarded
	// because their raw window diverged from the store (late write into
	// scored territory, prune rebase, quarantined re-read).
	CtrStreamInvalidations = "stream.invalidations"
	// CtrStreamTailReads counts advances that read only the bins past
	// the prefix the score state had consumed (the feed's low-water was
	// at or past it); CtrStreamFullReads counts the ones that re-read
	// and verified the whole window instead — a state's first read, a
	// write inside its prefix, a feed overflow, a prune rebase. A full
	// read is the streamer's fallback, so a rate of them is the answer
	// to "why is the stream slow". Added once per advance that read.
	CtrStreamTailReads = "stream.tail_reads"
	CtrStreamFullReads = "stream.full_reads"
	// GaugeStreamQueue is the streaming assessor's advance-queue depth;
	// GaugeStreamTracked the number of KPI score states it maintains;
	// GaugeStreamPending the changes still awaiting their ready bin.
	GaugeStreamQueue   = "stream.queue_depth"
	GaugeStreamTracked = "stream.tracked_keys"
	GaugeStreamPending = "stream.pending_changes"
	// CtrStreamSheds counts advance tasks dropped because the streaming
	// work queue was full (the fleet outran the scoring workers; the
	// state catches up at the next drain or at assess time).
	CtrStreamSheds = "stream.sheds"
	// CtrWindowsBounded counts SST window positions whose Eq. 11
	// multiplier was already under the detection threshold, so the score
	// was reported as that bound without the past eigen-solves;
	// CtrWindowsSolved counts the positions that were solved in full.
	// Their sum is StageSSTWindow's count. Added once per sweep or
	// streaming advance.
	CtrWindowsBounded = "sst.windows_bounded"
	CtrWindowsSolved  = "sst.windows_solved"
	// CtrHistoryFetches counts series decoded at the deep (HistoryDays)
	// fetch depth: one per series the historical-control arm of a
	// detected KPI read. Every other read stops at the near window
	// around the change.
	CtrHistoryFetches = "funnel.history_fetches"
)

// Collector aggregates counters, stage histograms and recent traces.
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, so instrumented code needs no configuration checks.
type Collector struct {
	vars   *expvar.Map // unpublished registry; renders the metrics JSON
	stages sync.Map    // stage name → *Histogram
	traces *TraceStore
	start  time.Time

	// logger is the base structured logger Logger derives component
	// loggers from (nil until SetLogger).
	logger atomic.Pointer[slog.Logger]
	// history is the self-scrape ring (nil until StartHistory).
	history atomic.Pointer[metricsHistory]
}

// DefaultTraceCapacity bounds the trace ring of a fresh collector; at
// the paper's 24,119 changes/day it holds the most recent ~15 minutes.
const DefaultTraceCapacity = 256

// NewCollector returns a ready collector with the process-health
// gauges installed and a trace ring of DefaultTraceCapacity.
func NewCollector() *Collector {
	c := &Collector{
		vars:   new(expvar.Map).Init(),
		traces: NewTraceStore(DefaultTraceCapacity),
		start:  time.Now(),
	}
	c.vars.Set("runtime.goroutines", expvar.Func(func() any { return runtime.NumGoroutine() }))
	c.vars.Set("runtime.heap_bytes", expvar.Func(func() any { return readMetric("/memory/classes/heap/objects:bytes") }))
	c.vars.Set("runtime.gc_cycles", expvar.Func(func() any { return readMetric("/gc/cycles/total:gc-cycles") }))
	c.vars.Set("uptime_seconds", expvar.Func(func() any { return int64(time.Since(c.start).Seconds()) }))
	return c
}

// readMetric samples one runtime/metrics value as a uint64 (0 when the
// metric is unsupported on this toolchain).
func readMetric(name string) uint64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// Add increments a named counter (creating it on first use). Negative
// deltas turn a counter into a gauge.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.vars.Add(name, delta)
}

// SetGaugeFunc installs (or replaces) a named gauge whose value is
// sampled from fn at render time — per-shard occupancy, WAL sizes,
// per-connection replay lag and the like. Use LabeledName to attach
// Prometheus-style labels to the name. No-op on a nil collector or a
// nil fn.
func (c *Collector) SetGaugeFunc(name string, fn func() int64) {
	if c == nil || fn == nil {
		return
	}
	c.vars.Set(name, expvar.Func(func() any { return fn() }))
}

// DeleteVar removes a registry variable — counters, gauges installed
// with SetGaugeFunc — so per-connection gauges can be retired when
// their connection closes. No-op on a nil collector.
func (c *Collector) DeleteVar(name string) {
	if c == nil {
		return
	}
	c.vars.Delete(name)
}

// Counter reads a counter back (0 when it never fired).
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	v, ok := c.vars.Get(name).(*expvar.Int)
	if !ok {
		return 0
	}
	return v.Value()
}

// Observe records one stage latency in that stage's histogram.
func (c *Collector) Observe(stage string, d time.Duration) {
	if c == nil {
		return
	}
	c.histogram(stage).Observe(d)
}

// ObserveSince is Observe(stage, time.Since(start)).
func (c *Collector) ObserveSince(stage string, start time.Time) {
	if c == nil {
		return
	}
	c.histogram(stage).Observe(time.Since(start))
}

// ObserveSinceN records n observations of stage that together took the
// time since start, each at their mean (Histogram.ObserveN).
func (c *Collector) ObserveSinceN(stage string, start time.Time, n int) {
	if c == nil {
		return
	}
	c.histogram(stage).ObserveN(time.Since(start), n)
}

// Now returns the current time, or the zero time on a nil collector —
// the paired ObserveSince is then a no-op, so uninstrumented runs skip
// the clock reads entirely.
func (c *Collector) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// StageCount reports how many observations a stage histogram holds.
func (c *Collector) StageCount(stage string) int64 {
	if c == nil {
		return 0
	}
	v, ok := c.stages.Load(stage)
	if !ok {
		return 0
	}
	return v.(*Histogram).Count()
}

// Stage returns the stage's histogram, creating it on first use.
func (c *Collector) Stage(stage string) *Histogram {
	if c == nil {
		return nil
	}
	return c.histogram(stage)
}

// histogram resolves (or lazily installs) a stage histogram.
func (c *Collector) histogram(stage string) *Histogram {
	if v, ok := c.stages.Load(stage); ok {
		return v.(*Histogram)
	}
	h := NewHistogram()
	if actual, loaded := c.stages.LoadOrStore(stage, h); loaded {
		return actual.(*Histogram)
	}
	c.vars.Set("stage."+stage, h)
	return h
}

// PutTrace records a finished assessment trace in the bounded ring.
func (c *Collector) PutTrace(t *Trace) {
	if c == nil || t == nil {
		return
	}
	c.traces.Put(t)
}

// Traces exposes the trace ring (nil on a nil collector).
func (c *Collector) Traces() *TraceStore {
	if c == nil {
		return nil
	}
	return c.traces
}

// WriteMetrics writes the full metrics document — the /metrics payload
// — as one JSON object with sorted keys (expvar's stable rendering).
func (c *Collector) WriteMetrics(w io.Writer) error {
	if c == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	if _, err := io.WriteString(w, c.vars.String()); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
