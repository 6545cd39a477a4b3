// Package monitor is the KPI collection substrate FUNNEL subscribes to.
// It substitutes for the paper's Hadoop-based centralized database
// (§2.2): per-server agents emit one measurement per KPI per 1-minute
// bin, a concurrent lock-striped Store keeps the binned series, and a
// TCP push protocol (length-prefixed binary frames) delivers subscribed
// measurements to downstream consumers "within one second" of
// collection, exactly as the paper's subscription tool does. On the
// inbound side, IngestServer accepts the same framing from remote
// publishers, with a batch frame (0x04) that coalesces many
// measurements per write (see Publisher.PublishBatch and
// RobustPublisher). The store can optionally persist every append to a
// write-ahead log with periodic compacted snapshots (see
// OpenPersistent), so a restart replays to the exact pre-crash state.
//
// See ARCHITECTURE.md at the repository root for the dataflow diagram
// and the byte-level wire-protocol reference.
package monitor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// StoreShards is the default number of lock stripes in a Store. Keys
// are FNV-hashed across the stripes so concurrent publishers and the
// assessment read path do not serialize on a single mutex.
const StoreShards = 16

// maxStoreShards bounds the shard count (shard indices are tracked in
// a byte during batch grouping).
const maxStoreShards = 256

// Measurement is one KPI sample.
type Measurement struct {
	Key topo.KPIKey
	T   time.Time
	V   float64
}

// Store is a concurrency-safe, append-mostly KPI time-series store with
// fixed binning. Bins without a measurement read as NaN. Series are
// lock-striped across shards by FNV-1a hash of the key, so appends and
// reads for different keys proceed in parallel; all operations on a
// single key serialize on its shard, preserving per-key delivery order.
type Store struct {
	start time.Time // guarded by epochMu (Prune rebases it)
	step  time.Duration

	// pruneEpoch counts the prunes that rebased the store (guarded by
	// epochMu, like start). Prune is the only operation that takes a
	// seriesEntry out of its shard, and it advances pruneEpoch in the
	// same epochMu.Lock section, so an entry resolved under
	// epochMu.RLock is still the one its shard holds for as long as
	// pruneEpoch reads the same under a later RLock. keyTable caches
	// entry pointers on that rule.
	pruneEpoch uint64

	// span is the sealed-chunk width in bins: each series keeps its
	// history as immutable chunk.Chunk blocks of exactly span bins plus
	// a small mutable tail (see seriesEntry). Set before any append via
	// SetChunkSpan; immutable afterwards.
	span int

	// spanScratch pools span-sized decode buffers for the rare late
	// write into sealed territory (decode → patch → re-encode).
	spanScratch sync.Pool

	// epochMu orders epoch rebases (Prune, Compact) against appends
	// and reads. Lock order: epochMu → shard.mu → subMu.
	epochMu sync.RWMutex

	shards []storeShard

	subMu  sync.RWMutex
	subs   map[int]*subscription
	nextID int
	// numSubs mirrors len(subs) so the append hot path can skip the
	// subscriber scan (and its lock round trip) when nobody listens.
	numSubs atomic.Int32

	// feedMu orders mutations of the registered coalescing bin feeds
	// (see feed.go); feeds holds an immutable snapshot the append hot
	// path reads with one atomic load (nil when nobody streams), so an
	// idle feed list costs the ingest path nothing and a live one costs
	// no lock round trip.
	feedMu sync.Mutex
	feeds  atomic.Pointer[[]*BinFeed]

	obs atomic.Pointer[obs.Collector]

	// quarantined counts sealed chunks replaced by NaN tombstones
	// after failing their on-disk checksum; degradedReads counts
	// RangeInto calls whose window overlapped at least one such
	// tombstone. Atomics: quarantine happens during recovery (before
	// any collector is attached) and reads happen concurrently.
	quarantined   atomic.Int64
	degradedReads atomic.Int64

	// persist is non-nil for stores opened with OpenPersistent; each
	// shard then carries its record of the write-ahead log (see wal.go).
	persist *persister
}

// storeShard is one lock stripe: a mutex, the series that hash to it,
// and (for persistent stores) the shard's record in the write-ahead
// log. Series are held by pointer so that a resolved entry can be
// written, and kept, without its key: Append pays one lookup by KPIKey
// per measurement, while the ingest socket and WAL replay pay it once
// per key and afterwards reach the entry through a keyTable handle,
// which stays valid until the next Prune (see Store.pruneEpoch).
type storeShard struct {
	mu     sync.RWMutex
	series map[topo.KPIKey]*seriesEntry
	wal    *shardWAL
}

// seriesEntry is one KPI's stored state: the binned history as sealed
// compressed chunks plus a small mutable tail, and the node-local
// arrival time of the most recent ingested measurement (the ingest
// high-watermark bin-to-verdict latency is measured against).
//
// Layout: every chunk holds exactly span bins; the first head bins of
// chunks[0] are pruned (logically absent), so logical bin i lives at
// encoded position i+head of the sealed region. The unsealed bins are
// tail ++ pend[:npend]: pend is a write-combining line inside the entry
// that takes the bins written past len(tail), and moves to tail with
// one append when it is full (see setBinLocked). A time-major feed
// writes one bin of every series, then the next; each tail is its own
// page-sized allocation, so writing there would touch a cold page per
// measurement, where the entry's lines are hot already. The logical
// length is len(chunks)·span − head + len(tail) + npend, always short
// of a further span: when the unsealed bins reach span, the first span
// of them are encoded and sealed.
//
// Concurrency: all fields are guarded by the owning shard's mutex for
// writing, but sealed chunks are immutable and shared by reference —
// RangeInto captures the chunks slice and head under the shard lock,
// then decodes after releasing it (holding only epochMu.RLock, which
// excludes Prune). Writers therefore never mutate an element of a
// chunks slice a reader may hold: a late write into sealed territory
// re-encodes into a copied slice (copy-on-write), and Prune installs a
// freshly built slice. Appending a newly sealed chunk in place is safe
// because readers captured the older, shorter slice header.
//
// arrivalNanos is zero until the first live append; snapshot restore
// stamps it with the restore time (the data's true arrival time died
// with the previous process, and time-since-restore is the honest
// lower bound on evidence staleness).
type seriesEntry struct {
	chunks       []*chunk.Chunk
	head         int
	tail         []float64
	arrivalNanos int64
	npend        uint8
	// feedTracked caches whether any registered BinFeed wants marks for
	// this key (guarded by the owning shard's mutex, like the rest of
	// the entry). The append hot path tests this one boolean instead of
	// hashing the three-string key against every feed's filter;
	// feed registration and closure recompute it for every series,
	// Refilter for the keys it is given.
	feedTracked bool
	pend        [pendBins]float64
}

// pendBins is the width of seriesEntry.pend: one cache line of values,
// which a span that is a multiple of 8 fills a whole number of times, so
// each of its moves to the tail writes one line there.
const pendBins = 8

// sealedLen returns the logical length of the sealed (compressed)
// region given the store's span.
func (e *seriesEntry) sealedLen(span int) int {
	return len(e.chunks)*span - e.head
}

// binLen returns the series' logical bin count given the store's span.
func (e *seriesEntry) binLen(span int) int {
	return e.sealedLen(span) + e.tailLen()
}

// tailLen returns the number of unsealed bins, tail and line.
func (e *seriesEntry) tailLen() int {
	return len(e.tail) + int(e.npend)
}

// copyTail copies unsealed bins [lo, hi) into dst.
func (e *seriesEntry) copyTail(dst []float64, lo, hi int) {
	nt := len(e.tail)
	if lo < nt {
		n := copy(dst, e.tail[lo:min(hi, nt)])
		dst, lo = dst[n:], nt
	}
	if hi > nt {
		copy(dst, e.pend[lo-nt:hi-nt])
	}
}

// subscription is one registered measurement listener.
type subscription struct {
	ch     chan Measurement
	filter func(topo.KPIKey) bool
	// drops counts measurements this subscription lost because its
	// buffer was full. Atomic: shards deliver concurrently.
	drops atomic.Int64
}

// deliver pushes m to the subscription without blocking. A full buffer
// evicts the oldest queued measurement to make room and retries once.
// Every counted drop is one real loss: either a previously-queued
// measurement that was evicted before the consumer saw it, or m itself
// when the retry also fails.
func (sub *subscription) deliver(m Measurement) (pushed, dropped int64) {
	select {
	case sub.ch <- m:
		return 1, 0
	default:
	}
	var lost int64
	select {
	case <-sub.ch:
		lost++ // evicted a queued measurement the consumer never saw
	default:
	}
	select {
	case sub.ch <- m:
		return 1, lost
	default:
		return 0, lost + 1 // m itself was lost too
	}
}

// NewStore returns a store binning measurements at the given step from
// the given epoch, striped across StoreShards shards. Step 0 means
// timeseries.DefaultStep (1 minute).
func NewStore(start time.Time, step time.Duration) *Store {
	return NewStoreShards(start, step, StoreShards)
}

// NewStoreShards is NewStore with an explicit shard count, clamped to
// [1, 256]. One shard reproduces the old single-mutex store (useful as
// a contention baseline in benchmarks); more shards let concurrent
// publishers and readers proceed in parallel.
func NewStoreShards(start time.Time, step time.Duration, shards int) *Store {
	if step <= 0 {
		step = timeseries.DefaultStep
	}
	if shards < 1 {
		shards = 1
	}
	if shards > maxStoreShards {
		shards = maxStoreShards
	}
	s := &Store{
		start:  start,
		step:   step,
		span:   chunk.DefaultSpan,
		shards: make([]storeShard, shards),
		subs:   make(map[int]*subscription),
	}
	for i := range s.shards {
		s.shards[i].series = make(map[topo.KPIKey]*seriesEntry)
	}
	return s
}

// Shards returns the number of lock stripes.
func (s *Store) Shards() int { return len(s.shards) }

// ChunkSpan returns the sealed-chunk width in bins.
func (s *Store) ChunkSpan() int { return s.span }

// SetChunkSpan sets the sealed-chunk width in bins (minimum 2; the
// default is chunk.DefaultSpan). It must be called before the first
// append: existing sealed chunks are not re-spanned, so changing the
// span of a populated store panics.
func (s *Store) SetChunkSpan(span int) {
	if span < 2 {
		span = 2
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if s.lenLocked() != 0 {
		panic("monitor: SetChunkSpan on a populated store")
	}
	s.span = span
}

// shardIndex maps a key to its stripe by FNV-1a over scope, entity and
// metric (with a NUL separator, mirroring KPIKey.String uniqueness).
func (s *Store) shardIndex(key topo.KPIKey) int {
	if len(s.shards) == 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h = (h ^ uint32(key.Scope)) * prime32
	for i := 0; i < len(key.Entity); i++ {
		h = (h ^ uint32(key.Entity[i])) * prime32
	}
	h = (h ^ 0) * prime32
	for i := 0; i < len(key.Metric); i++ {
		h = (h ^ uint32(key.Metric[i])) * prime32
	}
	return int(h % uint32(len(s.shards)))
}

// shardFor returns the stripe owning key.
func (s *Store) shardFor(key topo.KPIKey) *storeShard {
	return &s.shards[s.shardIndex(key)]
}

// SetCollector attaches a telemetry collector. Ingest counts, delivery
// pushes, slow-subscriber drops and WAL activity are reported to it,
// and gauges are registered: per-shard series occupancy for the balance
// view of the operator dashboard, and on persistent stores the log's
// size and rotations. A nil collector (the default) keeps every hook a
// no-op.
func (s *Store) SetCollector(c *obs.Collector) {
	s.obs.Store(c)
	if c == nil {
		return
	}
	for i := range s.shards {
		sh := &s.shards[i]
		label := strconv.Itoa(i)
		c.SetGaugeFunc(obs.LabeledName("monitor.shard_series", "shard", label), func() int64 {
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			return int64(len(sh.series))
		})
	}
	if p := s.persist; p != nil {
		c.SetGaugeFunc("monitor.wal_bytes", func() int64 { return p.walBytes.Load() })
		// The live generation's record bytes, and how often it was swapped.
		c.SetGaugeFunc(obs.GaugeWALLogBytes, func() int64 {
			p.logMu.Lock()
			defer p.logMu.Unlock()
			return p.logBytes
		})
		c.SetGaugeFunc(obs.GaugeWALRotations, func() int64 {
			p.logMu.Lock()
			defer p.logMu.Unlock()
			return p.rotations
		})
		// persist_state: 0 healthy, 1 degraded (re-arm pending), 2
		// failed (fail-stopped) — the one-glance durability light.
		c.SetGaugeFunc("monitor.persist_state", func() int64 {
			return int64(p.state.Load())
		})
	}
	// Corruption visibility: chunks quarantined by checksum failure and
	// reads that crossed one (each such read surfaces as NaN gaps).
	c.SetGaugeFunc("monitor.quarantined_chunks", func() int64 { return s.quarantined.Load() })
	c.SetGaugeFunc("monitor.degraded_reads", func() int64 { return s.degradedReads.Load() })
	// Compressed-store gauges: resident vs raw footprint of the binned
	// history, for the dashboard's compression-ratio line. Each read
	// walks the shards under their read locks — scrape-rate work.
	c.SetGaugeFunc("monitor.store_chunks", func() int64 {
		return int64(s.Stats().Chunks)
	})
	c.SetGaugeFunc("monitor.store_compressed_bytes", func() int64 {
		return s.Stats().ApproxBytes
	})
	c.SetGaugeFunc("monitor.store_raw_bytes", func() int64 {
		return int64(s.Stats().Bins) * 8
	})
}

// Collector returns the attached telemetry collector (possibly nil).
func (s *Store) Collector() *obs.Collector {
	return s.obs.Load()
}

// Start returns the store's epoch (which Prune advances).
func (s *Store) Start() time.Time {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	return s.start
}

// Step returns the bin width.
func (s *Store) Step() time.Duration { return s.step }

// binAt returns the bin of a store with the given epoch and step that
// holds t, and false for a time before the epoch (such measurements
// are dropped).
func binAt(start time.Time, step time.Duration, t time.Time) (int, bool) {
	if t.Before(start) {
		return 0, false
	}
	return int(t.Sub(start) / step), true
}

// binClock converts wire timestamps (Unix nanoseconds) to bins against
// one reading of the store epoch, in integer arithmetic whenever the
// epoch is representable in Unix nanoseconds (any epoch a deployment
// uses; the zero Time is not) and through binAt otherwise. Both agree
// on every timestamp.
type binClock struct {
	start      time.Time
	step       time.Duration
	startNanos int64
	exact      bool
}

// binClockLocked reads the epoch; the caller holds epochMu.
func (s *Store) binClockLocked() binClock {
	n := s.start.UnixNano()
	return binClock{start: s.start, step: s.step, startNanos: n, exact: time.Unix(0, n).Equal(s.start)}
}

// bin is binAt for the instant nanos.
func (c *binClock) bin(nanos int64) (int, bool) {
	if !c.exact {
		return binAt(c.start, c.step, time.Unix(0, nanos))
	}
	if nanos < c.startNanos {
		return 0, false
	}
	d := nanos - c.startNanos
	if d < 0 {
		d = math.MaxInt64 // saturate as Time.Sub does
	}
	return int(d / int64(c.step)), true
}

// entryLocked returns key's series in sh, creating it on first sight.
// The caller holds sh's mutex and epochMu.RLock. Keys travel by pointer
// on this path: a KPIKey is five words, and copying it into each call
// cost a tenth of a series-major AppendBatch load.
func (s *Store) entryLocked(sh *storeShard, key *topo.KPIKey) *seriesEntry {
	e := sh.series[*key]
	if e == nil {
		e = &seriesEntry{feedTracked: s.feedWants(*key)}
		sh.series[*key] = e
	}
	return e
}

// commitLocked is the one place a measurement becomes store state, for
// Append, AppendBatch, the ingest socket and WAL replay alike: bin
// write, arrival watermark, WAL, feed mark, subscriber delivery, in
// that order. e is key's entry in sh and idx the measurement's bin;
// the caller holds sh's mutex and epochMu.RLock, and read the clock
// (now) once per append or batch. A measurement that arrived framed
// passes its body as wire, which is logged verbatim, and is rebuilt as
// a Measurement only if somebody subscribes; an in-process caller
// passes m and a nil wire. Replay is the same call on a store that has
// no log, feed or subscriber yet. It returns the delivery counts.
func (s *Store) commitLocked(sh *storeShard, e *seriesEntry, key *topo.KPIKey, idx int, v float64, now int64, wire []byte, m *Measurement) (pushes, drops int64) {
	s.setBinLocked(e, idx, v)
	e.arrivalNanos = now
	if sh.wal != nil {
		sh.wal.appendLocked(wire, m)
	}
	if e.feedTracked {
		s.notifyFeeds(key, wire, m)
	}
	if s.numSubs.Load() == 0 {
		return 0, 0 // fast path: nobody listening, skip the scan
	}
	if m == nil {
		nanos := int64(binary.BigEndian.Uint64(wire[len(wire)-16:]))
		m = &Measurement{Key: *key, T: time.Unix(0, nanos).UTC(), V: v}
	}
	// Deliver while still holding the shard lock so measurements for
	// one key reach each subscriber in append order.
	s.subMu.RLock()
	for _, sub := range s.subs {
		if sub.filter != nil && !sub.filter(*key) {
			continue
		}
		p, d := sub.deliver(*m)
		pushes += p
		drops += d
		if d > 0 {
			sub.drops.Add(d)
		}
	}
	s.subMu.RUnlock()
	return pushes, drops
}

// setBinLocked writes v at logical bin idx of e. A bin past the tail
// goes to the line, which moves to the tail when it is full or completes
// a span; a bin beyond the line's reach settles the line and grows the
// tail with NaN gaps. Either way full spans are sealed off the tail's
// front. The caller holds the owning shard's mutex.
func (s *Store) setBinLocked(e *seriesEntry, idx int, v float64) {
	span := s.span
	sealed := e.sealedLen(span)
	if idx < sealed {
		// Late write into sealed territory (an out-of-order measurement
		// older than the mutable tail): decode the owning chunk, patch
		// the bin, re-encode. Copy-on-write on the chunks slice — a
		// reader outside the shard lock may hold the current header.
		pos := idx + e.head
		ci := pos / span
		scratch := s.spanBuf()
		e.chunks[ci].DecodeInto(scratch, 0, span)
		scratch[pos%span] = v
		nc := chunk.Encode(scratch)
		s.spanScratch.Put(&scratch)
		chunks := make([]*chunk.Chunk, len(e.chunks))
		copy(chunks, e.chunks)
		chunks[ci] = nc
		e.chunks = chunks
		return
	}
	ti := idx - sealed
	if ti < len(e.tail) {
		e.tail[ti] = v
		return
	}
	pi := uint(ti - len(e.tail))
	if pi < pendBins {
		for n := uint(e.npend); n < pi; n++ {
			e.pend[n] = math.NaN()
		}
		e.pend[pi] = v
		if pi >= uint(e.npend) {
			e.npend = uint8(pi + 1)
		}
		if e.npend < pendBins && e.tailLen() < span {
			return
		}
	}
	tail := append(e.tail, e.pend[:e.npend]...)
	e.npend = 0
	if pi >= pendBins {
		for len(tail) <= ti {
			tail = append(tail, math.NaN())
		}
		tail[ti] = v
	}
	for len(tail) >= span {
		e.chunks = append(e.chunks, chunk.Encode(tail[:span]))
		n := copy(tail, tail[span:])
		tail = tail[:n]
	}
	e.tail = tail
}

// decodeFromLocked decodes logical bins [lo, binLen) of e into dst
// (of length binLen−lo). The caller holds the owning shard's mutex.
func (s *Store) decodeFromLocked(e *seriesEntry, lo int, dst []float64) {
	span := s.span
	sealed := e.sealedLen(span)
	if lo < sealed {
		plo, phi := lo+e.head, len(e.chunks)*span
		for ci := plo / span; ci*span < phi; ci++ {
			clo := plo - ci*span
			if clo < 0 {
				clo = 0
			}
			off := ci*span + clo - plo
			e.chunks[ci].DecodeInto(dst[off:off+span-clo], clo, span)
		}
	}
	tlo := max(lo-sealed, 0)
	e.copyTail(dst[sealed+tlo-lo:], tlo, e.tailLen())
}

// spanBuf returns a span-sized scratch buffer from the pool.
func (s *Store) spanBuf() []float64 {
	if p, _ := s.spanScratch.Get().(*[]float64); p != nil && len(*p) == s.span {
		return *p
	}
	return make([]float64, s.span)
}

// Append records a measurement, growing the key's series as needed
// (intermediate bins are NaN). Measurements before the epoch are
// dropped. A second measurement in the same bin overwrites the first
// (agents emit one sample per bin). Subscribers whose filter matches
// receive the measurement; a subscriber that has fallen behind by more
// than its buffer loses the oldest deliveries rather than blocking the
// ingest path.
func (s *Store) Append(m Measurement) {
	now := time.Now().UnixNano()
	s.epochMu.RLock()
	sh := s.shardFor(m.Key)
	ms, run := [1]Measurement{m}, [1]int32{0}
	pushes, drops, ingested := s.appendRun(sh, now, ms[:], run[:])
	s.epochMu.RUnlock()
	s.persist.flush()
	s.countIngest(ingested, pushes, drops)
}

// appendRun applies ms[i] for each i of run — measurements that
// all belong to shard sh — under sh's lock, and seals sh's log record.
// The caller holds epochMu.RLock, and flushes the log before it returns.
func (s *Store) appendRun(sh *storeShard, now int64, ms []Measurement, run []int32) (pushes, drops, ingested int64) {
	start := s.start
	sh.mu.Lock()
	for _, i := range run {
		// binAt and entryLocked's lookup, written out: the two calls
		// per measurement showed in a series-major load.
		m := &ms[i]
		if m.T.Before(start) {
			continue
		}
		idx := int(m.T.Sub(start) / s.step)
		e := sh.series[m.Key]
		if e == nil {
			e = s.entryLocked(sh, &m.Key)
		}
		p, d := s.commitLocked(sh, e, &m.Key, idx, m.V, now, nil, m)
		pushes += p
		drops += d
		ingested++
	}
	if sh.wal != nil {
		sh.wal.sealLocked()
	}
	sh.mu.Unlock()
	return pushes, drops, ingested
}

// countIngest reports one append or batch to the collector, if any.
func (s *Store) countIngest(ingested, pushes, drops int64) {
	col := s.obs.Load()
	col.Add(obs.CtrIngested, ingested)
	col.Add(obs.CtrPushes, pushes)
	col.Add(obs.CtrPushDrops, drops)
}

// batchScratch pools AppendBatch's shard-grouping scratch so the hot
// ingest path does not allocate per batch.
var batchScratch = sync.Pool{New: func() any { return new(shardGrouping) }}

// shardGrouping is the workspace that groups a batch by shard: the
// shard of each measurement, and the measurements' indices
// counting-sorted by it.
type shardGrouping struct {
	idx   []uint8
	order []int32
}

// grow resizes the workspace for a batch of n measurements.
func (g *shardGrouping) grow(n int) {
	if cap(g.idx) < n {
		g.idx = make([]uint8, n)
		g.order = make([]int32, n)
	}
	g.idx = g.idx[:n]
	g.order = g.order[:n]
}

// sort counting-sorts the batch by g.idx, which the caller has filled:
// afterwards g.order[offsets[si]:offsets[si+1]] are the indices of
// shard si's measurements, in batch order — two cheap passes in place
// of a batch scan per shard, each stripe visited once over one
// contiguous run, and per-key order kept.
func (g *shardGrouping) sort(shards int) (offsets [maxStoreShards + 1]int32) {
	for _, si := range g.idx {
		offsets[int(si)+1]++
	}
	for si := 0; si < shards; si++ {
		offsets[si+1] += offsets[si]
	}
	next := offsets
	for i, si := range g.idx {
		g.order[next[si]] = int32(i)
		next[si]++
	}
	return offsets
}

// AppendBatch records many measurements, grouping them by shard so each
// stripe is locked once per batch (and, for persistent stores, the log
// written once per batch). Semantics per measurement are identical to
// Append; measurements for the same key keep their slice order.
func (s *Store) AppendBatch(ms []Measurement) {
	if len(ms) == 0 {
		return
	}
	if len(ms) == 1 {
		s.Append(ms[0])
		return
	}
	// One clock read stamps the whole batch's arrival watermarks — the
	// batch arrived together, and the amortized cost keeps the ingest
	// hot path flat.
	now := time.Now().UnixNano()
	g := batchScratch.Get().(*shardGrouping)
	g.grow(len(ms))
	s.epochMu.RLock()
	for i := range ms {
		g.idx[i] = uint8(s.shardIndex(ms[i].Key))
	}
	offsets := g.sort(len(s.shards))
	var pushes, drops, ingested int64
	for si := range s.shards {
		if run := g.order[offsets[si]:offsets[si+1]]; len(run) > 0 {
			p, d, n := s.appendRun(&s.shards[si], now, ms, run)
			pushes += p
			drops += d
			ingested += n
		}
	}
	s.epochMu.RUnlock()
	s.persist.flush()
	batchScratch.Put(g)
	s.countIngest(ingested, pushes, drops)
}

// keyTable is the framed-key handle table of one ingest connection or
// of one shard of a log under replay: it maps a measurement's key bytes
// as framed (scope byte and both length-prefixed strings) to a handle
// holding everything later measurements of that key need, so that a
// key's strings are allocated, its shard hashed and its series looked
// up once per connection. Handles are kept in first-seen order, and a publisher
// sends the same keys in the same order every bin (as a replayed log
// holds them), so a measurement's handle is found by position: scan
// compares the body's key bytes with the handle after the previous
// body's, and goes to the map only when they differ. Not safe for
// concurrent use.
//
// Invalidation: a handle's entry pointer is written and read only
// under the entry's shard lock inside an epochMu.RLock section, and
// every such section starts by comparing epoch with the store's
// pruneEpoch, dropping every pointer when it moved (see
// Store.pruneEpoch). So no handle ever writes into an entry that has
// left its shard, and no table keeps a pruned series alive past its
// next frame.
type keyTable struct {
	s *Store
	// index maps framed key bytes to a position in handles. It stops
	// growing at maxKeyCacheEntries, so a hostile publisher streaming
	// unique keys cannot grow it without bound; keys past the cap get a
	// handle that lives for one frame, at handles[len(index):].
	index   map[string]int32
	handles []keyHandle
	// prev is the handle of the last body scanned; lookups counts the
	// bodies of the frame being applied that position did not resolve.
	prev    int32
	lookups int64
	epoch   uint64
	// recs is the frame scan left to apply, grp its grouping by shard.
	recs []frameRec
	grp  shardGrouping
}

// keyHandle is one key as a keyTable resolved it: its bytes as framed
// (the index's key; empty past the cap), the interned KPIKey, the shard
// that owns it, and its series entry there (nil until a measurement of
// this key is first applied, and again after a prune).
type keyHandle struct {
	framed string
	key    topo.KPIKey
	e      *seriesEntry
	shard  uint8
}

// frameRec locates one validated measurement body in the scanned bytes
// and names its key's handle.
type frameRec struct {
	handle   int32
	off, end int32
}

// newKeyTable returns an empty handle table for s.
func newKeyTable(s *Store) *keyTable {
	return &keyTable{s: s, index: make(map[string]int32)}
}

// scan validates up to max concatenated measurement bodies at the front
// of b — the layout of a batch frame after its count and of a WAL group
// record — and notes each for apply, resolving its key's handle.
// It returns how many bodies it accepted and how many bytes they span,
// and the error that stopped it at a malformed body. Nothing touches
// the store.
func (t *keyTable) scan(b []byte, max int) (n, used int, err error) {
	clear(t.handles[len(t.index):]) // the last frame's past-the-cap handles
	t.handles = t.handles[:len(t.index)]
	t.recs = t.recs[:0]
	t.lookups = 0
	for n < max && used < len(b) {
		body := b[used:]
		metOff, keyEnd, err := measurementKeySpan(body)
		if err != nil {
			return n, used, err
		}
		if len(body) < keyEnd+16 {
			return n, used, fmt.Errorf("monitor: bad measurement tail length %d", len(body)-keyEnd)
		}
		// The handle after the last body's, wrapping at the end of the
		// indexed ones, if it is this key's; else by the map. Neither
		// string(body[...]) allocates.
		hi := t.prev + 1
		if int(hi) >= len(t.index) {
			hi = 0
		}
		if int(hi) >= len(t.index) || t.handles[hi].framed != string(body[:keyEnd]) {
			t.lookups++
			var seen bool
			if hi, seen = t.index[string(body[:keyEnd])]; !seen {
				key := keyFromSpan(body, metOff, keyEnd)
				hi = int32(len(t.handles))
				h := keyHandle{key: key, shard: uint8(t.s.shardIndex(key))}
				if len(t.index) < maxKeyCacheEntries {
					h.framed = string(body[:keyEnd])
					t.index[h.framed] = hi
				}
				t.handles = append(t.handles, h)
			}
		}
		t.prev = hi
		end := used + keyEnd + 16
		t.recs = append(t.recs, frameRec{handle: hi, off: int32(used), end: int32(end)})
		used = end
		n++
	}
	return n, used, nil
}

// apply applies the bodies scan accepted from b to the store, with
// Append's semantics per measurement and AppendBatch's per batch: one
// clock read, one epoch lock, each shard locked once over its run of
// the batch (grouped by the handles' shards, no key re-hashed), the log
// written once, measurements of one key in frame order.
func (t *keyTable) apply(b []byte) {
	if len(t.recs) == 0 {
		return
	}
	s := t.s
	now := time.Now().UnixNano()
	g := &t.grp
	g.grow(len(t.recs))
	for i, r := range t.recs {
		g.idx[i] = t.handles[r.handle].shard
	}
	offsets := g.sort(len(s.shards))
	var pushes, drops, ingested, resolves int64
	s.epochMu.RLock()
	clk := s.binClockLocked()
	if t.epoch != s.pruneEpoch {
		// A prune ran since the last frame and may have dropped any of
		// the series these handles point at.
		for i := range t.handles {
			t.handles[i].e = nil
		}
		t.epoch = s.pruneEpoch
	}
	for si := range s.shards {
		run := g.order[offsets[si]:offsets[si+1]]
		if len(run) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, i := range run {
			r := t.recs[i]
			body := b[r.off:r.end]
			tail := body[len(body)-16:]
			idx, ok := clk.bin(int64(binary.BigEndian.Uint64(tail)))
			if !ok {
				continue
			}
			h := &t.handles[r.handle]
			if h.e == nil {
				h.e = s.entryLocked(sh, &h.key)
				resolves++
			}
			v := math.Float64frombits(binary.BigEndian.Uint64(tail[8:]))
			p, d := s.commitLocked(sh, h.e, &h.key, idx, v, now, body, nil)
			pushes += p
			drops += d
			ingested++
		}
		if sh.wal != nil {
			sh.wal.sealLocked()
		}
		sh.mu.Unlock()
	}
	s.epochMu.RUnlock()
	s.persist.flush()
	s.countIngest(ingested, pushes, drops)
	if resolves > 0 {
		s.obs.Load().Add(obs.CtrIngestKeyResolves, resolves)
	}
	if t.lookups > 0 {
		s.obs.Load().Add(obs.CtrIngestKeyLookups, t.lookups)
	}
}

// Series returns a copy of the key's series from the store epoch
// through the last appended bin, and whether the key exists. Gaps are
// NaN; callers typically FillGaps before analysis.
func (s *Store) Series(key topo.KPIKey) (*timeseries.Series, bool) {
	vals, start, ok := s.rangeInto(key, time.Time{}, time.Time{}, nil, true)
	if !ok {
		return nil, false
	}
	return timeseries.New(start, s.step, vals), true
}

// RangeInto decodes the key's bins covering [from, to), clamped to the
// stored span, into dst. It returns the window's values (aliasing
// dst's storage when its capacity suffices — steady-state callers
// reusing a buffer pay zero allocations), the window's start time, and
// whether the window is non-empty; ok is false when the key is unknown
// or the clamped range is empty, with dst returned unread.
//
// This is the assessment hot path: only the sealed chunks overlapping
// the window are decoded, sealed chunks are shared by reference
// instead of copied (the epoch read-lock held for the duration
// excludes Prune), and the shard lock is released before any decoding
// happens — only the small mutable tail is copied under it.
func (s *Store) RangeInto(key topo.KPIKey, from, to time.Time, dst []float64) ([]float64, time.Time, bool) {
	return s.rangeInto(key, from, to, dst, false)
}

// rangeInto implements Series (all=true: the full span regardless of
// from/to, ok for any existing key) and RangeInto (all=false).
func (s *Store) rangeInto(key topo.KPIKey, from, to time.Time, dst []float64, all bool) ([]float64, time.Time, bool) {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	start := s.start
	span := s.span
	sh := s.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.series[key]
	if !ok {
		sh.mu.RUnlock()
		return dst, time.Time{}, false
	}
	sealed := e.sealedLen(span)
	n := sealed + e.tailLen()
	lo, hi := 0, n
	if !all {
		if from.After(start) {
			lo = int(from.Sub(start) / s.step)
		}
		if end := start.Add(time.Duration(n) * s.step); to.Before(end) {
			hi = int(to.Sub(start)+s.step-1) / int(s.step)
			if hi > n {
				hi = n
			}
		}
		if lo >= hi || lo >= n {
			sh.mu.RUnlock()
			return dst, time.Time{}, false
		}
	}
	m := hi - lo
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	head := e.head
	chunks := e.chunks
	// Copy the window's share of the unsealed bins while still holding
	// the shard lock; the sealed chunks are immutable and decode after
	// release (epochMu.RLock alone keeps Prune out).
	if hi > sealed {
		tlo := lo
		if tlo < sealed {
			tlo = sealed
		}
		e.copyTail(dst[tlo-lo:], tlo-sealed, hi-sealed)
	}
	sh.mu.RUnlock()
	if lo < sealed {
		shi := hi
		if shi > sealed {
			shi = sealed
		}
		// Decode encoded positions [lo+head, shi+head), chunk by chunk.
		degraded := false
		plo, phi := lo+head, shi+head
		for ci := plo / span; ci*span < phi; ci++ {
			clo := plo - ci*span
			if clo < 0 {
				clo = 0
			}
			chi := phi - ci*span
			if chi > span {
				chi = span
			}
			off := ci*span + clo - plo
			chunks[ci].DecodeInto(dst[off:off+chi-clo], clo, chi)
			if chunks[ci].Quarantined() {
				degraded = true
			}
		}
		if degraded {
			// The window crossed a quarantined chunk: its bins came back
			// as NaN (explicit missing data), and the read is counted so
			// operators can tie Inconclusive verdicts to disk corruption.
			s.degradedReads.Add(1)
		}
	}
	return dst, start.Add(time.Duration(lo) * s.step), true
}

// QuarantinedChunks returns the number of sealed chunks replaced by
// NaN tombstones after failing their on-disk checksum.
func (s *Store) QuarantinedChunks() int64 { return s.quarantined.Load() }

// DegradedReads returns the number of RangeInto windows that crossed a
// quarantined chunk (and therefore saw NaN where data was lost).
func (s *Store) DegradedReads() int64 { return s.degradedReads.Load() }

// ArrivalWatermark returns the node-local time the key's most recent
// measurement was ingested, and whether the key holds one. Series
// restored from a snapshot carry the restore time until their first
// live append re-stamps them. The assessment pipeline subtracts this
// from verdict emission time to get the end-to-end bin-to-verdict
// latency.
func (s *Store) ArrivalWatermark(key topo.KPIKey) (time.Time, bool) {
	s.epochMu.RLock()
	sh := s.shardFor(key)
	sh.mu.RLock()
	var ns int64
	if e, ok := sh.series[key]; ok {
		ns = e.arrivalNanos
	}
	sh.mu.RUnlock()
	s.epochMu.RUnlock()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// SeriesLen returns the key's logical bin count (index of the last
// stored bin plus one) and whether the key exists, without decoding or
// copying anything — the online assessor's per-tick readiness probe.
func (s *Store) SeriesLen(key topo.KPIKey) (int, bool) {
	s.epochMu.RLock()
	sh := s.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.series[key]
	n := 0
	if ok {
		n = e.binLen(s.span)
	}
	sh.mu.RUnlock()
	s.epochMu.RUnlock()
	return n, ok
}

// Range returns a copy of the key's bins covering [from, to), clamped
// to the stored span. ok is false when the key is unknown or the
// clamped range is empty. Unlike the historical implementation it
// copies (and decodes) only the requested window, never the full
// series.
func (s *Store) Range(key topo.KPIKey, from, to time.Time) (*timeseries.Series, bool) {
	vals, wstart, ok := s.RangeInto(key, from, to, nil)
	if !ok {
		return nil, false
	}
	return timeseries.New(wstart, s.step, vals), true
}

// Keys returns every stored KPI key, in unspecified order.
func (s *Store) Keys() []topo.KPIKey {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	out := make([]topo.KPIKey, 0, s.lenLocked())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.series {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	return out
}

// lenLocked sums series counts across shards (caller holds epochMu).
func (s *Store) lenLocked() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// Len returns the number of stored series.
func (s *Store) Len() int {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	return s.lenLocked()
}

// Prune drops all bins before the given time, advancing the store's
// epoch to the containing bin boundary. Long-running deployments use it
// to bound memory at (history window) × (KPI count): the paper's
// seasonal DiD needs 30 days of baseline (§3.2.5), so a deployment
// prunes to now − 31 days once per day. Pruning to a time at or before
// the current epoch is a no-op. On a persistent store a prune schedules
// a compaction, so the dropped bins also leave the on-disk logs.
func (s *Store) Prune(before time.Time) {
	s.epochMu.Lock()
	if !before.After(s.start) {
		s.epochMu.Unlock()
		return
	}
	drop := int(before.Sub(s.start) / s.step)
	if drop <= 0 {
		s.epochMu.Unlock()
		return
	}
	span := s.span
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, e := range sh.series {
			sealed := e.sealedLen(span)
			if drop >= sealed+e.tailLen() {
				delete(sh.series, key)
				continue
			}
			if drop < sealed {
				// Drop whole leading chunks; the remainder of a partial
				// chunk stays encoded and is skipped via head. The kept
				// slice is rebuilt (not re-sliced) so the dropped chunks'
				// pointers leave the backing array and can be collected.
				p := e.head + drop
				if dc := p / span; dc > 0 {
					kept := make([]*chunk.Chunk, len(e.chunks)-dc)
					copy(kept, e.chunks[dc:])
					e.chunks = kept
				}
				e.head = p % span
				continue
			}
			td, n := drop-sealed, e.tailLen()
			kept := make([]float64, n-td)
			e.copyTail(kept, td, n)
			e.chunks = nil
			e.head = 0
			e.tail = kept
			e.npend = 0
		}
		sh.mu.Unlock()
	}
	s.start = s.start.Add(time.Duration(drop) * s.step)
	s.pruneEpoch++
	p := s.persist
	s.epochMu.Unlock()
	// Every absolute bin index a streaming consumer cached just shifted
	// by drop; the epoch bump tells it to resync.
	s.bumpFeedEpochs()
	if p != nil {
		p.requestCompact()
	}
}

// Stats summarizes a store for introspection and capacity planning.
type Stats struct {
	// SeriesCount is the number of distinct KPI series.
	SeriesCount int
	// Bins is the total number of stored (logical) bins across all
	// series, sealed and mutable alike.
	Bins int
	// ApproxBytes estimates the resident size of the stored values:
	// the encoded bytes of sealed chunks plus 8 bytes per mutable tail
	// bin (excluding map and key overhead).
	ApproxBytes int64
	// CompressedBytes is the encoded size of all sealed chunks.
	CompressedBytes int64
	// Chunks is the number of sealed chunks across all series.
	Chunks int
	// QuarantinedChunks is how many of them are checksum-failure
	// tombstones (all their bins read as NaN).
	QuarantinedChunks int
	// TailBins is the number of mutable (uncompressed) tail bins.
	TailBins int
	// Start and LastBin bound the stored span; LastBin is −1 for an
	// empty store.
	Start   time.Time
	LastBin int
}

// Stats returns a snapshot of the store's size.
func (s *Store) Stats() Stats {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	st := Stats{Start: s.start, LastBin: -1}
	span := s.span
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.SeriesCount += len(sh.series)
		for _, e := range sh.series {
			n := e.binLen(span)
			st.Bins += n
			if n-1 > st.LastBin {
				st.LastBin = n - 1
			}
			st.Chunks += len(e.chunks)
			st.TailBins += e.tailLen()
			for _, c := range e.chunks {
				st.CompressedBytes += int64(c.EncodedBytes())
				if c.Quarantined() {
					st.QuarantinedChunks++
				}
			}
		}
		sh.mu.RUnlock()
	}
	st.ApproxBytes = st.CompressedBytes + int64(st.TailBins)*8
	return st
}

// ReplaySince snapshots every stored measurement whose key passes the
// filter (nil matches everything) and whose bin time is at or after
// since, ordered by bin time (ties in unspecified key order). Empty
// (NaN) bins are skipped — they hold no measurement to replay. A
// resuming subscriber replays from its last-seen low-water mark and
// dedups the overlap by (key, bin).
func (s *Store) ReplaySince(filter func(topo.KPIKey) bool, since time.Time) []Measurement {
	s.epochMu.RLock()
	start := s.start
	lo := 0
	if since.After(start) {
		lo = int(since.Sub(start) / s.step)
	}
	var out []Measurement
	span := s.span
	var buf []float64
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for key, e := range sh.series {
			if filter != nil && !filter(key) {
				continue
			}
			n := e.binLen(span)
			if lo >= n {
				continue
			}
			// Replay is a cold path (subscriber reconnect): decode the
			// whole replayed suffix into a reused scratch buffer.
			if cap(buf) < n-lo {
				buf = make([]float64, n-lo)
			}
			buf = buf[:n-lo]
			s.decodeFromLocked(e, lo, buf)
			for i := lo; i < n; i++ {
				if math.IsNaN(buf[i-lo]) {
					continue
				}
				t := start.Add(time.Duration(i) * s.step)
				if t.Before(since) {
					continue
				}
				out = append(out, Measurement{Key: key, T: t, V: buf[i-lo]})
			}
		}
		sh.mu.RUnlock()
	}
	s.epochMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out
}

// Subscribers returns the number of active subscriptions. Producers
// that must not race ahead of late-binding consumers (e.g. a TCP
// subscriber whose subscribe frame is still in flight) can wait on it.
func (s *Store) Subscribers() int {
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	return len(s.subs)
}

// Subscribe registers a listener for measurements whose key passes the
// filter (nil matches everything). buffer is the channel capacity
// (min 1). Cancel releases the subscription and returns the number of
// measurements this subscription lost to a full buffer — slow
// subscribers no longer lose data invisibly. The channel is closed by
// cancel and must not be closed by the caller; calling cancel again
// returns the same count.
func (s *Store) Subscribe(filter func(topo.KPIKey) bool, buffer int) (ch <-chan Measurement, cancel func() int) {
	if buffer < 1 {
		buffer = 1
	}
	sub := &subscription{ch: make(chan Measurement, buffer), filter: filter}
	s.subMu.Lock()
	id := s.nextID
	s.nextID++
	s.subs[id] = sub
	s.numSubs.Store(int32(len(s.subs)))
	s.subMu.Unlock()
	s.obs.Load().Add(obs.CtrSubsActive, 1)
	var once sync.Once
	var dropped int
	return sub.ch, func() int {
		once.Do(func() {
			// Delete and close under the write lock: once it is held no
			// shard can be mid-delivery on this subscription, so the
			// close cannot race a send.
			s.subMu.Lock()
			delete(s.subs, id)
			s.numSubs.Store(int32(len(s.subs)))
			dropped = int(sub.drops.Load())
			close(sub.ch)
			s.subMu.Unlock()
			s.obs.Load().Add(obs.CtrSubsActive, -1)
		})
		return dropped
	}
}
