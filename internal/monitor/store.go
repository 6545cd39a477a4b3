// Package monitor is the KPI collection substrate FUNNEL subscribes to.
// It substitutes for the paper's Hadoop-based centralized database
// (§2.2): per-server agents emit one measurement per KPI per 1-minute
// bin, a concurrent lock-striped Store keeps the binned series, and a
// TCP push protocol (length-prefixed binary frames) delivers subscribed
// measurements to downstream consumers "within one second" of
// collection, exactly as the paper's subscription tool does. On the
// inbound side, IngestServer accepts the same framing from remote
// publishers, with an id batch frame (0x05) that coalesces many
// measurements per write and names each key once per connection (see
// Publisher.PublishBatch and RobustPublisher). The store can optionally
// persist every append to a write-ahead log with periodic compacted
// snapshots (see OpenPersistent), so a restart replays to the exact
// pre-crash state.
//
// See ARCHITECTURE.md at the repository root for the dataflow diagram
// and the byte-level wire-protocol reference.
package monitor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	// start is bin 0 for the store's whole life: every bin index the
	// store takes or hands out counts from it, and clock converts
	// timestamps to those bins.
	start time.Time
	step  time.Duration
	clock binClock

	// horizon is the lowest bin a write may land in. Prune raises it,
	// nothing lowers it; writers read it under their shard's lock, after
	// which Prune, which stores it before it walks the shards, has either
	// pruned that shard to it or waits for the lock.
	horizon atomic.Int64

	// span is the sealed-chunk width in bins: each series keeps its
	// history as immutable chunk.Chunk blocks of exactly span bins plus
	// a small mutable tail (see seriesEntry). Set before any append via
	// SetChunkSpan; immutable afterwards.
	span int

	// spanScratch pools span-sized decode buffers for the rare late
	// write into sealed territory (decode → patch → re-encode).
	spanScratch sync.Pool

	// Lock order: shard.mu → subMu, and shard.mu → feed.mu → logMu.
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
	// after failing their on-disk checksum or their token walk;
	// degradedReads counts RangeInto calls whose window overlapped at
	// least one such tombstone or a chunk whose read failed, and late
	// writes dropped because their chunk's read failed. Atomics:
	// quarantine happens during recovery (before any collector is
	// attached) and reads happen concurrently.
	quarantined   atomic.Int64
	degradedReads atomic.Int64
	// chunkReads and chunkReadBytes count the reads of chunks an open
	// left on disk (segmentFile.ReadAt), and their bytes.
	chunkReads, chunkReadBytes atomic.Int64

	// persist is non-nil for stores opened with OpenPersistent; each
	// shard then carries its record of the write-ahead log (see wal.go).
	persist *persister
}

// storeShard is one lock stripe: a mutex, the series that hash to it,
// and (for persistent stores) the shard's record in the write-ahead
// log. Series are held by pointer so that a resolved entry can be
// written, and kept, without its key: every writer looks a key up once
// per keyTable handle — once per run of a key in an AppendBatch, once
// per key on an ingest connection or in a replayed log generation — and
// afterwards reaches the entry through the handle, until Prune marks
// the entry deleted.
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
// Layout: bins are the store's absolute bins, and every chunk holds
// exactly span of them: chunks[i] is chunk first+i, bins
// [(first+i)·span, (first+i+1)·span). The bins below first·span are
// pruned or were never kept (a series created after a prune starts at
// the horizon's chunk, NaN up to its first write). The unsealed bins
// that follow the sealed ones are tail ++ pend[:npend]: pend is a
// write-combining line inside the entry that takes the bins written past
// len(tail), and moves to tail with one append when it is full (see
// setBinLocked). A time-major feed writes one bin of every series, then
// the next; each tail is its own page-sized allocation, so writing there
// would touch a cold page per measurement, where the entry's lines are
// hot already. The unsealed bins are always short of a span: when they
// reach span, the first span of them are encoded and sealed.
//
// Concurrency: all fields are guarded by the owning shard's mutex, but
// sealed chunks are immutable and shared by reference — RangeInto
// captures the chunks slice and first under the shard lock, then decodes
// after releasing it, and a snapshot cut captures them to encode with no
// lock held at all (see snapshotCut). Writers therefore never mutate an
// element of a chunks slice once it is published: a late write into
// sealed territory re-encodes into a copied slice (copy-on-write), as
// does fsck's repair, and Prune installs a freshly built slice.
// Appending a newly sealed chunk in place is safe because readers
// captured the older, shorter slice header.
//
// arrivalNanos is zero until the first live append; snapshot restore
// stamps it with the restore time (the data's true arrival time died
// with the previous process, and time-since-restore is the honest
// lower bound on evidence staleness).
type seriesEntry struct {
	// chunks is append-only in place: an element is never written once
	// the slice is published; a change to one builds a new slice. Range
	// reads and snapshot cuts rely on it.
	chunks       []*chunk.Chunk
	first        int
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
	// deleted is set by the Prune that takes the entry out of its shard,
	// which drops its bins too, so that a handle still pointing at it
	// (keyHandle.e) pins no history and resolves its key again.
	deleted bool
	// walID is the id the series' key has in the live log generation,
	// valid while walGen is that generation's stamp (shardWAL.gen): its
	// first measurement in a generation defines the key, the later ones
	// reference the id (see wal.go). Zero on an entry never logged.
	walGen, walID uint32
	pend          [pendBins]float64
}

// pendBins is the width of seriesEntry.pend: one cache line of values,
// which a span that is a multiple of 8 fills a whole number of times, so
// each of its moves to the tail writes one line there.
const pendBins = 8

// sealedEnd returns the bin past the sealed (compressed) region given
// the store's span: where the unsealed bins start.
func (e *seriesEntry) sealedEnd(span int) int {
	return (e.first + len(e.chunks)) * span
}

// end returns the bin past the series' last one given the store's span.
func (e *seriesEntry) end(span int) int {
	return e.sealedEnd(span) + e.tailLen()
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
	n := start.UnixNano()
	s := &Store{
		start:  start,
		step:   step,
		clock:  binClock{start: start, step: step, startNanos: n, exact: time.Unix(0, n).Equal(start)},
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
	if s.Len() != 0 {
		panic("monitor: SetChunkSpan on a populated store")
	}
	s.span = span
}

// shardIndex maps a key to its stripe by FNV-1a over scope, entity and
// metric (with a NUL separator, mirroring KPIKey.String uniqueness).
func (s *Store) shardIndex(key topo.KPIKey) int {
	return shardOf(len(s.shards), byte(key.Scope), key.Entity, key.Metric)
}

// shardOf is the FNV-1a stripe of a key among shards, from its strings
// or from their framed bytes.
func shardOf[S string | []byte](shards int, scope byte, entity, metric S) int {
	if shards == 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h = (h ^ uint32(scope)) * prime32
	for i := 0; i < len(entity); i++ {
		h = (h ^ uint32(entity[i])) * prime32
	}
	h = (h ^ 0) * prime32
	for i := 0; i < len(metric); i++ {
		h = (h ^ uint32(metric[i])) * prime32
	}
	return int(h % uint32(shards))
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
		c.SetGaugeFunc(obs.GaugeSnapshotBytes, func() int64 { return p.snapBytes.Load() })
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
	c.SetGaugeFunc(obs.GaugeChunkReads, func() int64 { return s.chunkReads.Load() })
	c.SetGaugeFunc(obs.GaugeChunkReadBytes, func() int64 { return s.chunkReadBytes.Load() })
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

// Start returns the store's epoch, its bin 0, which nothing moves.
func (s *Store) Start() time.Time { return s.start }

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

// binClock converts wire timestamps (Unix nanoseconds) to bins of the
// store epoch, in integer arithmetic whenever the epoch is representable
// in Unix nanoseconds (any epoch a deployment uses; the zero Time is
// not) and through binAt otherwise. Both agree on every timestamp.
type binClock struct {
	start      time.Time
	step       time.Duration
	startNanos int64
	exact      bool
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

// entryLocked returns key's series in sh, creating it on first sight at
// the chunk of horizon, the one the caller read under sh's mutex, which
// it holds, and checked its bins against: a Prune may have raised the
// store's since. Keys travel by pointer on this path: a KPIKey is five
// words, and copying it into each call cost a tenth of a series-major
// AppendBatch load.
func (s *Store) entryLocked(sh *storeShard, key *topo.KPIKey, horizon int) *seriesEntry {
	e := sh.series[*key]
	if e == nil {
		e = &seriesEntry{first: horizon / s.span, feedTracked: s.feedWants(*key)}
		sh.series[*key] = e
	}
	return e
}

// commitLocked is the one place a live measurement becomes store state:
// bin write, arrival watermark, WAL, feed mark, subscriber delivery, in
// that order. e is key's entry in sh and idx the bin of the measurement's
// Unix-nanosecond timestamp nanos, at or past the horizon; the caller
// (keyTable.apply) holds sh's mutex, and read the clock (now) once per
// batch. It returns the delivery counts. Recovery does not come here: on a store
// that has no log, feed or subscriber yet it writes a key's replayed bins
// as a run (see keyRuns.writeLocked). A late write into a chunk whose
// read fails is not made (setBinLocked): it is counted in
// monitor.degraded_reads, and not logged, stamped or delivered.
func (s *Store) commitLocked(sh *storeShard, e *seriesEntry, key *topo.KPIKey, idx int, nanos int64, v float64, now int64) (pushes, drops int64) {
	if s.setBinLocked(e, idx, v) != nil {
		s.degradedReads.Add(1)
		return 0, 0
	}
	e.arrivalNanos = now
	if sh.wal != nil {
		sh.wal.appendLocked(e, key, nanos, v)
	}
	if e.feedTracked {
		s.notifyFeeds(key, nanos)
	}
	if s.numSubs.Load() == 0 {
		return 0, 0 // fast path: nobody listening, skip the scan
	}
	// Deliver while still holding the shard lock so measurements for
	// one key reach each subscriber in append order.
	return s.deliver(Measurement{Key: *key, T: time.Unix(0, nanos).UTC(), V: v})
}

// deliver hands m to every subscriber whose filter takes it. A filter
// that panics leaves subMu released, as applyShard leaves the shard.
func (s *Store) deliver(m Measurement) (pushes, drops int64) {
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	for _, sub := range s.subs {
		if sub.filter != nil && !sub.filter(m.Key) {
			continue
		}
		p, d := sub.deliver(m)
		pushes += p
		drops += d
		if d > 0 {
			sub.drops.Add(d)
		}
	}
	return pushes, drops
}

// setBinLocked writes v at bin idx of e, at or past its first kept bin
// (the horizon, which writers check, is never below it). A bin past the
// tail goes to the line, which moves to the tail when it is full or
// completes a span; a bin beyond the line's reach settles the line and
// grows the tail with NaN gaps. Either way full spans are sealed off the
// tail's front. A late write into a chunk an open left on disk reads it
// (decodeChunk); when that read fails the write is not made, the chunk
// is left as it is, and the read's error returned. The caller holds the
// owning shard's mutex.
func (s *Store) setBinLocked(e *seriesEntry, idx int, v float64) error {
	span := s.span
	sealed := e.sealedEnd(span)
	if idx < sealed {
		// Late write into sealed territory (an out-of-order measurement
		// older than the mutable tail): decode the owning chunk, patch
		// the bin, re-encode. Copy-on-write on the chunks slice — a
		// reader outside the shard lock may hold the current header.
		ci := idx/span - e.first
		p := s.spanBuf()
		scratch := *p
		if _, err := s.decodeChunk(e.chunks[ci], scratch, 0, span); err != nil {
			// Re-encoded over the NaN of a read that failed, the chunk
			// would lose what its segment still holds.
			s.spanScratch.Put(p)
			return err
		}
		scratch[idx%span] = v
		nc := chunk.Encode(scratch)
		s.spanScratch.Put(p)
		chunks := make([]*chunk.Chunk, len(e.chunks))
		copy(chunks, e.chunks)
		chunks[ci] = nc
		e.chunks = chunks
		return nil
	}
	ti := idx - sealed
	if ti < len(e.tail) {
		e.tail[ti] = v
		return nil
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
			return nil
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
	e.tail = s.sealLocked(e, tail)
	return nil
}

// appendRunLocked writes vs at e's next bins, from its end on: the line
// and the run go to the tail, sealed a span at a time, so the tail never
// holds more than a span. Recovery writes a key's consecutive replayed
// bins so. The caller holds the owning shard's mutex.
func (s *Store) appendRunLocked(e *seriesEntry, vs []float64) {
	tail := append(e.tail, e.pend[:e.npend]...)
	e.npend = 0
	for len(vs) > 0 {
		n := min(len(vs), s.span-len(tail))
		tail = s.sealLocked(e, append(tail, vs[:n]...))
		vs = vs[n:]
	}
	e.tail = tail
}

// sealLocked seals the full spans off the front of tail, e's unsealed
// bins with the line moved in, into e's chunks, and returns the rest,
// which the caller makes e's tail.
func (s *Store) sealLocked(e *seriesEntry, tail []float64) []float64 {
	span := s.span
	for len(tail) >= span {
		e.chunks = append(e.chunks, chunk.Encode(tail[:span]))
		n := copy(tail, tail[span:])
		tail = tail[:n]
	}
	return tail
}

// decodeChunks decodes positions [plo, phi) of chunks, laid end to end,
// into dst (of length phi−plo), outside any lock: sealed chunks are
// immutable. It reports whether any chunk's share came back as NaN
// because it is quarantined or its read failed (see decodeChunk).
func (s *Store) decodeChunks(chunks []*chunk.Chunk, plo, phi int, dst []float64) (degraded bool) {
	span := s.span
	for ci := plo / span; ci*span < phi; ci++ {
		clo, chi := max(plo-ci*span, 0), min(phi-ci*span, span)
		off := ci*span + clo - plo
		if nan, _ := s.decodeChunk(chunks[ci], dst[off:off+chi-clo], clo, chi); nan {
			degraded = true
		}
	}
	return degraded
}

// decodeChunk decodes values [lo, hi) of ck into dst and reports
// whether they came back as NaN: ck is quarantined, or its bytes could
// not be read this time (err). A chunk read back from disk is checked at
// its first decode (chunk.Check), and the one call that finds it bad
// counts it in monitor.quarantined_chunks; a read that fails leaves it
// unread for the next decode, and counts nothing.
func (s *Store) decodeChunk(ck *chunk.Chunk, dst []float64, lo, hi int) (nan bool, err error) {
	failed, err := ck.Check()
	if failed {
		s.quarantined.Add(1)
	}
	if err != nil {
		for i := range dst[:hi-lo] {
			dst[i] = math.NaN()
		}
		return true, err
	}
	ck.DecodeInto(dst, lo, hi)
	return ck.Quarantined(), nil
}

// spanBuf returns a span-sized scratch buffer from the pool. The caller
// puts the same pointer back, so a reused buffer allocates nothing.
func (s *Store) spanBuf() *[]float64 {
	if p, _ := s.spanScratch.Get().(*[]float64); p != nil && len(*p) == s.span {
		return p
	}
	buf := make([]float64, s.span)
	return &buf
}

// Append records a measurement, growing the key's series as needed
// (intermediate bins are NaN). A measurement the log and the wire cannot
// carry is dropped, as one before the epoch is: one whose scope is none
// of topo's three, whose entity or metric is over 65 535 bytes, or whose
// time is outside the Unix-nanosecond range (1677-09-21 to 2262-04-11
// UTC). A second measurement in the same bin overwrites the first
// (agents emit one sample per bin).
// Subscribers whose filter matches receive the measurement; a
// subscriber that has fallen behind by more than its buffer loses the
// oldest deliveries rather than blocking the ingest path.
func (s *Store) Append(m Measurement) {
	ms := [1]Measurement{m}
	s.AppendBatch(ms[:])
}

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
	lead := 0 // the batch's leading run on one shard
	for lead < len(g.idx) && g.idx[lead] == g.idx[0] {
		lead++
	}
	if lead == len(g.idx) && lead > 0 {
		// One shard, as for Append's one measurement or a store of one
		// stripe: the batch order is the order.
		for i := range g.order {
			g.order[i] = int32(i)
		}
		for si := int(g.idx[0]) + 1; si <= shards; si++ {
			offsets[si] = int32(len(g.order))
		}
		return offsets
	}
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

// batchTables pools AppendBatch's key handle tables so the in-process
// ingest path does not allocate per batch.
var batchTables = sync.Pool{New: func() any { return new(keyTable) }}

// AppendBatch records many measurements with Append's semantics each, as
// the ingest socket applies a frame (keyTable.apply): one clock read
// stamps the whole batch's arrival watermarks, each stripe is locked once
// over its share of the batch, a persistent store's log is written once,
// and measurements of one key keep their slice order.
func (s *Store) AppendBatch(ms []Measurement) {
	t := batchTables.Get().(*keyTable)
	t.s = s
	t.fill(ms)
	t.apply()
	batchTables.Put(t)
}

// keyTable is the store's one live write batch, and the key handle table
// of one ingest connection, of one AppendBatch call or of one shard of a
// log generation under replay. Whatever the source, a measurement is a
// record of its key's handle, its Unix-nanosecond timestamp and its
// value (frameRec), and apply writes them. A connection and a log read
// the same entries — an id batch frame's (wire.go) and a log record's
// (wal.go): a define, tag 0 and a measurement body, and a reference, an
// id and the body's last 16 bytes. A define builds its key's handle,
// which holds everything later measurements of that key need — the
// interned key, the shard that owns it, its series entry — and, while
// fewer than maxIDs are issued, gives it the next id, so the ids are
// handles[:issued] in define order and a reference is handles[id-1],
// no key bytes read. A connection issues maxKeyCacheEntries ids at
// most, as its publisher does, so a hostile publisher streaming unique
// keys cannot grow its table without bound: later defines get a handle
// that lives for one frame, stored after the issued ones. A log's table
// has no cap: every id names a series the writer held. An AppendBatch
// table issues none: each run of one key's consecutive measurements
// gets a handle for the batch (fill). Not safe for concurrent use.
//
// Invalidation: a handle's entry pointer is written and read only
// under the entry's shard lock, and an entry Prune took out of its shard
// is marked deleted there, so a handle resolves its key again rather
// than write into it; the deleted entry holds no bins.
type keyTable struct {
	s              *Store
	handles        []keyHandle
	issued, maxIDs int
	// defines counts the defines of the frame being applied.
	defines int64
	// recs is the batch scan or fill left to apply, grp its grouping by
	// shard.
	recs []frameRec
	grp  shardGrouping
}

// keyHandle is one key as a keyTable resolved it: the interned KPIKey,
// the shard that owns it, and its series entry there (nil until a
// measurement of this key is first applied).
type keyHandle struct {
	key   topo.KPIKey
	e     *seriesEntry
	shard uint8
}

// frameRec is one measurement left to apply: its key's handle, its
// Unix-nanosecond timestamp and its value.
type frameRec struct {
	handle int32
	nanos  int64
	v      float64
}

// decodeRec is the record of a measurement of handle h whose timestamp
// and value bits, the last 16 bytes of its body, start b.
func decodeRec(h int32, b []byte) frameRec {
	return frameRec{handle: h, nanos: int64(binary.BigEndian.Uint64(b)), v: math.Float64frombits(binary.BigEndian.Uint64(b[8:]))}
}

// newKeyTable returns an empty handle table for s that issues at most
// maxIDs ids.
func newKeyTable(s *Store, maxIDs int) *keyTable {
	return &keyTable{s: s, maxIDs: maxIDs}
}

// reset empties the table for the next log generation, whose ids start
// again from 1.
func (t *keyTable) reset() {
	clear(t.handles)
	t.handles, t.issued = t.handles[:0], 0
}

// scan validates up to max entries at the front of b — the entries of
// an id batch frame after its count, or a log record's payload — and
// records each for apply, resolving its key's handle. It returns how many
// entries it accepted and how many bytes they span, and the error that
// stopped it at a malformed one. Nothing touches the store.
func (t *keyTable) scan(b []byte, max int) (n, used int, err error) {
	clear(t.handles[t.issued:])
	t.handles = t.handles[:t.issued]
	t.recs = t.recs[:0]
	t.defines = 0
	for ; n < max && used < len(b); n++ {
		if b[used] == 0 {
			body := b[used+1:]
			metOff, keyEnd, err := measurementKeySpan(body)
			if err != nil {
				return n, used, err
			}
			if len(body) < keyEnd+16 {
				return n, used, fmt.Errorf("monitor: bad measurement tail length %d", len(body)-keyEnd)
			}
			key := keyFromSpan(body, metOff, keyEnd)
			t.recs = append(t.recs, decodeRec(int32(len(t.handles)), body[keyEnd:]))
			t.handles = append(t.handles, keyHandle{key: key, shard: uint8(t.s.shardIndex(key))})
			if t.issued < t.maxIDs {
				t.issued++
			}
			t.defines++
			used += 1 + keyEnd + 16
			continue
		}
		// Ids below 2^14, the first 16 383 keys, take one or two bytes;
		// decode those inline.
		var id uint64
		var w int
		switch c := b[used]; {
		case c < 0x80:
			id, w = uint64(c), 1
		case used+1 < len(b) && b[used+1] < 0x80:
			id, w = uint64(c&0x7f)|uint64(b[used+1])<<7, 2
		default:
			id, w = binary.Uvarint(b[used:])
		}
		switch {
		case w <= 0:
			return n, used, fmt.Errorf("monitor: bad key id")
		case id == 0 || id > uint64(t.issued):
			return n, used, fmt.Errorf("monitor: reference to key id %d, %d issued", id, t.issued)
		case len(b)-used-w < 16:
			return n, used, fmt.Errorf("monitor: bad reference length %d", len(b)-used)
		}
		used += w
		t.recs = append(t.recs, decodeRec(int32(id-1), b[used:]))
		used += 16
	}
	return n, used, nil
}

// fill records ms for apply, as AppendBatch's table: one handle for each
// run of one key's consecutive measurements, resolved once, and the
// measurements the log and the wire cannot carry dropped (see Append).
func (t *keyTable) fill(ms []Measurement) {
	t.handles, t.recs = t.handles[:0], t.recs[:0]
	for i := range ms {
		m := &ms[i]
		nanos, ok := unixNanos(m.T)
		if !ok || m.Key.Scope < topo.ScopeServer || m.Key.Scope > topo.ScopeService ||
			len(m.Key.Entity) > math.MaxUint16 || len(m.Key.Metric) > math.MaxUint16 {
			continue
		}
		if n := len(t.handles); n == 0 || t.handles[n-1].key != m.Key {
			t.handles = append(t.handles, keyHandle{key: m.Key, shard: uint8(t.s.shardIndex(m.Key))})
		}
		t.recs = append(t.recs, frameRec{handle: int32(len(t.handles) - 1), nanos: nanos, v: m.V})
	}
}

// unixNanos returns t as a Unix-nanosecond timestamp, the log's and the
// wire's, and false when t is outside the range one carries. Only a time
// in the first or last second of that range is compared with its bounds:
// the two comparisons on every measurement showed in a time-major
// AppendBatch's CPU profile.
func unixNanos(t time.Time) (int64, bool) {
	if sec := t.Unix(); sec < math.MinInt64/int64(time.Second) || sec >= math.MaxInt64/int64(time.Second) {
		if t.Before(time.Unix(0, math.MinInt64)) || t.After(time.Unix(0, math.MaxInt64)) {
			return 0, false
		}
	}
	return t.UnixNano(), true
}

// apply applies the records scan or fill left to the store, with
// Append's semantics per measurement and AppendBatch's per batch: one
// clock read, each shard locked once over its run of the batch (grouped
// by the handles' shards, no key re-hashed), the log written once,
// measurements of one key in batch order. A measurement before the
// epoch or the horizon is dropped.
func (t *keyTable) apply() {
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
	for si := range s.shards {
		if run := g.order[offsets[si]:offsets[si+1]]; len(run) > 0 {
			p, d, n, r := t.applyShard(&s.shards[si], run, now)
			pushes, drops, ingested, resolves = pushes+p, drops+d, ingested+n, resolves+r
		}
	}
	s.persist.flush()
	col := s.obs.Load()
	col.Add(obs.CtrIngested, ingested)
	col.Add(obs.CtrPushes, pushes)
	col.Add(obs.CtrPushDrops, drops)
	if resolves > 0 {
		col.Add(obs.CtrIngestKeyResolves, resolves)
	}
	if t.defines > 0 {
		col.Add(obs.CtrIngestKeyLookups, t.defines)
	}
}

// applyShard applies run, the records of shard sh, under sh's lock, and
// seals the shard's log record before it releases it. A panic on the way
// — a subscriber's filter, say — still seals the record, so the log
// stays framed, and releases the lock, so the store does not wedge.
func (t *keyTable) applyShard(sh *storeShard, run []int32, now int64) (pushes, drops, ingested, resolves int64) {
	s := t.s
	sh.mu.Lock()
	defer func() {
		if sh.wal != nil {
			sh.wal.sealLocked()
		}
		sh.mu.Unlock()
	}()
	horizon := int(s.horizon.Load())
	clk := s.clock
	for _, i := range run {
		r := &t.recs[i]
		idx, ok := clk.bin(r.nanos)
		if !ok || idx < horizon {
			continue
		}
		h := &t.handles[r.handle]
		if h.e == nil || h.e.deleted {
			h.e = s.entryLocked(sh, &h.key, horizon)
			resolves++
		}
		p, d := s.commitLocked(sh, h.e, &h.key, idx, r.nanos, r.v, now)
		pushes += p
		drops += d
		ingested++
	}
	return pushes, drops, ingested, resolves
}

// Series returns a copy of the key's series from its first kept bin —
// the store epoch unless a prune dropped chunks of it — through the last
// appended bin, and whether the key exists. Gaps are NaN; callers
// typically FillGaps before analysis.
func (s *Store) Series(key topo.KPIKey) (*timeseries.Series, bool) {
	vals, start, ok := s.rangeInto(key, time.Time{}, time.Time{}, nil, true)
	if !ok {
		return nil, false
	}
	return timeseries.New(start, s.step, vals), true
}

// RangeInto decodes the key's bins covering [from, to), clamped to the
// stored span — from its first kept bin to its last — into dst. It
// returns the window's values (aliasing dst's storage when its capacity
// suffices — steady-state callers reusing a buffer pay zero
// allocations), the clamped window's start time, and whether the window
// is non-empty; ok is false when the key is unknown or the clamped range
// is empty, with dst returned unread.
//
// This is the assessment hot path: only the sealed chunks overlapping
// the window are decoded, sealed chunks are shared by reference instead
// of copied (they are copy-on-write, so the slice captured under the
// shard lock stays valid), and the shard lock is released before any
// decoding happens — only the small mutable tail is copied under it.
func (s *Store) RangeInto(key topo.KPIKey, from, to time.Time, dst []float64) ([]float64, time.Time, bool) {
	return s.rangeInto(key, from, to, dst, false)
}

// rangeInto implements Series (all=true: the full span regardless of
// from/to, ok for any existing key) and RangeInto (all=false).
func (s *Store) rangeInto(key topo.KPIKey, from, to time.Time, dst []float64, all bool) ([]float64, time.Time, bool) {
	start := s.start
	span := s.span
	sh := s.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.series[key]
	if !ok {
		sh.mu.RUnlock()
		return dst, time.Time{}, false
	}
	base, sealed := e.first*span, e.sealedEnd(span)
	n := sealed + e.tailLen()
	lo, hi := base, n
	if !all {
		if from.After(start) {
			lo = max(lo, int(from.Sub(start)/s.step))
		}
		if end := start.Add(time.Duration(n) * s.step); to.Before(end) {
			hi = min(int(to.Sub(start)+s.step-1)/int(s.step), n)
		}
		if lo >= hi {
			sh.mu.RUnlock()
			return dst, time.Time{}, false
		}
	}
	m := hi - lo
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	chunks := e.chunks
	// Copy the window's share of the unsealed bins while still holding
	// the shard lock; the sealed chunks are immutable and decode after
	// release.
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
		if s.decodeChunks(chunks, lo-base, shi-base, dst[:shi-lo]) {
			// The window crossed a quarantined chunk, or one whose read
			// failed: its bins came back as NaN (explicit missing data),
			// and the read is counted so operators can tie Inconclusive
			// verdicts to the disk.
			s.degradedReads.Add(1)
		}
	}
	return dst, start.Add(time.Duration(lo) * s.step), true
}

// QuarantinedChunks returns the number of sealed chunks replaced by
// NaN tombstones after failing their on-disk checksum at open or their
// token walk at their first decode.
func (s *Store) QuarantinedChunks() int64 { return s.quarantined.Load() }

// ArrivalWatermark returns the node-local time the key's most recent
// measurement was ingested, and whether the key holds one. Series
// restored from a snapshot carry the restore time until their first
// live append re-stamps them. The assessment pipeline subtracts this
// from verdict emission time to get the end-to-end bin-to-verdict
// latency.
func (s *Store) ArrivalWatermark(key topo.KPIKey) (time.Time, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	var ns int64
	if e, ok := sh.series[key]; ok {
		ns = e.arrivalNanos
	}
	sh.mu.RUnlock()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// SeriesLen returns the index of the key's last stored bin plus one,
// and whether the key exists, without decoding or copying anything —
// the online assessor's per-tick readiness probe.
func (s *Store) SeriesLen(key topo.KPIKey) (int, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.series[key]
	n := 0
	if ok {
		n = e.end(s.span)
	}
	sh.mu.RUnlock()
	return n, ok
}

// Keys returns every stored KPI key, in unspecified order.
func (s *Store) Keys() []topo.KPIKey {
	out := make([]topo.KPIKey, 0, s.Len())
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

// Len returns the number of stored series.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// Prune raises the horizon to the bin holding before and drops what lies
// wholly below it: every sealed chunk whose bins all do, and every
// series whose last bin does. It never cuts inside a chunk, a tail or
// the line, and it never moves the epoch, so every bin index handed out
// before it stays good. Writes below the horizon are dropped from then
// on, as writes before the epoch are. Pruning to a time at or below the
// current horizon is a no-op. On a persistent store a prune schedules a
// compaction, which records the horizon, so the dropped bins also leave
// the on-disk logs.
func (s *Store) Prune(before time.Time) {
	h, ok := binAt(s.start, s.step, before)
	for old := s.horizon.Load(); ; old = s.horizon.Load() {
		if !ok || int64(h) <= old {
			return
		}
		if s.horizon.CompareAndSwap(old, int64(h)) {
			break
		}
	}
	span := s.span
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, e := range sh.series {
			if e.end(span) <= h {
				delete(sh.series, key)
				e.deleted, e.chunks, e.tail, e.npend = true, nil, nil, 0
				continue
			}
			if drop := min(h/span-e.first, len(e.chunks)); drop > 0 {
				// A fresh slice, so the dropped chunks leave the backing
				// array a reader may still hold, and can be collected.
				kept := make([]*chunk.Chunk, len(e.chunks)-drop)
				copy(kept, e.chunks[drop:])
				e.chunks, e.first = kept, e.first+drop
			}
		}
		sh.mu.Unlock()
	}
	if p := s.persist; p != nil {
		p.requestCompact()
	}
}

// Stats summarizes a store for introspection and capacity planning.
type Stats struct {
	// SeriesCount is the number of distinct KPI series.
	SeriesCount int
	// Bins is the total number of stored bins across all series, from
	// each one's first kept bin, sealed and mutable alike.
	Bins int
	// ApproxBytes estimates the resident size of the stored values:
	// the encoded bytes of sealed chunks plus 8 bytes per mutable tail
	// bin (excluding map and key overhead).
	ApproxBytes int64
	// CompressedBytes is the encoded size of all sealed chunks.
	CompressedBytes int64
	// Chunks is the number of sealed chunks across all series.
	Chunks int
	// QuarantinedChunks is how many of them are tombstones (all their
	// bins read as NaN): checksum failures at open, and chunks whose
	// token walk failed at a decode so far.
	QuarantinedChunks int
	// TailBins is the number of mutable (uncompressed) tail bins.
	TailBins int
	// Start is the store epoch, bin 0; LastBin is the highest bin any
	// series holds, −1 for an empty store.
	Start   time.Time
	LastBin int
}

// Stats returns a snapshot of the store's size.
func (s *Store) Stats() Stats {
	st := Stats{Start: s.start, LastBin: -1}
	span := s.span
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.SeriesCount += len(sh.series)
		for _, e := range sh.series {
			n := e.end(span)
			st.Bins += n - e.first*span
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
	from := 0
	if since.After(s.start) {
		from = int(since.Sub(s.start) / s.step)
	}
	// A series' sealed bins replayed: its chunks start at bin base, and
	// bins [lo, hi) are replayed.
	type sealedRun struct {
		key          topo.KPIKey
		chunks       []*chunk.Chunk
		base, lo, hi int
	}
	var runs []sealedRun
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
			n, lo := e.end(span), max(from, e.first*span)
			if lo >= n {
				continue
			}
			// The unsealed bins are copied under the shard lock; the sealed
			// chunks are immutable and decode after release, as RangeInto's
			// do — a chunk an open left on disk is read there.
			sealed := e.sealedEnd(span)
			if lo < sealed {
				runs = append(runs, sealedRun{key: key, chunks: e.chunks, base: e.first * span, lo: lo, hi: sealed})
			}
			tlo := max(lo, sealed)
			buf = slices.Grow(buf[:0], n-tlo)[:n-tlo]
			e.copyTail(buf, tlo-sealed, n-sealed)
			out = s.appendReplay(out, key, tlo, buf, since)
		}
		sh.mu.RUnlock()
	}
	for _, r := range runs {
		// Replay is a cold path (subscriber reconnect): decode the whole
		// replayed run into a reused scratch buffer.
		buf = slices.Grow(buf[:0], r.hi-r.lo)[:r.hi-r.lo]
		s.decodeChunks(r.chunks, r.lo-r.base, r.hi-r.base, buf)
		out = s.appendReplay(out, r.key, r.lo, buf, since)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out
}

// appendReplay appends to out key's measurements vals, the first at bin
// lo, skipping NaN and those before since.
func (s *Store) appendReplay(out []Measurement, key topo.KPIKey, lo int, vals []float64, since time.Time) []Measurement {
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		t := s.start.Add(time.Duration(lo+i) * s.step)
		if t.Before(since) {
			continue
		}
		out = append(out, Measurement{Key: key, T: t, V: v})
	}
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
// filter (nil matches everything). A delivered measurement's T is the
// UTC instant of its Unix-nanosecond timestamp, whether it came by
// Append, AppendBatch or the ingest socket. buffer is the channel
// capacity (min 1). Cancel releases the subscription and returns the
// number of measurements this subscription lost to a full buffer — slow
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
