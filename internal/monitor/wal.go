package monitor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Write-ahead persistence: a Store opened with OpenPersistent logs
// every stored measurement to one append-only file before the ingest
// path returns, and compacts the log into the segment store (see
// snapshot.go) once the log has grown to the head file's size (and to
// CompactBytes). A crashed funnelserve reopens the directory and
// replays head, segments and logs back to the exact pre-crash store;
// composed with the subscribe-since watermarks (frame 0x03) downstream
// consumers resume with no loss end to end.
//
// On-disk layout inside the data directory (flat):
//
//	head.fnlh      — the installed head: epoch, horizon, live segment
//	  list, and per series its key, first chunk, chunk count and
//	  unsealed bins (written atomically via rename from head.tmp)
//	seg-<seq>.fnlc — an immutable segment of sealed chunks
//	wal-<gen>.log  — the log, one numbered generation per open and per
//	  rotation; the highest generation is the live one
//
// The invariant: the head and its live segments, plus every generation
// on disk replayed in ascending order, is the store. Nothing is ever
// renamed or overwritten to keep it but the head — an open and a
// rotation both start generation live+1 beside what is there, a
// segment is written once under a fresh number, and a generation or a
// segment is deleted only after a head that no longer needs it has been
// installed.
//
// Compaction stops the world for a cut, not a rewrite. Under every
// shard lock it rotates the log and captures an immutable image of the
// store — per series the key, the sealed chunks' slice header as it
// stands, the one the live segments hold, and a copy of the unsealed
// bins (see snapshotCut) — and it sorts, encodes, writes and fsyncs the
// new segment and head with no shard lock held. Sealed chunks are
// immutable and a published chunks slice is never written in place, so
// the image stays valid while appends go on into the fresh generation.
// Before it takes the locks it fsyncs the live log and sizes the cut's
// buffers, so the fsync that retires the log under them waits only on
// what arrived since, and the copy allocates nothing. A compaction
// writes only the chunks sealed or rebuilt since the last one (plus
// what its binary-counter merge absorbs) and a head that holds no
// sealed chunk, so its cost follows the data that arrived, not the
// history held. It is due once the log not yet compacted reaches
// max(CompactBytes, size of the installed head): an open then replays
// at most that much log whatever the history length. The retired log
// stops counting at the rotation, and the cut meets any request queued
// before it, so appends during a compaction's write do not ask for
// another.
//
// A log starts with a header:
//
//	magic "FNLW" | version uint16 | startUnixNano int64 |
//	stepNanos int64
//
// followed by records:
//
//	payloadLen uint32 | shard byte | payload | crc32(shard ‖ payload) uint32
//
// where shard is the lock stripe, of the layout that wrote the
// generation, the payload's measurements all belong to, and the payload
// is one or more entries, one per measurement (version 3):
//
//	define:    0 | scope byte | entity | metric | unixNano int64 | value float64
//	reference: uvarint(id ≥ 1) | unixNano int64 | value float64
//
// A define is tag 0 followed by the measurement body exactly as an id
// batch frame's define carries it (absolute timestamps, binned against
// the store's fixed epoch at replay), written from the series' key whichever
// path the measurement came by. It gives its series the shard's next id
// in this generation — 1, 2, … in log order — and every later
// measurement of the series in the generation is a reference: the id,
// then the body's last 16 bytes.
// Ids are per (generation, shard byte), so a key goes to disk once per
// generation and a generation replays on its own; they restart where a
// rotation (or an open) starts a generation with every shard lock held
// (openGenerationLocked), and a series entry keeps its id beside the
// generation that issued it (seriesEntry.walGen). The measurements one
// append, batch or socket frame brings to a shard share one group
// record — one length prefix, one CRC. Version 3 is the one version
// written and read: an open refuses a version 2 log (wire bodies, keys
// and all) and names the last build that replays it.
//
// The prefix invariant: within a generation, the bytes on disk are a
// prefix of the sequence of sealed records. A write that fails, or a
// rotation that leaves no live log, puts the persister out of the
// healthy state, and from then on nothing more is written to that
// generation — only a rotation under every shard lock, which starts
// the next generation and its ids afresh, makes it healthy again. So a
// define that was sealed and dropped can never be referenced by a
// record that reaches the disk: a series' first measurement after the
// rotation defines it again.
//
// Group commit and log order. A shard's run is sealed into the
// persister's one buffer while the shard's lock is still held, so the
// records of a shard — hence of a key — sit in the buffer, and then in
// the file, in the order they were applied to memory, whichever
// connection applied them. Every write — an AppendBatch (Append is one
// of one) or a socket frame, both through keyTable.apply — writes the
// buffer out with exactly one Write before it returns, taking along
// whatever other writers sealed in the meantime: acknowledged means
// written to the OS, so a process kill cannot lose an acknowledged
// measurement. (A bin can be read from memory for the microseconds
// between its shard's unlock and that write, as a subscriber has always
// received it before the write.) Durability against machine crashes
// comes from the periodic fsync pass, which waits on the disk with no
// shard lock held.
//
// Recovery order is the head — each sealed chunk left in its segment
// until its first decode — then the generations found, oldest first, in
// one pass (recoverDir; recover.go has its reader and worker pool), so a (key, bin) present in two generations
// ends up with the newer one's value. A generation's records replay in
// file order through a table per shard byte whose handles are the
// generation's ids in define order, so a reference is an array index
// (keyTable, the one the ingest socket keeps per connection). The first
// bad record ends the generation: a short read, a length outside (0,
// maxWALRecord] or a CRC mismatch — all a process kill can do to an
// append-only file is tear its final record, and nothing past a record
// that cannot be trusted can be framed. Everything before it replays,
// the rest of the file is left unread, and TornTails counts it: at most
// one per generation. (A record whose CRC holds and whose entry does not
// decode — a define with a bad key or short tail, a reference cut short
// or to an id not yet defined — is nothing a crash or the disk can
// produce, and its framing stands: the entries before the bad one are
// applied and the later records of that shard, as of a shard log
// before, are not — also counted in TornTails.) Without a head the
// store's epoch comes from the first generation with a header. Replay
// drops a record below the head's horizon, as a live write is dropped.
// It is idempotent: the store overwrites by (key, bin), so records
// already captured in the head and segments (a compaction that crashed
// between the head's rename and the deletion of the generations it
// covered) change nothing.
//
// Recovery reads; it does not rewrite. After replay the store removes
// the segment files the head does not list (a compaction that died
// before its head's rename left them), attaches a fresh generation,
// fsyncs the directory once and is open — the generations it replayed
// stay where they are until the next compaction, which an open that
// found more than one of them (a crash loop), or a log due by the rule
// above, asks the background loop for. A generation replays the same
// under any shard count: reopening 16 → 4 → 16 leaves three files whose
// shard bytes run to 16, 4 and 16.
//
// Disk faults are classified, not latched blindly. A transient failure
// (ENOSPC, EINTR, EAGAIN, or an injected faultfs error) puts the
// persister into the degraded state: WAL writes stop (the broken log
// cannot be trusted), the store stays fully usable in memory, and a
// background loop retries with exponential backoff until it re-arms
// durability — leave the damaged generation behind, start a fresh one,
// and write a head and a segment from in-memory state, after which the
// store is durable again with no restart. Anything else (a programming
// error, a crash-schedule horizon) is permanent: the first such error
// latches, persistence fail-stops, and only the in-memory store keeps
// serving.
const (
	walMagic   = "FNLW"
	walVersion = 3

	walPrefix = "wal-"
	walSuffix = ".log"
)

// walHeaderLen is the size of a log's header.
const walHeaderLen = len(walMagic) + 2 + 8 + 8

// walName is the one naming rule for logs.
func walName(gen uint64) string {
	return fmt.Sprintf("%s%d%s", walPrefix, gen, walSuffix)
}

// DefaultCompactBytes is the floor of the compaction trigger: the logs
// not yet compacted are folded into the segment store once they reach
// this size and the installed head's.
const DefaultCompactBytes = 64 << 20

// DefaultSyncInterval is the background fsync cadence for the log.
// Between fsyncs, records are already in the OS page cache (flushed on
// every append/batch), so a process kill loses nothing; the interval
// only bounds loss on a whole-machine crash.
const DefaultSyncInterval = time.Second

// PersistState is the durability health of a persistent store.
type PersistState int32

const (
	// PersistHealthy: WALs live, head current; every acknowledged
	// append is durable.
	PersistHealthy PersistState = iota
	// PersistDegraded: a transient disk fault stopped WAL writes; the
	// store serves from memory while the background loop retries a
	// durability re-arm (fresh logs, head and segment).
	PersistDegraded
	// PersistFailed: a permanent disk error latched; persistence is
	// fail-stopped until restart, memory keeps serving.
	PersistFailed
)

// String names the state for logs and dashboards.
func (s PersistState) String() string {
	switch s {
	case PersistHealthy:
		return "healthy"
	case PersistDegraded:
		return "degraded"
	case PersistFailed:
		return "failed"
	default:
		return fmt.Sprintf("PersistState(%d)", int32(s))
	}
}

// PersistOptions tunes OpenPersistent. The zero value takes the
// documented defaults.
type PersistOptions struct {
	// Shards is the store's lock-stripe count (default StoreShards).
	Shards int
	// CompactBytes is the floor of the background compaction trigger:
	// one runs once the logs not yet compacted — replayed at open or
	// written since — reach both it and the installed head's size
	// (default DefaultCompactBytes; negative disables automatic
	// compaction — Compact can still be called).
	CompactBytes int64
	// SyncInterval is the background fsync cadence (default
	// DefaultSyncInterval; negative disables the background pass —
	// Sync can still be called).
	SyncInterval time.Duration
	// ChunkSpan is the sealed-chunk width in bins (default
	// chunk.DefaultSpan). It applies to directories without a head; a
	// head keeps the span it was written with.
	ChunkSpan int
	// FS is the filesystem the persister talks to (default the real
	// OS). Tests substitute a faultfs.FaultFS to inject disk faults
	// and crash schedules.
	FS faultfs.FS
	// RearmBackoff paces durability re-arm attempts after a transient
	// disk fault (zero value = the reconnect defaults: 100ms initial,
	// 5s cap, ×2 growth, 20% jitter, unlimited attempts). A bounded
	// MaxAttempts converts an episode that never clears into a
	// permanent failure.
	RearmBackoff Backoff
}

// withDefaults resolves the zero-value conventions.
func (o PersistOptions) withDefaults() PersistOptions {
	if o.Shards == 0 {
		o.Shards = StoreShards
	}
	if o.ChunkSpan == 0 {
		o.ChunkSpan = chunk.DefaultSpan
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = DefaultCompactBytes
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	return o
}

// RecoveryStats reports what OpenPersistent rebuilt from disk.
type RecoveryStats struct {
	// SnapshotSeries is the number of series loaded from the head.
	SnapshotSeries int
	// WALRecords is the number of logged measurements replayed on top
	// of it.
	WALRecords int
	// TornTails is the number of generations whose replay ended at a bad
	// record — torn by the crash, as a rule — with the rest of the file
	// left unread (earlier records still replay); at most one each, but
	// for the shards an undecodable body in a CRC-valid record ended.
	TornTails int
	// QuarantinedChunks is the number of sealed chunks the open found
	// bad: the head's tombstones, the chunks whose index entry lies
	// outside their segment, and for a version 2 head a stored CRC that
	// failed or a chunk no live segment holds; each is a NaN tombstone
	// instead of an aborted recovery. A chunk's bytes are read, checked
	// against their CRC and token-walked at its first decode, and a
	// failure there adds to monitor.quarantined_chunks only.
	QuarantinedChunks int
	// Generations is the number of log generations found and replayed:
	// one after a clean shutdown or a single crash, more when the store
	// keeps dying before it compacts.
	Generations int
	// LogBytes is the size of the records replayed from them, the log
	// the next compaction has to fold into the segment store.
	LogBytes int64
	// SnapshotTime, ReplayTime and AttachTime partition the open's wall
	// time. Recovery is one pass whose reader streams the head and then
	// the logs to one worker pool (see recover.go), so the phases overlap
	// in the workers: SnapshotTime lasts until the reader has handed out
	// the head's last series, ReplayTime from then until
	// the last worker has drained, and AttachTime is attaching a fresh
	// generation. The store is blind to arriving bins for their sum.
	SnapshotTime, ReplayTime, AttachTime time.Duration
}

// Total is the wall time OpenPersistent spent rebuilding the store.
func (r RecoveryStats) Total() time.Duration {
	return r.SnapshotTime + r.ReplayTime + r.AttachTime
}

// persister owns the on-disk state of a persistent store: the live
// log, the head and segments, and the background sync/compact/re-arm
// goroutine.
type persister struct {
	dir   string
	opts  PersistOptions
	fs    faultfs.FS
	store *Store

	// gen is the live generation's number; compactMu guards it, and which
	// file logMu's f names, once the store is open.
	gen uint64
	// walBytes is the log bytes not yet compacted: replayed at open or
	// written since, less what each compaction covered (taken off at its
	// rotation, given back if its install fails).
	walBytes atomic.Int64
	// headBytes is the size of the installed head, snapBytes its and the
	// live segments': read at open, then what each compaction left. The
	// log is compacted once it has grown as large as the head (see
	// compactDue).
	headBytes, snapBytes atomic.Int64
	// state is the durability health (a PersistState); the WAL write
	// path gates on it with one atomic load per append.
	state atomic.Int32
	// firstErr latches the first permanent disk error.
	firstErr atomic.Pointer[error]
	// degradedErr records the transient error that opened the current
	// (or latest) degraded episode, for Sync/Compact callers.
	degradedErr atomic.Pointer[error]

	// logMu guards the live log: its file (nil once closed, or when a
	// rotation could not start the next generation), the sealed records
	// not yet written to it, how many measurements and key defines those
	// hold, and the two figures behind the log gauges. Lock order:
	// shard.mu → logMu.
	logMu          sync.Mutex
	f              faultfs.File
	buf            []byte
	pending        int64
	pendingDefines int64
	logBytes       int64 // record bytes in the live log
	rotations      int64

	compactMu sync.Mutex  // one compaction/re-arm/fsync pass at a time
	cut       snapshotCut // the compactions' image of the store
	// segs are the segments the open found live, which the chunks it
	// left on disk read from: open until close, whatever compactions
	// merge or delete.
	segs []*segmentFile
	// live is the installed head's segment list, oldest first, and
	// nextSeq the number the next segment takes. compactMu guards the cut
	// and these.
	live       []segmentRef
	nextSeq    uint64
	compactReq chan struct{}
	rearmReq   chan struct{}
	quit       chan struct{}
	done       chan struct{}
	closeOnce  sync.Once
	closeErr   error

	recovered RecoveryStats
}

// logger returns the persister's component logger (discard when no
// slog hub is installed).
func (p *persister) logger() *slog.Logger {
	return p.store.obs.Load().Logger("persist")
}

// shardWAL is one shard's group record in progress: its shard byte and
// the entries the current run has logged and not yet sealed into the
// persister's buffer, and the shard's ids in the live generation. All
// methods suffixed Locked require the owning shard's mutex.
type shardWAL struct {
	p *persister
	// rec is the record from its shard byte on, the part the CRC covers;
	// rec[1:] is the payload so far.
	rec []byte
	// appends counts the measurements in rec, defines the keys it
	// defines, for telemetry.
	appends, defines int64
	// gen is the live generation, as it stamps the ids a series entry
	// holds (seriesEntry.walGen), and next the id the shard's next define
	// takes. Both are reset by openGenerationLocked, whose caller holds
	// every shard lock.
	gen, next uint32
}

// walGroupCap bounds one group record's payload; a run that outgrows
// it is sealed and a fresh record started, keeping records well under
// the replay side's length sanity cap.
const walGroupCap = 32 << 10

// maxWALRecord is the replay-side length sanity cap: a record may
// overshoot walGroupCap by at most one maximal entry, a define — tag and
// measurement body (direct Append callers are not bound by the wire
// frame cap).
const maxWALRecord = walGroupCap + 1 + 1 + 2 + 65535 + 2 + 65535 + 16

// walRecordOverhead is what a record adds to its payload: length word,
// shard byte, CRC.
const walRecordOverhead = 4 + 1 + 4

// transientDiskError classifies disk failures the persister can heal
// from: out-of-space episodes that an operator (or a log rotation)
// clears, interrupted syscalls, and the injected transient faults of
// the faultfs test harness.
func transientDiskError(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) || errors.Is(err, faultfs.ErrInjected)
}

// fail routes a disk error to its class: transient errors open a
// degraded episode that the background loop heals; anything else
// latches and fail-stops persistence. Either way the store keeps
// serving from memory.
func (p *persister) fail(err error) {
	if err == nil {
		return
	}
	p.store.obs.Load().Add(obs.CtrDiskErrors, 1)
	if transientDiskError(err) {
		p.degradedErr.Store(&err)
		if p.state.CompareAndSwap(int32(PersistHealthy), int32(PersistDegraded)) {
			// First error of the episode: this is where the operator
			// learns durability stopped, not when someone later calls
			// Sync or Compact.
			p.store.obs.Load().Add(obs.CtrPersistErrors, 1)
			p.logger().Warn("transient disk fault: persistence degraded, re-arm scheduled",
				"err", err, "dir", p.dir)
			p.requestRearm()
		}
		return
	}
	if p.firstErr.CompareAndSwap(nil, &err) {
		p.state.Store(int32(PersistFailed))
		p.store.obs.Load().Add(obs.CtrPersistErrors, 1)
		p.logger().Error("permanent disk fault: persistence fail-stopped, store continues in memory",
			"err", err, "dir", p.dir)
	}
}

// err returns the latched permanent disk error, if any.
func (p *persister) err() error {
	if e := p.firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// stateErr resolves the persister's health into an error for
// Sync/Compact callers: nil when healthy, the latched error when
// failed, the episode's trigger when degraded.
func (p *persister) stateErr() error {
	switch PersistState(p.state.Load()) {
	case PersistHealthy:
		return nil
	case PersistFailed:
		return p.err()
	default:
		if e := p.degradedErr.Load(); e != nil {
			return fmt.Errorf("monitor: persistence degraded (re-arm pending): %w", *e)
		}
		return errors.New("monitor: persistence degraded (re-arm pending)")
	}
}

// healthy reports whether the WAL write path is live. One atomic load;
// the append hot path calls it per measurement.
func (p *persister) healthy() bool {
	return p.state.Load() == int32(PersistHealthy)
}

// appendLocked adds the entry of one measurement of e, key's series, to
// the group record in progress. The series' first in this generation is
// a define: tag 0, then the key as a measurement body frames it
// (appendKey), timestamp and value — the wire's define and the log's
// share the encoding; it gives e the shard's next id. Every later one is
// a reference: the id, then timestamp and value. The record is sealed by
// the caller before it releases the shard (or when it outgrows
// walGroupCap), so measurements from one batch share a single length
// prefix and CRC. While degraded or failed the append is skipped: the
// damaged log cannot be trusted, and the re-arm's head and segment (or the
// operator's restart) re-covers memory wholesale.
func (w *shardWAL) appendLocked(e *seriesEntry, key *topo.KPIKey, nanos int64, v float64) {
	if !w.p.healthy() {
		return
	}
	if e.walGen == w.gen {
		w.rec = binary.AppendUvarint(w.rec, uint64(e.walID))
	} else {
		rec, err := appendKey(append(w.rec, 0), *key)
		if err != nil {
			// No such key reaches the store: the wire cannot frame it, and
			// AppendBatch drops it (keyTable.fill).
			w.p.fail(err)
			return
		}
		w.rec = rec
		e.walGen, e.walID = w.gen, w.next
		w.next++
		w.defines++
	}
	w.rec = binary.BigEndian.AppendUint64(w.rec, uint64(nanos))
	w.rec = binary.BigEndian.AppendUint64(w.rec, math.Float64bits(v))
	w.appends++
	if len(w.rec) > walGroupCap {
		w.sealLocked()
	}
}

// sealLocked seals the pending group record — length prefix, shard
// byte, payload, CRC — into the persister's buffer. Every writer calls
// it before releasing the shard, which is what puts a shard's records
// in the log in the order they were applied (see the header).
func (w *shardWAL) sealLocked() {
	if len(w.rec) > 1 && w.p.healthy() {
		crc := crc32.ChecksumIEEE(w.rec)
		p := w.p
		p.logMu.Lock()
		p.buf = binary.BigEndian.AppendUint32(p.buf, uint32(len(w.rec)-1))
		p.buf = append(p.buf, w.rec...)
		p.buf = binary.BigEndian.AppendUint32(p.buf, crc)
		p.pending += w.appends
		p.pendingDefines += w.defines
		p.logMu.Unlock()
	}
	w.rec, w.appends, w.defines = w.rec[:1], 0, 0
}

// flush pushes the sealed records to the OS with one write — the
// caller's own and whatever other writers sealed since the last flush —
// so a process kill cannot lose an acknowledged measurement. Writers
// call it after releasing their shards, before they return; on an
// in-memory store (a nil persister) it is a no-op.
func (p *persister) flush() {
	if p == nil {
		return
	}
	p.logMu.Lock()
	p.flushLocked() // a failure is the persister's state from here on
	p.logMu.Unlock()
	if p.compactDue() {
		p.requestCompact()
	}
}

// compactDue reports whether the log not yet compacted has grown to the
// CompactBytes floor and to the size of the installed head. A compaction
// writes the head whole, so it then rewrites no more of it than the log
// it retires, and replay at open is bounded by the larger of the two,
// whatever the history the segments hold.
func (p *persister) compactDue() bool {
	return p.opts.CompactBytes > 0 && p.walBytes.Load() >= max(p.opts.CompactBytes, p.headBytes.Load())
}

// flushLocked is flush for a caller that holds logMu; a failed write is
// also returned. Records sealed around a fault, or around a rotation
// that left no live log, are dropped: memory holds them, and the head
// and segment that re-arm durability cover memory. Nothing more reaches
// the generation after a drop (the prefix invariant, see the header).
func (p *persister) flushLocked() error {
	if len(p.buf) == 0 {
		return nil
	}
	var err error
	if p.f != nil && p.healthy() {
		if _, err = p.f.Write(p.buf); err != nil {
			p.fail(err)
		} else {
			p.walBytes.Add(int64(len(p.buf)))
			p.logBytes += int64(len(p.buf))
			col := p.store.obs.Load()
			col.Add(obs.CtrWALAppends, p.pending)
			col.Add(obs.CtrWALKeyDefines, p.pendingDefines)
		}
	}
	p.buf, p.pending, p.pendingDefines = p.buf[:0], 0, 0
	return err
}

// closeLogLocked writes out what is sealed, fsyncs and closes the live
// log, if there is one; the caller holds logMu. A discard only closes
// it — the re-arm path calls that on a log already known to be damaged.
func (p *persister) closeLogLocked(discard bool) error {
	f := p.f
	if f == nil {
		return nil
	}
	if discard {
		p.buf, p.pending, p.pendingDefines = p.buf[:0], 0, 0
		p.f = nil
		f.Close()
		return nil
	}
	err := p.flushLocked()
	p.f = nil
	if syncErr := f.Sync(); err == nil {
		err = syncErr
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	return err
}

// openGenerationLocked starts generation gen+1: a fresh log with its
// header, beside whatever is on disk, and fresh ids — a series' next
// measurement defines its key again, whether or not the file could be
// started. The caller holds logMu and either every shard lock or a store
// it has not yet published, so no shard has a record in progress.
func (p *persister) openGenerationLocked() error {
	s := p.store
	p.gen++
	for i := range s.shards {
		if w := s.shards[i].wal; w != nil {
			w.gen, w.next = uint32(p.gen), 1
		}
	}
	f, err := p.fs.Create(filepath.Join(p.dir, walName(p.gen)))
	if err != nil {
		return err
	}
	hdr := append(make([]byte, 0, walHeaderLen), walMagic...)
	hdr = binary.BigEndian.AppendUint16(hdr, walVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(s.start.UnixNano()))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(s.step))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	p.f, p.logBytes = f, 0
	return nil
}

// OpenPersistent opens (or creates) a persistent store backed by dir.
// An existing directory is recovered: the head and its segments first,
// then the log generations found (oldest first), each up to its first
// bad record. What was read stays on disk as it is — the open attaches a
// fresh generation beside it and leaves folding the rest into the
// segment store to the next compaction. A directory holding a version 3
// snapshot.fnls is refused. start and step apply only to a fresh directory;
// recovered state keeps its own epoch, and a non-zero step that
// contradicts the recovered one is an error. The store must be released
// with Close.
//
// The directory must be usable at open time: a missing parent or an
// unwritable directory fails here, loudly, instead of degrading into a
// silently memory-only store.
func OpenPersistent(dir string, start time.Time, step time.Duration, opts PersistOptions) (*Store, error) {
	opts = opts.withDefaults()
	p := &persister{
		dir:        dir,
		opts:       opts,
		fs:         opts.FS,
		compactReq: make(chan struct{}, 1),
		rearmReq:   make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}

	// Fail fast on an unusable data directory. Requiring the parent to
	// exist catches a mistyped path (-data /mnt/fnl/data against an
	// unmounted /mnt) that MkdirAll would happily deep-create on the
	// root filesystem; the probe write catches read-only mounts and
	// permission walls before any ingest is accepted.
	if parent := filepath.Dir(filepath.Clean(dir)); parent != "." && parent != string(filepath.Separator) {
		if _, err := p.fs.ReadDir(parent); err != nil {
			return nil, fmt.Errorf("monitor: data directory parent unusable: %w", err)
		}
	}
	if err := p.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("monitor: creating data directory: %w", err)
	}
	probePath := filepath.Join(dir, ".fnls-probe")
	probe, err := p.fs.Create(probePath)
	if err != nil {
		return nil, fmt.Errorf("monitor: data directory not writable: %w", err)
	}
	_, werr := probe.Write([]byte{0})
	cerr := probe.Close()
	p.fs.Remove(probePath)
	if werr != nil {
		return nil, fmt.Errorf("monitor: data directory not writable: %w", werr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("monitor: data directory not writable: %w", cerr)
	}

	// A compaction that died between creating head.tmp and renaming it
	// left a file no recovery reads, and no compaction is due here to
	// overwrite it.
	p.fs.Remove(filepath.Join(dir, headTmpFile))

	// Recovery: the head, the segments and the logs, in one pass (see
	// recover.go).
	rc, err := recoverDir(p.fs, dir, opts.Shards, opts.ChunkSpan, false)
	if err != nil {
		return nil, err
	}
	// The store's unread chunks read from the live segments (see
	// segmentFile): they stay open until Close.
	p.segs = rc.segs
	opened := false
	defer func() {
		if !opened {
			rc.closeSegments()
		}
	}()
	for _, g := range rc.gens {
		if g.err != nil {
			return nil, g.err
		}
	}
	// A segment the head does not list is a compaction's that died before
	// its head was installed: nothing reads it. Removing it is best-effort;
	// the next compaction tries again.
	removeStale(p.fs, dir, rc.live, 0)
	store := rc.store
	if store == nil {
		// Nothing on disk at all: a fresh directory.
		store = NewStoreShards(start, step, opts.Shards)
		store.span = opts.ChunkSpan
	}
	if step > 0 && store.step != step {
		return nil, fmt.Errorf("monitor: step mismatch: store has %v, caller wants %v", store.step, step)
	}
	p.recovered = rc.stats
	p.headBytes.Store(rc.headBytes)
	p.snapBytes.Store(rc.snapBytes)
	p.live, p.nextSeq = rc.live, rc.maxSeq+1
	if p.recovered.QuarantinedChunks > 0 {
		store.quarantined.Add(int64(p.recovered.QuarantinedChunks))
	}
	gens := rc.gens

	// Phase 3: attach a fresh generation above the ones replayed. They
	// stay on disk, and count towards the next compaction, until one
	// covers them.
	phase := time.Now()
	store.persist = p
	p.store = store
	if len(gens) > 0 {
		p.gen = gens[len(gens)-1].gen
	}
	p.walBytes.Store(p.recovered.LogBytes)
	for i := range store.shards {
		store.shards[i].wal = &shardWAL{p: p, rec: []byte{byte(i)}}
	}
	p.logMu.Lock()
	err = p.openGenerationLocked()
	p.logMu.Unlock()
	if err == nil {
		err = syncFSDir(p.fs, dir)
	}
	if err != nil {
		p.discardLog()
		return nil, err
	}
	p.recovered.AttachTime = time.Since(phase)

	if p.compactDue() || opts.CompactBytes > 0 && len(gens) > 1 {
		p.requestCompact()
	}
	opened = true
	go p.run()
	return store, nil
}

// walGeneration is one log on disk.
type walGeneration struct {
	gen  uint64
	path string
}

// listWALs returns the log generations in dir, oldest first (see
// scanDir).
func listWALs(fsys faultfs.FS, dir string) ([]walGeneration, error) {
	d, err := scanDir(fsys, dir)
	return d.gens, err
}

// walHeader is what a log's header says: the epoch of the store that
// wrote it and the format of its records.
type walHeader struct {
	start   time.Time
	step    time.Duration
	version uint16
}

// errWALVersion marks a log whose header names a version this build
// does not read. Its records are intact but unread, so Fsck must not
// repair them away.
var errWALVersion = errors.New("monitor: unsupported WAL version")

// readWALHeader consumes a log's header from r. ok is false for a log
// killed before its header write: empty, nothing to replay.
func readWALHeader(r io.Reader, path string) (hdr walHeader, ok bool, err error) {
	var b [walHeaderLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return walHeader{}, false, nil
		}
		return walHeader{}, false, err
	}
	if string(b[:len(walMagic)]) != walMagic {
		return walHeader{}, false, fmt.Errorf("monitor: bad WAL magic in %s", path)
	}
	switch hdr.version = binary.BigEndian.Uint16(b[4:6]); hdr.version {
	case walVersion:
	case 2:
		return walHeader{}, false, fmt.Errorf("%w 2 in %s: the last build that replays it is commit eace131; open the directory once with that build, whose compaction folds the log into the snapshot", errWALVersion, path)
	default:
		return walHeader{}, false, fmt.Errorf("%w %d in %s", errWALVersion, hdr.version, path)
	}
	hdr.start = time.Unix(0, int64(binary.BigEndian.Uint64(b[6:14]))).UTC()
	hdr.step = time.Duration(binary.BigEndian.Uint64(b[14:22]))
	if hdr.step <= 0 {
		return walHeader{}, false, fmt.Errorf("monitor: bad WAL step %v in %s", hdr.step, path)
	}
	return hdr, true, nil
}

// discardLog closes the live log a failed open left open and detaches
// the persister, so a failed open leaks no descriptor.
func (p *persister) discardLog() {
	p.logMu.Lock()
	p.closeLogLocked(true)
	p.logMu.Unlock()
	s := p.store
	for i := range s.shards {
		s.shards[i].wal = nil
	}
	s.persist = nil
}

// run is the background maintenance loop: periodic fsync, requested
// compactions, and durability re-arms after transient faults.
func (p *persister) run() {
	defer close(p.done)
	var tick <-chan time.Time
	if p.opts.SyncInterval > 0 {
		t := time.NewTicker(p.opts.SyncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-p.quit:
			return
		case <-p.compactReq:
			p.compact()
		case <-p.rearmReq:
			p.rearmLoop()
		case <-tick:
			p.syncAll()
		}
	}
}

// requestCompact schedules a background compaction (at most one
// outstanding request).
func (p *persister) requestCompact() {
	select {
	case p.compactReq <- struct{}{}:
	default:
	}
}

// requestRearm schedules a background durability re-arm (at most one
// outstanding request).
func (p *persister) requestRearm() {
	select {
	case p.rearmReq <- struct{}{}:
	default:
	}
}

// rearmLoop retries the durability re-arm with exponential backoff +
// jitter until it succeeds, the persister fails permanently, or the
// attempt budget (PersistOptions.RearmBackoff.MaxAttempts) runs out —
// in which case the episode is promoted to a permanent failure.
func (p *persister) rearmLoop() {
	bo := newBackoffState(p.opts.RearmBackoff)
	for {
		if PersistState(p.state.Load()) != PersistDegraded {
			return // healed by a manual Compact, or failed permanently
		}
		err := p.rearm()
		if err == nil {
			return
		}
		if p.err() != nil {
			return // permanent failure latched mid-attempt
		}
		d, ok := bo.next()
		if !ok {
			// The episode outlived the retry budget: fail-stop with the
			// last error so operators get the latched-error semantics.
			// %v, not %w: wrapping an ENOSPC here would re-classify
			// the give-up as transient and loop forever.
			p.fail(fmt.Errorf("monitor: durability re-arm gave up after %d attempts: %v",
				p.opts.RearmBackoff.MaxAttempts, err))
			return
		}
		p.logger().Warn("durability re-arm failed, backing off", "err", err, "retry_in", d)
		select {
		case <-p.quit:
			return
		case <-time.After(d):
		}
	}
}

// compact starts a fresh log generation, writes a segment of what
// sealed since the last compaction and a head that lists it, and
// deletes the generations and segments the head no longer needs. A crash
// at any point leaves a directory that recovers to the same store:
// before the head's rename the old head, its segments and every
// generation cover everything; after it the covered generations replay
// idempotently, and a segment left behind is removed at the next open.
func (p *persister) compact() error { return p.compactAs(false) }

// rearm is compact in recovery mode: the damaged live log is closed
// best-effort and left where it is (its tail may be torn — replay
// handles that), a fresh generation is started, and a head and a
// segment of in-memory state are written, restoring full durability
// without a restart.
func (p *persister) rearm() error { return p.compactAs(true) }

// compactAs is the shared rotate-cut-install cycle. Under every shard
// lock it only rotates the log and takes the cut — an immutable image of
// the store (see snapshotCut) — so appends stall for the cut, not for
// the write; sorting, encoding, writing and fsyncing the segment and the
// head run with no shard lock held. In rearming mode the old log is
// closed without a flush or an fsync (it is already damaged goods) and
// the WAL write path is re-enabled — under the shard locks, so no append
// can fall between the cut and the fresh log; a write that fails after
// that opens a new degraded episode, as any later disk fault does.
func (p *persister) compactAs(rearming bool) error {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	if err := p.err(); err != nil {
		return err
	}
	// Fsync the live log and size the cut before taking the shard locks:
	// the fsync that retires the log under them then waits only on what
	// is logged in between, not on up to a sync interval of records, and
	// the cut copies into memory that is already there.
	p.syncLocked()
	p.cut.reserve(p.store)
	if !rearming && !p.healthy() {
		// A degraded persister cannot trust its live log; a manual
		// Compact during an episode performs the re-arm instead.
		rearming = true
	}
	s := p.store

	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	held := time.Now()
	// Rotate: close the live log where it lies — every record sealed so
	// far goes into it, no shard seals another until its lock is released
	// — and start generation live+1, so every record
	// of the new generation is younger than every record of the ones
	// below it, and younger than the cut. It is one file swapped under the
	// locks: a rotation that dies leaves the old generation, or both.
	p.logMu.Lock()
	p.rotations++
	rotateErr := p.closeLogLocked(rearming)
	covered := p.walBytes.Load()
	if rotateErr == nil {
		rotateErr = p.openGenerationLocked()
	}
	if rotateErr == nil {
		// The fresh generation starts the count towards the next
		// compaction; appends during this one's write must not ask for
		// another. A failed install gives the covered bytes back.
		p.walBytes.Add(-covered)
	}
	p.logMu.Unlock()
	live := p.gen
	rearmed := false
	if rotateErr == nil {
		p.cut.takeLocked(s)
		// This cut meets every compaction asked for so far — by a log
		// that reached the trigger, a prune, an open — so a request still
		// queued is dropped rather than run on an all but empty log.
		select {
		case <-p.compactReq:
		default:
		}
		// Re-enable the WAL write path while every shard is still locked:
		// the cut holds everything up to this instant, the fresh log will
		// hold everything after it.
		rearmed = rearming && p.state.CompareAndSwap(int32(PersistDegraded), int32(PersistHealthy))
	}
	hold := time.Since(held)
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	s.obs.Load().Observe(obs.StageCompactLock, hold)

	if rotateErr != nil {
		p.fail(rotateErr)
		return rotateErr
	}
	installed := false
	defer func() {
		p.cut.release()
		if !installed {
			p.walBytes.Add(covered)
		}
	}()
	if err := p.install(); err != nil {
		p.fail(err)
		return err
	}
	// The head now covers everything the generations below the live one
	// held, and every segment it does not list.
	if err := removeStale(p.fs, p.dir, p.live, live); err != nil {
		p.fail(err)
		return err
	}
	installed = true
	s.obs.Load().Add(obs.CtrCompactions, 1)
	if rearmed {
		s.obs.Load().Add(obs.CtrWALRearms, 1)
		p.logger().Info("durability re-armed: fresh log, head and segment", "dir", p.dir)
	}
	return nil
}

// install writes the cut's segment and commits a head that lists it. The
// segment holds every chunk — a base — when no segment is live;
// otherwise the chunks no live segment holds, merged
// binary-counter style with the newest live segments: while their
// levels read 0, 1, 2, … back from the newest, the new segment absorbs
// them, writing the chunks whose home they are again from the cut, and
// takes the level one past the last. A re-arm is an install like any
// other: the live segments are whole, and the head and the new segment
// hold the rest of memory.
func (p *persister) install() error {
	c := &p.cut
	c.sort()
	live, level, pick := []segmentRef(nil), uint8(baseLevel), pickFunc(pickAll)
	if len(p.live) > 0 {
		fold := 0
		for fold < len(p.live) && p.live[len(p.live)-1-fold].level == uint8(fold) {
			fold++
		}
		live, level = slices.Clip(p.live[:len(p.live)-fold]), uint8(fold)
		pick = pickHomes(p.live[len(p.live)-fold:])
	}
	seq := p.nextSeq
	p.nextSeq++
	size, err := writeSegmentFile(p.fs, p.dir, seq, c, pick)
	// A chunk the merge found bad is a tombstone from here on, written
	// or not.
	p.store.quarantined.Add(int64(c.failed))
	if err != nil {
		return err
	}
	live = append(live, segmentRef{seq: seq, level: level, size: size})
	headSize, err := commitHead(p.fs, p.dir, c, live)
	if err != nil {
		return err
	}
	c.setHomes(seq)
	p.live = live
	total := headSize
	for _, g := range live {
		total += g.size
	}
	p.headBytes.Store(headSize)
	p.snapBytes.Store(total)
	return nil
}

// removeStale deletes from dir every segment that live does not list and
// every log generation below gen (none for gen 0).
func removeStale(fsys faultfs.FS, dir string, live []segmentRef, gen uint64) error {
	d, err := scanDir(fsys, dir)
	if err != nil {
		return err
	}
	keep := make(map[uint64]bool, len(live))
	for _, g := range live {
		keep[g.seq] = true
	}
	var seqs []uint64
	for seq := range d.segs {
		if !keep[seq] {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		if rmErr := fsys.Remove(filepath.Join(dir, segmentName(seq))); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	for _, g := range d.gens {
		if g.gen >= gen {
			break
		}
		if rmErr := fsys.Remove(g.path); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	return err
}

// syncAll writes out what is sealed and fsyncs the live log. It waits
// on the disk holding compactMu, which keeps a rotation from closing
// the file under it, and neither logMu nor any shard lock: appends go
// on while the disk answers.
func (p *persister) syncAll() {
	if !p.healthy() {
		return
	}
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	p.syncLocked()
}

// syncLocked is syncAll for a caller that holds compactMu.
func (p *persister) syncLocked() {
	if !p.healthy() {
		return
	}
	p.logMu.Lock()
	err := p.flushLocked()
	f := p.f
	p.logMu.Unlock()
	if f == nil || err != nil {
		return
	}
	if err := f.Sync(); err != nil {
		p.fail(err)
	}
	p.store.obs.Load().Add(obs.CtrWALSyncs, 1)
}

// syncFSDir fsyncs a directory so a just-renamed file survives a
// machine crash.
func syncFSDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// close stops the background loop, detaches the shards from the log,
// writes out what they sealed, fsyncs and closes the file, and closes
// the segments the open left chunks in: a chunk read for the first time
// after that reads as NaN, its read failing.
func (p *persister) close() error {
	p.closeOnce.Do(func() {
		close(p.quit)
		<-p.done
		p.compactMu.Lock()
		defer p.compactMu.Unlock()
		s := p.store
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.wal = nil
			sh.mu.Unlock()
		}
		p.logMu.Lock()
		err := p.closeLogLocked(!p.healthy())
		p.logMu.Unlock()
		for _, sf := range p.segs {
			sf.f.Close()
		}
		if err == nil {
			err = p.stateErr()
		}
		p.closeErr = err
	})
	return p.closeErr
}

// ErrNotPersistent marks persistence operations invoked on an
// in-memory store.
var ErrNotPersistent = errors.New("monitor: store is not persistent")

// PersistState returns the durability health of a persistent store.
// In-memory stores report PersistHealthy (there is no disk to fail).
func (s *Store) PersistState() PersistState {
	if s.persist == nil {
		return PersistHealthy
	}
	return PersistState(s.persist.state.Load())
}

// Recovered returns what OpenPersistent rebuilt from disk (zero for a
// fresh directory or an in-memory store).
func (s *Store) Recovered() RecoveryStats {
	if s.persist == nil {
		return RecoveryStats{}
	}
	return s.persist.recovered
}

// Sync flushes and fsyncs the log. In-memory stores return
// ErrNotPersistent; a degraded or failed persister returns the error
// that broke it (the slog hub already reported it at first
// occurrence).
func (s *Store) Sync() error {
	if s.persist == nil {
		return ErrNotPersistent
	}
	s.persist.syncAll()
	return s.persist.stateErr()
}

// Compact folds the logs into the segment store — a segment of what
// sealed since, and a fresh head — and starts an empty log. The
// background loop calls it automatically once the logs reach
// PersistOptions.CompactBytes and the installed head's size; appends
// wait only for its cut, not for the writes. Exposing
// it lets operators compact on demand (e.g. right after a Prune). On a
// degraded persister it performs the durability re-arm immediately
// instead of waiting for the backoff loop. In-memory stores return
// ErrNotPersistent.
func (s *Store) Compact() error {
	if s.persist == nil {
		return ErrNotPersistent
	}
	return s.persist.compact()
}

// Close releases the store's persistence resources (background loop,
// log, the segments an open left chunks in), flushing and fsyncing
// first. A chunk the store has not read since its open reads as NaN
// after Close, its bytes left on disk. It is a no-op on in-memory stores
// and safe to call twice.
func (s *Store) Close() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.close()
}
