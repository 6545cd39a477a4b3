package monitor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultfs"
	"repro/internal/obs"
)

// Write-ahead persistence: a Store opened with OpenPersistent logs
// every stored measurement to a per-shard append-only file before the
// ingest path returns, and periodically compacts the logs into a
// snapshot. A crashed funnelserve reopens the directory and replays
// snapshot + logs back to the exact pre-crash store; composed with the
// subscribe-since watermarks (frame 0x03) downstream consumers resume
// with no loss end to end.
//
// On-disk layout inside the data directory:
//
//	snapshot.fnls — latest compacted snapshot (the Store snapshot
//	  format, written atomically via rename from snapshot.tmp)
//	wal-<gen>-<shard>.log — shard logs, one numbered generation per
//	  open and per rotation; the highest generation is the live one
//
// The invariant: the snapshot plus every generation on disk, replayed
// in ascending order, is the store. Nothing is ever renamed or
// overwritten to keep it — an open and a rotation both start generation
// live+1 beside what is there, and a generation is deleted only after a
// snapshot that covers it has been installed.
//
// Each log starts with a header:
//
//	magic "FNLW" | version uint16 | startUnixNano int64 |
//	stepNanos int64
//
// followed by records:
//
//	payloadLen uint32 | payload | crc32(payload) uint32
//
// where payload is one or more concatenated measurement bodies shared
// with the 0x01/0x04 wire frames (absolute timestamps, so records stay
// valid across epoch rebases). Measurements logged between two flushes
// share one group record — one length prefix, one CRC, one write —
// so batched ingest pays the record overhead per shard-batch rather
// than per measurement. A torn final record — the only damage a
// process kill can inflict on an append-only log — fails its length or
// CRC check and is discarded; everything before it replays.
//
// Recovery order is snapshot, then the generations found, oldest first;
// a generation starts only when every log of the one before it has
// finished, so a (key, bin) present in two ends up with the newer
// one's value. Within a generation the logs — written by one shard
// layout, hence over disjoint keys — replay concurrently on at most
// GOMAXPROCS goroutines, each applying a CRC-checked group record under
// one clock read and one lock round trip, through a per-log table from
// framed key bytes to series entry (keyTable, the one the ingest socket
// keeps per connection). The snapshot read is split the same way: one
// goroutine parses the length-prefixed framing and a pool of at most
// GOMAXPROCS workers runs each chunk's CRC check and validation decode,
// installing the chunk or its tombstone. Without a snapshot the store's
// epoch comes from the first non-empty log header, read serially before
// any replay starts. Per-log statistics are summed, and the first error
// reported, in generation-then-shard order whatever order the workers
// finished in, and every worker is joined before OpenPersistent
// returns, with a store or with an error. Replay is idempotent: the
// store overwrites by (key, bin), so records already captured in the
// snapshot (a compaction that crashed between the rename and the
// deletion of the generations it covered) change nothing.
//
// Recovery reads; it does not rewrite. After replay the store attaches
// a fresh generation, fsyncs the directory once and is open — the
// generations it replayed stay where they are until the next
// compaction, which an open that found more than one of them (a crash
// loop) or at least CompactBytes of log asks the background loop for.
// A generation may hold any shard count: reopening 16 → 4 → 16 leaves
// generations of 16, 4 and 16 logs, each replayed as written.
//
// Disk faults are classified, not latched blindly. A transient failure
// (ENOSPC, EINTR, EAGAIN, or an injected faultfs error) puts the
// persister into the degraded state: WAL writes stop (the broken logs
// cannot be trusted), the store stays fully usable in memory, and a
// background loop retries with exponential backoff until it re-arms
// durability — leave the damaged generation behind, start a fresh one,
// and write a complete snapshot from in-memory state, after which the
// store is durable again with no restart. Anything else (a programming
// error, a crash-schedule horizon) is permanent: the first such error
// latches, persistence fail-stops, and only the in-memory store keeps
// serving.
const (
	walMagic   = "FNLW"
	walVersion = 1

	snapshotFile    = "snapshot.fnls"
	snapshotTmpFile = "snapshot.tmp"
	walPrefix       = "wal-"
	walSuffix       = ".log"
)

// walName is the one naming rule for shard logs.
func walName(gen uint64, shard int) string {
	return fmt.Sprintf("%s%d-%d%s", walPrefix, gen, shard, walSuffix)
}

// DefaultCompactBytes is the total size of the logs not yet covered by
// a snapshot that triggers a background compaction.
const DefaultCompactBytes = 64 << 20

// DefaultSyncInterval is the background fsync cadence for shard logs.
// Between fsyncs, records are already in the OS page cache (flushed on
// every append/batch), so a process kill loses nothing; the interval
// only bounds loss on a whole-machine crash.
const DefaultSyncInterval = time.Second

// PersistState is the durability health of a persistent store.
type PersistState int32

const (
	// PersistHealthy: WALs live, snapshot current; every acknowledged
	// append is durable.
	PersistHealthy PersistState = iota
	// PersistDegraded: a transient disk fault stopped WAL writes; the
	// store serves from memory while the background loop retries a
	// durability re-arm (fresh logs + full snapshot).
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
	// CompactBytes triggers a background compaction once the logs not
	// yet covered by a snapshot — replayed at open or written since —
	// grow past it in total (default DefaultCompactBytes; negative
	// disables automatic compaction — Compact can still be called).
	CompactBytes int64
	// SyncInterval is the background fsync cadence (default
	// DefaultSyncInterval; negative disables the background pass —
	// Sync can still be called).
	SyncInterval time.Duration
	// ChunkSpan is the sealed-chunk width in bins (default
	// chunk.DefaultSpan). It applies to directories without a snapshot;
	// a snapshot keeps the span it was written with.
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
	// SnapshotSeries is the number of series loaded from the snapshot.
	SnapshotSeries int
	// WALRecords is the number of logged measurements replayed on top
	// of it.
	WALRecords int
	// TornTails is the number of logs whose final record was torn by
	// the crash and discarded (earlier records still replay).
	TornTails int
	// QuarantinedChunks is the number of sealed chunks whose stored
	// checksum failed on snapshot read; each was replaced by a NaN
	// tombstone instead of aborting recovery.
	QuarantinedChunks int
	// Generations is the number of log generations found and replayed:
	// one after a clean shutdown or a single crash, more when the store
	// keeps dying before it compacts.
	Generations int
	// LogBytes is the size of the records replayed from them, the log
	// the next compaction has to fold into the snapshot.
	LogBytes int64
	// SnapshotTime, ReplayTime and AttachTime are the wall time of the
	// three recovery phases: reading the snapshot, replaying the shard
	// logs, and attaching a fresh generation. The store is blind to
	// arriving bins for their sum.
	SnapshotTime, ReplayTime, AttachTime time.Duration
}

// Total is the wall time OpenPersistent spent rebuilding the store.
func (r RecoveryStats) Total() time.Duration {
	return r.SnapshotTime + r.ReplayTime + r.AttachTime
}

// persister owns the on-disk state of a persistent store: the shard
// logs (reached via each shard's wal field), the snapshot, and the
// background sync/compact/re-arm goroutine.
type persister struct {
	dir   string
	opts  PersistOptions
	fs    faultfs.FS
	store *Store

	// gen is the live generation's number; compactMu guards it once the
	// store is open.
	gen uint64
	// walBytes is the log bytes not yet in a snapshot: replayed at open
	// or written since, less what each compaction covered.
	walBytes atomic.Int64
	// state is the durability health (a PersistState); the WAL write
	// path gates on it with one atomic load per append.
	state atomic.Int32
	// firstErr latches the first permanent disk error.
	firstErr atomic.Pointer[error]
	// degradedErr records the transient error that opened the current
	// (or latest) degraded episode, for Sync/Compact callers.
	degradedErr atomic.Pointer[error]

	compactMu  sync.Mutex // one compaction/re-arm at a time
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

// shardWAL is one shard's append-only log. All methods suffixed Locked
// require the owning shard's mutex.
type shardWAL struct {
	p *persister
	f faultfs.File
	w *bufio.Writer
	// rec accumulates the measurement bodies of the group record in
	// progress; emitLocked seals it with a length prefix and CRC.
	rec []byte
	// pendingAppends counts measurements buffered since the last flush,
	// for telemetry (guarded by the shard mutex like the rest).
	pendingAppends int64
	// bytes is this log's record bytes since creation, for the per-shard
	// WAL-size gauge (guarded by the shard mutex; rotation installs a
	// fresh shardWAL, resetting it).
	bytes int64
}

// walGroupCap bounds one group record's payload; a run that outgrows
// it is sealed and a fresh record started, keeping records well under
// the replay side's length sanity cap.
const walGroupCap = 32 << 10

// maxWALRecord is the replay-side length sanity cap: a record may
// overshoot walGroupCap by at most one maximal measurement body
// (direct Append callers are not bound by the wire frame cap).
const maxWALRecord = walGroupCap + 1 + 2 + 65535 + 2 + 65535 + 16

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

// appendLocked adds one measurement body to the group record in
// progress: wire, the body as it arrived framed, copied verbatim — the
// wire and the log share the encoding — or, when wire is nil, m
// encoded. The record is sealed by the flush that acknowledges the
// append (or when it outgrows walGroupCap), so measurements from one
// batch share a single length prefix, CRC and write. While degraded or
// failed the append is skipped: the damaged log cannot be trusted, and
// the re-arm snapshot (or the operator's restart) re-covers memory
// wholesale.
func (w *shardWAL) appendLocked(wire []byte, m *Measurement) {
	if !w.p.healthy() {
		return
	}
	if wire != nil {
		w.rec = append(w.rec, wire...)
	} else {
		rec, err := appendMeasurementBody(w.rec, *m)
		if err != nil {
			w.p.fail(err)
			return
		}
		w.rec = rec
	}
	w.pendingAppends++
	if len(w.rec) >= walGroupCap {
		w.emitLocked()
	}
}

// emitLocked seals the pending group record — length prefix, payload,
// CRC — into the buffered writer.
func (w *shardWAL) emitLocked() {
	if len(w.rec) == 0 || !w.p.healthy() {
		w.rec = w.rec[:0]
		return
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(w.rec)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.p.fail(err)
		w.rec = w.rec[:0]
		return
	}
	if _, err := w.w.Write(w.rec); err != nil {
		w.p.fail(err)
		w.rec = w.rec[:0]
		return
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.rec))
	if _, err := w.w.Write(crc[:]); err != nil {
		w.p.fail(err)
		w.rec = w.rec[:0]
		return
	}
	w.p.walBytes.Add(int64(len(w.rec)) + 8)
	w.bytes += int64(len(w.rec)) + 8
	w.rec = w.rec[:0]
}

// flushLocked seals the pending record and pushes it to the OS (one
// write syscall per append or shard-batch), so a process kill cannot
// lose an acknowledged measurement. Durability against machine crashes
// comes from the periodic fsync pass.
func (w *shardWAL) flushLocked() {
	w.emitLocked()
	if !w.p.healthy() {
		return
	}
	if err := w.w.Flush(); err != nil {
		w.p.fail(err)
		return
	}
	if n := w.pendingAppends; n > 0 {
		w.pendingAppends = 0
		w.p.store.obs.Load().Add(obs.CtrWALAppends, n)
	}
	if p := w.p; p.opts.CompactBytes > 0 && p.walBytes.Load() >= p.opts.CompactBytes {
		p.requestCompact()
	}
}

// syncLocked seals, flushes and fsyncs the log file.
func (w *shardWAL) syncLocked() {
	w.emitLocked()
	if !w.p.healthy() {
		return
	}
	if err := w.w.Flush(); err != nil {
		w.p.fail(err)
		return
	}
	if err := w.f.Sync(); err != nil {
		w.p.fail(err)
	}
}

// closeLocked seals, flushes, fsyncs and closes the log file.
func (w *shardWAL) closeLocked() error {
	w.emitLocked()
	flushErr := w.w.Flush()
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// discardLocked closes the log file best-effort, ignoring flush and
// sync errors — the re-arm path calls it on logs already known to be
// damaged.
func (w *shardWAL) discardLocked() {
	w.w.Flush()
	w.f.Close()
}

// createShardWAL creates a shard log of the live generation and writes
// its header.
func createShardWAL(p *persister, shard int, start time.Time, step time.Duration) (*shardWAL, error) {
	f, err := p.fs.Create(filepath.Join(p.dir, walName(p.gen, shard)))
	if err != nil {
		return nil, err
	}
	w := &shardWAL{p: p, f: f, w: bufio.NewWriterSize(f, 1<<16)}
	hdr := append([]byte(walMagic), 0, 0)
	binary.BigEndian.PutUint16(hdr[4:6], walVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(start.UnixNano()))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(step))
	if _, err := w.w.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenPersistent opens (or creates) a persistent store backed by dir.
// An existing directory is recovered: snapshot first, then the log
// generations found (oldest first), tolerating a torn final record per
// log. What was read stays on disk as it is — the open attaches a fresh
// generation beside it and leaves folding the rest into a snapshot to
// the next compaction. start and step apply only to a fresh directory;
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

	// A compaction that died between creating snapshot.tmp and renaming
	// it left a file no recovery reads, and no compaction is due here to
	// overwrite it.
	p.fs.Remove(filepath.Join(dir, snapshotTmpFile))

	// Phase 1: snapshot.
	phase := time.Now()
	var store *Store
	snapPath := filepath.Join(dir, snapshotFile)
	if f, err := p.fs.Open(snapPath); err == nil {
		store, err = readSnapshotShards(f, opts.Shards, &p.recovered.QuarantinedChunks)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("monitor: recovering snapshot: %w", err)
		}
		p.recovered.SnapshotSeries = store.Len()
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	p.recovered.SnapshotTime = time.Since(phase)

	// Phase 2: shard logs, one generation after the other; within a
	// generation the logs replay concurrently (shards hold disjoint keys).
	phase = time.Now()
	gens, err := listWALs(p.fs, dir)
	if err != nil {
		return nil, err
	}
	if store == nil {
		// No snapshot: the oldest non-empty log's header carries the epoch;
		// nothing on disk at all is a fresh directory.
		hdrStart, hdrStep, ok := oldestWALHeader(p.fs, gens)
		if !ok {
			hdrStart, hdrStep = start, step
		}
		store = NewStoreShards(hdrStart, hdrStep, opts.Shards)
		store.span = opts.ChunkSpan
	}
	if step > 0 && store.step != step {
		return nil, fmt.Errorf("monitor: step mismatch: store has %v, caller wants %v", store.step, step)
	}
	for _, r := range replayGenerations(p.fs, gens, store) {
		if r.err != nil {
			return nil, r.err
		}
		p.recovered.WALRecords += r.stats.WALRecords
		p.recovered.TornTails += r.stats.TornTails
		p.recovered.LogBytes += r.stats.LogBytes
	}
	p.recovered.Generations = len(gens)
	if p.recovered.QuarantinedChunks > 0 {
		store.quarantined.Add(int64(p.recovered.QuarantinedChunks))
	}
	p.recovered.ReplayTime = time.Since(phase)

	// Phase 3: attach a fresh generation above the ones replayed. They
	// stay on disk, and count against CompactBytes, until a compaction
	// covers them.
	phase = time.Now()
	store.persist = p
	p.store = store
	if len(gens) > 0 {
		p.gen = gens[len(gens)-1].gen
	}
	p.walBytes.Store(p.recovered.LogBytes)
	err = p.openGeneration()
	if err == nil {
		err = syncFSDir(p.fs, dir)
	}
	if err != nil {
		p.discardLogs()
		return nil, err
	}
	p.recovered.AttachTime = time.Since(phase)

	if opts.CompactBytes > 0 && (len(gens) > 1 || p.recovered.LogBytes >= opts.CompactBytes) {
		p.requestCompact()
	}
	go p.run()
	return store, nil
}

// walGeneration is the shard logs one open or one rotation created
// together, in shard order.
type walGeneration struct {
	gen   uint64
	paths []string
}

// listWALs returns the log generations in dir, oldest first. A wal-
// file that does not follow walName is an error, not something to step
// over: it may hold records.
func listWALs(fsys faultfs.FS, dir string) ([]walGeneration, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type shardLog struct {
		gen, shard uint64
		name       string
	}
	var logs []shardLog
	for _, e := range entries {
		l := shardLog{name: e.Name()}
		if e.IsDir() || !strings.HasPrefix(l.name, walPrefix) {
			continue
		}
		if _, err := fmt.Sscanf(l.name, walPrefix+"%d-%d"+walSuffix, &l.gen, &l.shard); err != nil || walName(l.gen, int(l.shard)) != l.name {
			return nil, fmt.Errorf("monitor: unrecognised log file %s", filepath.Join(dir, l.name))
		}
		logs = append(logs, l)
	}
	sort.Slice(logs, func(i, j int) bool {
		if logs[i].gen != logs[j].gen {
			return logs[i].gen < logs[j].gen
		}
		return logs[i].shard < logs[j].shard
	})
	var gens []walGeneration
	for _, l := range logs {
		if n := len(gens); n == 0 || gens[n-1].gen != l.gen {
			gens = append(gens, walGeneration{gen: l.gen})
		}
		g := &gens[len(gens)-1]
		g.paths = append(g.paths, filepath.Join(dir, l.name))
	}
	return gens, nil
}

// oldestWALHeader returns the epoch in the first readable header among
// gens, for a directory without a snapshot. A log killed before its
// header flush is passed over, and so is one whose header is damaged:
// its replay reports that.
func oldestWALHeader(fsys faultfs.FS, gens []walGeneration) (start time.Time, step time.Duration, ok bool) {
	for _, g := range gens {
		for _, path := range g.paths {
			if start, step, ok, err := peekWALHeader(fsys, path); err == nil && ok {
				return start, step, true
			}
		}
	}
	return time.Time{}, 0, false
}

// replayGenerations replays gens into store, a generation at a time and
// oldest first, and returns one result per log in that order.
// OpenPersistent and Fsck both recover through it.
func replayGenerations(fsys faultfs.FS, gens []walGeneration, store *Store) []walReplay {
	var out []walReplay
	for _, g := range gens {
		out = append(out, replayWALs(fsys, g.paths, store)...)
	}
	return out
}

// readWALHeader consumes a shard log's header from r and returns its
// epoch. ok is false for a log killed before its header flush: empty,
// nothing to replay.
func readWALHeader(r io.Reader, path string) (start time.Time, step time.Duration, ok bool, err error) {
	var hdr [len(walMagic) + 2 + 8 + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return time.Time{}, 0, false, nil
		}
		return time.Time{}, 0, false, err
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return time.Time{}, 0, false, fmt.Errorf("monitor: bad WAL magic in %s", path)
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != walVersion {
		return time.Time{}, 0, false, fmt.Errorf("monitor: unsupported WAL version %d in %s", v, path)
	}
	start = time.Unix(0, int64(binary.BigEndian.Uint64(hdr[6:14]))).UTC()
	step = time.Duration(binary.BigEndian.Uint64(hdr[14:22]))
	if step <= 0 {
		return time.Time{}, 0, false, fmt.Errorf("monitor: bad WAL step %v in %s", step, path)
	}
	return start, step, true, nil
}

// peekWALHeader reads just the header of the log at path.
func peekWALHeader(fsys faultfs.FS, path string) (start time.Time, step time.Duration, ok bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return time.Time{}, 0, false, err
	}
	defer f.Close()
	return readWALHeader(f, path)
}

// walReplay is the outcome of replaying one shard log.
type walReplay struct {
	path  string
	stats RecoveryStats // WALRecords, TornTails and LogBytes of this log
	err   error
}

// replayWALs replays the logs of one generation into store on at most
// GOMAXPROCS goroutines and returns when all of them have finished,
// with one result per path in paths order. The logs must hold disjoint
// keys (one generation is written by one shard layout); the store's own
// shard locks make any interleaving safe, but only disjoint keys make
// it equal to the serial order.
func replayWALs(fsys faultfs.FS, paths []string, store *Store) []walReplay {
	out := make([]walReplay, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(paths)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				out[i].path = paths[i]
				out[i].err = replayWAL(fsys, paths[i], store, &out[i].stats)
			}
		}()
	}
	wg.Wait()
	return out
}

// replayWAL replays one shard log into store, group record by group
// record, the way the ingest socket applies a batch frame: a group's
// bodies are the bodies of a frame, so each goes through a per-log
// keyTable — on a store that as yet has no log, feed or subscriber,
// which is all that makes it a replay. Torn tails are counted and
// ignored; corruption before the tail is an error (an append-only log
// cannot be damaged mid-file by a crash).
func replayWAL(fsys faultfs.FS, path string, store *Store, stats *RecoveryStats) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	if _, _, ok, err := readWALHeader(br, path); err != nil || !ok {
		return err
	}
	if store == nil {
		// The callers derive the store from the first readable header, so
		// this takes a header that read differently the second time.
		return fmt.Errorf("monitor: no store to replay %s into", path)
	}

	keys := newKeyTable(store)
	var lenBuf [4]byte
	payload := make([]byte, 0, 256)
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if err == io.EOF {
				return nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				stats.TornTails++
				return nil
			}
			return err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxWALRecord {
			// A garbage length can only be a torn tail (partial length
			// word from a crashed append).
			stats.TornTails++
			return nil
		}
		if cap(payload) < int(n)+4 {
			payload = make([]byte, 0, int(n)+4)
		}
		payload = payload[:int(n)+4]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				stats.TornTails++
				return nil
			}
			return err
		}
		body, crcBytes := payload[:n], payload[n:]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
			stats.TornTails++
			return nil
		}
		stats.LogBytes += int64(n) + 8
		// A body that fails to decode ends the log like any torn tail;
		// the bodies before it are applied.
		applied, _, err := keys.scan(body, math.MaxInt)
		keys.apply(body)
		stats.WALRecords += applied
		if err != nil {
			stats.TornTails++
			return nil
		}
	}
}

// openGeneration starts generation gen+1: a fresh log for every shard,
// beside whatever is on disk. The caller holds every shard lock, or is
// an open that has not yet published the store.
func (p *persister) openGeneration() error {
	s := p.store
	p.gen++
	for i := range s.shards {
		w, err := createShardWAL(p, i, s.start, s.step)
		if err != nil {
			return err
		}
		s.shards[i].wal = w
	}
	return nil
}

// discardLogs closes whatever shard logs a failed open left open and
// detaches the persister, so a failed open leaks no descriptor.
func (p *persister) discardLogs() {
	s := p.store
	for i := range s.shards {
		if w := s.shards[i].wal; w != nil {
			w.discardLocked()
			s.shards[i].wal = nil
		}
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

// compact starts a fresh log generation, dumps a consistent snapshot of
// the whole store, atomically installs it, and deletes the generations
// it covers. A crash at any point leaves a directory that recovers to
// the same store: before the snapshot rename the old snapshot plus
// every generation cover everything; after it the covered generations
// replay idempotently.
func (p *persister) compact() error { return p.compactAs(false) }

// rearm is compact in recovery mode: the damaged live logs are closed
// best-effort and left where they are (their tails may be torn — replay
// handles that), a fresh generation is started, and a complete snapshot
// of in-memory state is written, restoring full durability without a
// restart.
func (p *persister) rearm() error { return p.compactAs(true) }

// compactAs is the shared rotate-snapshot-install cycle. In rearming
// mode close errors on the old logs are tolerated (the logs are already
// damaged goods) and the WAL write path is re-enabled — under the shard
// locks, so no append can fall between the snapshot cut and the fresh
// logs.
func (p *persister) compactAs(rearming bool) error {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	if err := p.err(); err != nil {
		return err
	}
	if !rearming && !p.healthy() {
		// A degraded persister cannot trust its live logs; a manual
		// Compact during an episode performs the re-arm instead.
		rearming = true
	}
	s := p.store

	s.epochMu.RLock()
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	// Rotate: close each live log where it lies and start generation
	// live+1 at the current epoch. No shard appends in between, so every
	// record of the new generation is younger than every record of the
	// ones below it — also when a rotation dies half way, with some
	// shards on the new generation and the rest on none.
	covered := p.walBytes.Load()
	rotateErr := func() error {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.rotations++
			if sh.wal == nil {
				continue
			}
			if rearming {
				sh.wal.discardLocked()
			} else if err := sh.wal.closeLocked(); err != nil {
				return err
			}
			sh.wal = nil
		}
		return p.openGeneration()
	}()
	live := p.gen
	var snapErr error
	var tmp faultfs.File
	rearmed := false
	tmpPath := filepath.Join(p.dir, snapshotTmpFile)
	if rotateErr == nil {
		tmp, snapErr = p.fs.Create(tmpPath)
		if snapErr == nil {
			snapErr = s.writeSnapshotLocked(tmp)
		}
		if snapErr == nil && rearming {
			// Re-enable the WAL write path while every shard is still
			// locked: the snapshot buffer holds everything up to this
			// instant, the fresh logs will hold everything after it.
			if p.state.CompareAndSwap(int32(PersistDegraded), int32(PersistHealthy)) {
				rearmed = true
			}
		}
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	s.epochMu.RUnlock()

	if rotateErr != nil {
		p.fail(rotateErr)
		return rotateErr
	}
	if snapErr == nil {
		snapErr = tmp.Sync()
	}
	if tmp != nil {
		if err := tmp.Close(); err != nil && snapErr == nil {
			snapErr = err
		}
	}
	if snapErr == nil {
		snapErr = p.fs.Rename(tmpPath, filepath.Join(p.dir, snapshotFile))
	}
	if snapErr != nil {
		p.fs.Remove(tmpPath)
		p.fail(snapErr)
		return snapErr
	}
	if err := syncFSDir(p.fs, p.dir); err != nil {
		p.fail(err)
		return err
	}
	// The snapshot now covers everything the generations below the live
	// one held.
	gens, err := listWALs(p.fs, p.dir)
	for _, g := range gens {
		if g.gen >= live {
			break
		}
		for _, path := range g.paths {
			if rmErr := p.fs.Remove(path); rmErr != nil && err == nil {
				err = rmErr
			}
		}
	}
	if err != nil {
		p.fail(err)
		return err
	}
	p.walBytes.Add(-covered)
	s.obs.Load().Add(obs.CtrCompactions, 1)
	if rearmed {
		s.obs.Load().Add(obs.CtrWALRearms, 1)
		p.logger().Info("durability re-armed: fresh logs + full snapshot", "dir", p.dir)
	}
	return nil
}

// syncAll fsyncs every shard log.
func (p *persister) syncAll() {
	if !p.healthy() {
		return
	}
	s := p.store
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.wal != nil {
			sh.wal.syncLocked()
		}
		sh.mu.Unlock()
	}
	s.obs.Load().Add(obs.CtrWALSyncs, 1)
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

// close stops the background loop, flushes and fsyncs every log, and
// closes the files.
func (p *persister) close() error {
	p.closeOnce.Do(func() {
		close(p.quit)
		<-p.done
		s := p.store
		healthy := p.healthy()
		var firstErr error
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			if sh.wal != nil {
				if healthy {
					if err := sh.wal.closeLocked(); err != nil && firstErr == nil {
						firstErr = err
					}
				} else {
					sh.wal.discardLocked()
				}
				sh.wal = nil
			}
			sh.mu.Unlock()
		}
		if firstErr == nil {
			firstErr = p.stateErr()
		}
		p.closeErr = firstErr
	})
	return p.closeErr
}

// ErrNotPersistent marks persistence operations invoked on an
// in-memory store.
var ErrNotPersistent = errors.New("monitor: store is not persistent")

// Persistent reports whether the store was opened with OpenPersistent.
func (s *Store) Persistent() bool { return s.persist != nil }

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

// Sync flushes and fsyncs every shard log. In-memory stores return
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

// Compact folds the shard logs into a fresh snapshot and starts empty
// ones. The background loop calls it automatically once the logs grow
// past PersistOptions.CompactBytes; exposing it lets operators compact
// on demand (e.g. right after a Prune). On a degraded persister it
// performs the durability re-arm immediately instead of waiting for
// the backoff loop. In-memory stores return ErrNotPersistent.
func (s *Store) Compact() error {
	if s.persist == nil {
		return ErrNotPersistent
	}
	return s.persist.compact()
}

// Close releases the store's persistence resources (background loop,
// shard logs), flushing and fsyncing first. It is a no-op on in-memory
// stores and safe to call twice.
func (s *Store) Close() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.close()
}
