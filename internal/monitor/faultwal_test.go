package monitor

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/topo"
)

// fastRearm is a re-arm schedule quick enough for tests.
var fastRearm = Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1}

// waitState polls until the store reaches the wanted persist state.
func waitState(t *testing.T, st *Store, want PersistState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.PersistState() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("persist state stuck at %v, want %v", st.PersistState(), want)
}

func TestFailFastOnMissingParent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "no", "such", "parent", "data")
	if _, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(2)); err == nil {
		t.Fatal("OpenPersistent deep-created a missing parent instead of failing fast")
	}
}

func TestFailFastOnUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits do not bind")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(2)); err == nil {
		t.Fatal("OpenPersistent accepted an unwritable data directory")
	}
}

func TestFailFastOnUnwritableDirInjected(t *testing.T) {
	// The injected variant works under any uid: every mutating op
	// fails, so the probe write cannot succeed.
	ff := faultfs.New(faultfs.Plan{Seed: 1, ENOSPCStart: 1}, nil)
	opts := persistOptsNoBG(2)
	opts.FS = ff
	if _, err := OpenPersistent(t.TempDir(), t0, time.Minute, opts); err == nil {
		t.Fatal("OpenPersistent accepted a dir whose probe write failed")
	}
}

// TestTransientFaultDegradesAndRearms drives an ENOSPC episode through
// the WAL path and watches the persister degrade, self-heal once the
// episode clears, and stay durable afterwards.
func TestTransientFaultDegradesAndRearms(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.New(faultfs.Plan{Seed: 1}, nil)
	opts := persistOptsNoBG(2)
	opts.FS = ff
	opts.RearmBackoff = fastRearm
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	col := obs.NewCollector()
	st.SetCollector(col)

	keys := fleetKeys(6)
	appendBin := func(bin int) {
		for ki, k := range keys {
			st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(100*bin + ki)})
		}
	}
	for bin := 0; bin < 10; bin++ {
		appendBin(bin)
	}
	if got := st.PersistState(); got != PersistHealthy {
		t.Fatalf("clean ingest left state %v", got)
	}

	// The disk fills. The first append that hits it degrades the
	// persister; the store keeps serving from memory.
	ff.SetENOSPC(true)
	for bin := 10; bin < 14; bin++ {
		appendBin(bin)
	}
	if got := st.PersistState(); got != PersistDegraded {
		t.Fatalf("ENOSPC left state %v, want degraded", got)
	}
	if err := st.Sync(); err == nil {
		t.Fatal("Sync on a degraded store returned nil")
	}

	// Space comes back; the backoff loop re-arms durability on its own.
	ff.SetENOSPC(false)
	waitState(t, st, PersistHealthy)
	// The counter lands a beat after the state flip (it counts only a
	// fully installed snapshot pipeline), so poll it on its own.
	deadline := time.Now().Add(5 * time.Second)
	for col.Counter(obs.CtrWALRearms) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("wal_rearms = %d, want 1", col.Counter(obs.CtrWALRearms))
		}
		time.Sleep(time.Millisecond)
	}
	if col.Counter(obs.CtrDiskErrors) == 0 || col.Counter(obs.CtrPersistErrors) == 0 {
		t.Fatal("disk_errors/store_persist_errors not counted")
	}

	// Post-re-arm ingest, then a process kill (drop the store without
	// Close): everything — including the bins appended while degraded,
	// which the re-arm snapshot captured from memory — must recover.
	for bin := 14; bin < 18; bin++ {
		appendBin(bin)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync after re-arm: %v", err)
	}
	want := snapshotBytes(t, st)

	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), want) {
		t.Fatal("recovered store differs from pre-kill store")
	}
}

// TestCompactWhileDegradedRearmsSynchronously covers the manual path:
// an operator Compact during an episode performs the re-arm without
// waiting for the backoff loop.
func TestCompactWhileDegradedRearmsSynchronously(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.New(faultfs.Plan{Seed: 2}, nil)
	opts := persistOptsNoBG(1)
	opts.FS = ff
	// A glacial backoff so the background loop cannot win the race.
	opts.RearmBackoff = Backoff{Initial: time.Hour, Max: time.Hour, Seed: 1}
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	k := fleetKeys(1)[0]
	st.Append(Measurement{k, t0, 1})
	ff.SetENOSPC(true)
	st.Append(Measurement{k, t0.Add(time.Minute), 2})
	if got := st.PersistState(); got != PersistDegraded {
		t.Fatalf("state %v, want degraded", got)
	}
	ff.SetENOSPC(false)
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact-as-rearm: %v", err)
	}
	if got := st.PersistState(); got != PersistHealthy {
		t.Fatalf("state %v after manual re-arm, want healthy", got)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestPermanentFaultFailStops pins the fail-stop half of the error
// model: a crash-schedule error is not retried, the state latches to
// failed, and the in-memory store keeps working.
func TestPermanentFaultFailStops(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.New(faultfs.Plan{Seed: 3}, nil)
	opts := persistOptsNoBG(1)
	opts.FS = ff
	opts.RearmBackoff = fastRearm
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	k := fleetKeys(1)[0]
	st.Append(Measurement{k, t0, 1})
	// Simulate the crash horizon via a direct permanent failure.
	permErr := errors.New("monitor: simulated controller death")
	st.persist.fail(permErr)
	if got := st.PersistState(); got != PersistFailed {
		t.Fatalf("state %v, want failed", got)
	}
	if err := st.Sync(); !errors.Is(err, permErr) {
		t.Fatalf("Sync error %v, want the latched permanent error", err)
	}
	if err := st.Compact(); !errors.Is(err, permErr) {
		t.Fatalf("Compact error %v, want the latched permanent error", err)
	}
	// Memory path unaffected.
	st.Append(Measurement{k, t0.Add(time.Minute), 2})
	if got, ok := st.Series(k); !ok || got.Len() != 2 {
		t.Fatal("in-memory store stopped serving after fail-stop")
	}
	// A transient error after a permanent one must not resurrect.
	st.persist.fail(faultfs.ErrInjected)
	if got := st.PersistState(); got != PersistFailed {
		t.Fatalf("state %v after late transient error, want failed", got)
	}
}

// TestRearmGivesUpAfterMaxAttempts bounds the retry loop: an episode
// that never clears is promoted to a permanent failure.
func TestRearmGivesUpAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.New(faultfs.Plan{Seed: 4}, nil)
	opts := persistOptsNoBG(1)
	opts.FS = ff
	opts.RearmBackoff = Backoff{Initial: time.Millisecond, Max: 2 * time.Millisecond, MaxAttempts: 3, Seed: 1}
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	k := fleetKeys(1)[0]
	st.Append(Measurement{k, t0, 1})
	ff.SetENOSPC(true) // never clears
	st.Append(Measurement{k, t0.Add(time.Minute), 2})
	waitState(t, st, PersistFailed)
	if err := st.Sync(); err == nil {
		t.Fatal("Sync nil after retry budget exhausted")
	}
}

// TestSnapshotCorruptionQuarantines flips one byte inside a sealed
// chunk of the on-disk snapshot: recovery degrades exactly that chunk —
// its bins read NaN, every other bin as the store reference model says,
// RecoveryStats and Stats count it — a read across it is counted, and
// the tombstone round-trips through the next snapshot.
func TestSnapshotCorruptionQuarantines(t *testing.T) {
	r := newProgRunner(t, progConfig{span: 16, shards: 2}, nil)
	r.run(progOps(opAppend, 63, opAppend, 15, opCompact, 0, opDamage, 10<<8))
	if r.s.QuarantinedChunks() != 1 || r.s.degradedReads.Load() == 0 {
		t.Fatalf("%d chunks quarantined, %d degraded reads", r.s.QuarantinedChunks(), r.s.degradedReads.Load())
	}
	r.run(progOps(opCompact, 0, opReopen, 0))
	r.finish()
}

// TestReadCorruptionQuarantines lets faultfs flip bits on the read
// path — latent media errors surfacing at reopen, and at the first
// decode of a chunk the open left on disk — and asserts the store comes
// up degraded-not-wrong. Each seed reopens its own copy of the image and
// reads the series whole; a flip lands on one of the reads in three
// (the head, a segment's header or chunk, the log), and the seeds are
// enough that some land inside chunk data — the run is deterministic,
// and none landing there fails the test.
func TestReadCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	opts := persistOptsNoBG(1)
	opts.ChunkSpan = 16
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "mem.util"}
	for bin := 0; bin < 64; bin++ {
		st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin) * 1.5})
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := false
	for seed := int64(1); seed <= 20; seed++ {
		ff := faultfs.New(faultfs.Plan{Seed: seed, CorruptReadProb: 0.3}, nil)
		ropts := opts
		ropts.FS = ff
		re, err := OpenPersistent(copyImage(t, dir), time.Time{}, 0, ropts)
		if err != nil {
			// The flipped bit can land in the head, whose checksum then
			// fails, or in framing (lengths, keys) where recovery has no
			// choice but to reject the file; that is a clean error, not
			// corruption served.
			continue
		}
		got, ok := re.Series(k)
		if !ok {
			t.Fatal("series lost")
		}
		if re.QuarantinedChunks() > 0 {
			for i := 0; i < got.Len(); i++ {
				if v := got.Values[i]; !math.IsNaN(v) && v != float64(i)*1.5 {
					t.Fatalf("seed %d: bin %d = %v, want %v or NaN", seed, i, v, float64(i)*1.5)
				}
			}
			reopened = true
		}
		re.Close()
	}
	if !reopened {
		t.Fatal("no seed landed a flip inside chunk data")
	}
}

// countingFS counts the files open through the FS seam, and the
// heads started through it.
type countingFS struct {
	faultfs.FS
	open       atomic.Int64
	headWrites atomic.Int64 // Create calls on head.tmp
}

func (c *countingFS) counted(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{File: f, fs: c}, nil
}

func (c *countingFS) Create(name string) (faultfs.File, error) {
	if filepath.Base(name) == headTmpFile {
		c.headWrites.Add(1)
	}
	return c.counted(c.FS.Create(name))
}
func (c *countingFS) Open(name string) (faultfs.File, error) { return c.counted(c.FS.Open(name)) }

type countedFile struct {
	faultfs.File
	fs   *countingFS
	once sync.Once
}

func (f *countedFile) Close() error {
	f.once.Do(func() { f.fs.open.Add(-1) })
	return f.File.Close()
}

// TestFailedOpenLeaksNoFiles crashes the disk at every mutating
// operation of a recovery in turn: an OpenPersistent that returns an
// error — whichever probe, log-creation or directory-fsync step the
// crash landed on — must have closed every file it opened, and one that
// returns a store must have after Close.
func TestFailedOpenLeaksNoFiles(t *testing.T) {
	image := writeImage(t, 4, 30).dir
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = diffSpan

	clean := faultfs.New(faultfs.Plan{}, nil)
	opts.FS = clean
	st, err := OpenPersistent(copyImage(t, image), time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := clean.Ops()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	failed := 0
	for op := int64(1); op <= ops; op++ {
		cfs := &countingFS{FS: faultfs.New(faultfs.Plan{CrashAtOp: op}, nil)}
		opts.FS = cfs
		st, err := OpenPersistent(copyImage(t, image), time.Time{}, 0, opts)
		if err != nil {
			failed++
		} else {
			st.Close() // its error is the crash; the files are the point
		}
		if n := cfs.open.Load(); n != 0 {
			t.Fatalf("crash at op %d (open error: %v): %d files left open", op, err, n)
		}
	}
	if failed == 0 {
		t.Fatal("no crash point failed the open: the sweep tested nothing")
	}
}

// TestCrashAtEveryOpenAndRotateOp kills the disk at every mutating
// operation of an open and, in a second range, of the rotation and
// install that follow it. The image holds a base segment and a level-0
// one, so the compaction merges: it writes a level-1 segment, installs a
// head listing the base and it, and deletes the level-0 segment and the
// covered generation. A crash inside the open must leave the directory
// recovering to the store it held before; a crash inside the compaction
// — with generation live+1 created or not, with the segment half
// written or not fsynced, the head half written, renamed but not yet
// fsynced, or with the old segment or the covered generations half
// deleted — to the store as it stood when Compact was called, byte for
// byte. (A crash between the two ranges tears an append; internal/e2e's
// sweep owns that.)
func TestCrashAtEveryOpenAndRotateOp(t *testing.T) {
	img := writeImage(t, 4, 30)
	image := img.dir
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = diffSpan
	logMore := func(st *Store) {
		var batch []Measurement
		for bin := 70; bin < 73; bin++ {
			batch = batch[:0]
			for si, k := range fleetKeys(48) {
				batch = append(batch, Measurement{k, st.Start().Add(time.Duration(bin) * time.Minute), float64(si*1000 + bin)})
			}
			st.AppendBatch(batch)
		}
	}

	// One clean instrumented open, checked against the store reference
	// model, learns the store the image holds, where the open ends and
	// where the compaction starts and ends.
	clean := img.fork(t)
	clean.openRetry(4, diffSpan, 0, nil)
	st := clean.s
	wantBefore := snapshotBytes(t, st)
	opened := clean.ffs.Ops()
	logMore(st)
	logged := clean.ffs.Ops()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := clean.ffs.Ops()
	wantAfter := snapshotBytes(t, st)
	if live := st.persist.live; len(live) != 2 || live[0].level != baseLevel || live[1].level != 1 {
		t.Fatalf("live segments after the compaction %+v, want the base and a level-1 merge", live)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("the open is ops 1..%d, the compaction ops %d..%d", opened, logged+1, compacted)
	if bytes.Equal(wantBefore, wantAfter) {
		t.Fatal("the bins logged before the compaction changed nothing: the second range would prove nothing")
	}

	for op := int64(1); op <= compacted; op++ {
		if op > opened && op <= logged {
			continue
		}
		dir := copyImage(t, image)
		opts.FS = faultfs.New(faultfs.Plan{Seed: op, CrashAtOp: op}, nil)
		st, err := OpenPersistent(dir, time.Time{}, 0, opts)
		want := wantBefore
		if op <= opened {
			if err == nil {
				st.Close()
				t.Fatalf("crash at op %d of %d: the open succeeded", op, opened)
			}
		} else {
			if err != nil {
				t.Fatalf("crash at op %d: the open failed before the crash: %v", op, err)
			}
			logMore(st)
			if err := st.Compact(); err == nil {
				t.Fatalf("crash at op %d of (%d, %d]: the compaction succeeded", op, logged, compacted)
			}
			st.Close() // the kill; its error is the crash
			want = wantAfter
		}

		opts.FS = nil
		re, err := OpenPersistent(dir, time.Time{}, 0, opts)
		if err != nil {
			t.Fatalf("crash at op %d: recovery failed: %v", op, err)
		}
		got := snapshotBytes(t, re)
		if err := re.Close(); err != nil {
			t.Fatalf("crash at op %d: close after recovery: %v", op, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("crash at op %d (open ends at %d, compaction spans (%d, %d]): recovered store differs from the pre-crash one",
				op, opened, logged, compacted)
		}
	}
}

// TestCleanReopenWritesNoSnapshot pins the one ending of a recovery:
// reopening a cleanly closed store, with the default compaction
// threshold, starts no head, leaves the head and segments on disk
// untouched and the generation it replayed in place.
func TestCleanReopenWritesNoSnapshot(t *testing.T) {
	image := writeImage(t, 4, 30).dir
	dir := copyImage(t, image)
	installed := func() map[string]string {
		files := dirImage(t, dir)
		for name := range files {
			if strings.HasPrefix(name, walPrefix) {
				delete(files, name)
			}
		}
		return files
	}
	snapBefore := installed()
	if len(snapBefore) != 3 {
		t.Fatalf("the image holds %d head and segment files, want the head and two segments", len(snapBefore))
	}
	cfs := &countingFS{FS: faultfs.OS}
	st, err := OpenPersistent(dir, time.Time{}, 0, PersistOptions{Shards: 4, SyncInterval: -1, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	rec := st.Recovered()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cfs.headWrites.Load(); n != 0 {
		t.Fatalf("the reopen started %d heads, want none", n)
	}
	if !reflect.DeepEqual(installed(), snapBefore) {
		t.Fatal("the reopen touched the head or a segment")
	}
	if rec.Generations != 1 || rec.LogBytes == 0 || rec.LogBytes > logBytes(t, image) {
		t.Fatalf("recovery stats %+v, want one generation of at most %d log bytes", rec, logBytes(t, image))
	}
	if gens, err := listWALs(faultfs.OS, dir); err != nil || len(gens) != 2 {
		t.Fatalf("generations after the reopen: %+v (%v), want the replayed one and the live one", gens, err)
	}
}

// TestOpenRequestsBackgroundCompaction: an open that found more than
// one generation (the store died at least twice without compacting), or
// a log that reaches both CompactBytes and the head's size, hands
// the fold to the background loop — after it has returned, not before —
// and one with automatic compaction disabled does not.
func TestOpenRequestsBackgroundCompaction(t *testing.T) {
	cases := []struct {
		name         string
		generations  int
		walBins      int
		compactBytes int64
		want         bool
	}{
		{"two generations", 2, 30, 1 << 30, true},
		{"one generation past CompactBytes", 1, 30, 1 << 10, true},  // and past the head
		{"one generation under the snapshot", 1, 6, 1 << 10, false}, // past CompactBytes, under the head
		{"one generation under CompactBytes", 1, 30, 1 << 30, false},
		{"three generations, compaction disabled", 3, 30, -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeImage(t, 4, tc.walBins, make([]int, tc.generations-1)...).dir // reopened with 4 shards
			cfs := &countingFS{FS: faultfs.OS}
			st, err := OpenPersistent(dir, time.Time{}, 0, PersistOptions{Shards: 4, SyncInterval: -1, CompactBytes: tc.compactBytes, FS: cfs})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rec := st.Recovered()
			if rec.Generations != tc.generations {
				t.Fatalf("Generations = %d, want %d", rec.Generations, tc.generations)
			}
			// In the 1 KiB cases the log is past CompactBytes and the
			// head's size decides.
			if head := st.persist.headBytes.Load(); tc.compactBytes == 1<<10 &&
				(rec.LogBytes < tc.compactBytes || (rec.LogBytes >= head) != tc.want) {
				t.Fatalf("the image holds %d log bytes against a %d-byte head: not the case named", rec.LogBytes, head)
			}
			want := snapshotBytes(t, st)
			if !tc.want {
				// Nothing is queued and nothing will be: the request is made
				// before the loop starts, or never.
				if n := len(st.persist.compactReq); n != 0 {
					t.Fatalf("%d compaction requests queued", n)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if n := cfs.headWrites.Load(); n != 0 {
					t.Fatalf("%d heads started, want none", n)
				}
				if gens, err := listWALs(faultfs.OS, dir); err != nil || len(gens) != tc.generations+1 {
					t.Fatalf("generations %+v (%v), want the %d replayed and the live one", gens, err, tc.generations)
				}
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				gens, err := listWALs(faultfs.OS, dir)
				if err == nil && len(gens) == 1 && st.persist.walBytes.Load() == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no background compaction: generations %+v (%v), %d heads started", gens, err, cfs.headWrites.Load())
				}
				time.Sleep(time.Millisecond)
			}
			if n := cfs.headWrites.Load(); n != 1 {
				t.Fatalf("%d heads started, want 1", n)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(4))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if rec := re.Recovered(); rec.Generations != 1 || rec.WALRecords != 0 {
				t.Fatalf("after the background compaction: recovery stats %+v, want one empty generation", rec)
			}
			if !bytes.Equal(snapshotBytes(t, re), want) {
				t.Fatal("the background compaction changed the store")
			}
		})
	}
}

// TestOpenRemovesStaleSnapshotTmp: a compaction that died between
// creating head.tmp and renaming it leaves a head-sized file nothing
// reads; with no compaction at open to overwrite it, the open removes
// it. A segment the head does not list — a compaction's that died
// before its head's rename — goes too.
func TestOpenRemovesStaleSnapshotTmp(t *testing.T) {
	r := writeImage(t, 4, 30)
	tmp := filepath.Join(r.dir, headTmpFile)
	if err := os.WriteFile(tmp, bytes.Repeat([]byte("half a head "), 1<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	r.openRetry(4, diffSpan, 0, nil) // and the store is the model's
	defer r.finish()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale %s survived the open (stat: %v)", headTmpFile, err)
	}
}

// TestOpenRemovesUnlistedSegments: a segment file the head does not
// list is a compaction's that died before its head was installed. The
// open reads nothing from it and removes it; the head's segments stay.
// Fsck, which mutates nothing, steps over it.
func TestOpenRemovesUnlistedSegments(t *testing.T) {
	r := writeImage(t, 4, 30)
	listed := installedImage(t, r.dir)
	stray := filepath.Join(r.dir, segmentName(99))
	if err := os.WriteFile(stray, []byte("FNLC garbage a compaction never finished"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(r.dir, nil, false); err != nil || !rep.Healthy() {
		t.Fatalf("fsck over a stray segment: %+v, %v", rep, err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("fsck removed the stray segment: %v", err)
	}
	r.openRetry(4, diffSpan, 0, nil) // and the store is the model's
	defer r.finish()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("the unlisted %s survived the open (stat: %v)", segmentName(99), err)
	}
	if got := installedImage(t, r.dir); !bytes.Equal(got, listed) {
		t.Fatal("the open changed what the head and its segments hold")
	}
}

// TestOpenRefusesVersion3Snapshot: the single-file snapshot.fnls of
// version 3 is not read; an open, and Fsck, refuse a directory holding
// one by name and point at the last build that reads it, leaving the
// directory as it was.
func TestOpenRefusesVersion3Snapshot(t *testing.T) {
	dir := writeImage(t, 2, 2).dir
	snap := append([]byte("FNLS"), 0, 3)
	snap = append(snap, make([]byte, 24)...)
	if err := os.WriteFile(filepath.Join(dir, legacySnapshot), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	st, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(2))
	if err == nil {
		st.Close()
		t.Fatal("the open read past a version 3 snapshot")
	}
	if !errors.Is(err, errLegacySnapshot) || !strings.Contains(err.Error(), "17935ff") || !strings.Contains(err.Error(), legacySnapshot) {
		t.Fatalf("error %q, want the version 3 snapshot refused by name with its last build", err)
	}
	if _, err := Fsck(dir, nil, true); !errors.Is(err, errLegacySnapshot) {
		t.Fatalf("fsck error %v, want the version 3 snapshot refused", err)
	}
	if !reflect.DeepEqual(dirImage(t, dir), before) {
		t.Fatal("the refused open or fsck changed the directory")
	}
}

// TestOpenRefusesUnrecognisedLogName: a wal- file that does not follow
// the one naming rule — here the wal-<gen>-<shard>.log of the per-shard
// layout and the .old of the one before it — may hold records, so
// neither OpenPersistent nor Fsck steps over it. (The oldest layout's
// wal-<shard>.log does parse as a generation; its header's version is
// what refuses it.)
func TestOpenRefusesUnrecognisedLogName(t *testing.T) {
	for _, name := range []string{"wal-1-2.log", "wal-3-0.log", "wal-0.old", "wal-1.log.bak", "wal-01.log", "wal--1.log"} {
		dir := writeImage(t, 2, 2).dir
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(2))
		if err == nil {
			st.Close()
			t.Fatalf("%s: the open stepped over it", name)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: error %q does not name the file", name, err)
		}
		if _, err := Fsck(dir, nil, false); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: fsck error %v, want one naming the file", name, err)
		}
	}
	// A file of the oldest layout, wal-<shard>.log, has a generation's
	// name; its header does not have a generation's version.
	dir := writeImage(t, 2, 2).dir
	old := append([]byte(walMagic), 0, 1)
	old = append(old, make([]byte, 16)...)
	if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(2)); err == nil {
		st.Close()
		t.Fatal("the open replayed a version-1 log")
	} else if !strings.Contains(err.Error(), "unsupported WAL version 1") || !strings.Contains(err.Error(), "wal-0.log") {
		t.Fatalf("error %q, want wal-0.log's unsupported version", err)
	}
}
