package monitor

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// blockingSnapshotFS blocks the first Write to snapshot.tmp until
// release is closed, announcing it on entered.
type blockingSnapshotFS struct {
	faultfs.FS
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

type blockingSnapshotFile struct {
	faultfs.File
	fs *blockingSnapshotFS
}

func (fs *blockingSnapshotFS) Create(name string) (faultfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil || filepath.Base(name) != snapshotTmpFile {
		return f, err
	}
	return blockingSnapshotFile{f, fs}, nil
}

func (f blockingSnapshotFile) Write(p []byte) (int, error) {
	f.fs.once.Do(func() {
		close(f.fs.entered)
		<-f.fs.release
	})
	return f.File.Write(p)
}

// TestCompactionHoldsShardsOnlyForTheCut: a compaction takes every shard
// lock for its rotation and cut, not for the snapshot write — appends to
// every shard, a late write into a sealed chunk and a new series all go
// through while the write waits on the disk — and the directory it
// leaves, the cut's snapshot plus the fresh generation, reopens to the
// live store byte for byte.
func TestCompactionHoldsShardsOnlyForTheCut(t *testing.T) {
	bfs := &blockingSnapshotFS{FS: faultfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
	opts := persistOptsNoBG(StoreShards)
	opts.FS = bfs
	opts.ChunkSpan = 16
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(bfs.release) }) }
	defer release() // before the Close: a failing run must not leave Compact blocked
	col := obs.NewCollector()
	st.SetCollector(col)
	keys := keyPerShard(t, st)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	const bins = 40 // two sealed chunks and a tail per series
	for bin := 0; bin < bins; bin++ {
		for ki, k := range keys {
			st.Append(Measurement{k, at(bin), float64(ki*1000 + bin)})
		}
	}

	logged := st.persist.walBytes.Load()
	compacted := make(chan error, 1)
	go func() { compacted <- st.Compact() }()
	<-bfs.entered // the snapshot write is inside its first Write

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for ki, k := range keys {
			st.Append(Measurement{k, at(bins), float64(-ki)})
			st.Append(Measurement{k, at(3), float64(ki) + 0.5}) // into the first sealed chunk
		}
		st.Append(Measurement{keys[0], at(bins), 7})
		keys[0].Metric = "mem" // a series the cut does not hold
		st.Append(Measurement{keys[0], at(bins), 9})
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		t.Fatal("appends are stuck behind the snapshot write: a shard lock is held while it is written")
	}
	select {
	case err := <-compacted:
		t.Fatalf("Compact returned (%v) before its snapshot write did", err)
	default:
	}
	// The retired log no longer counts towards the next compaction: what
	// arrives during this one's write cannot ask for another.
	if wal := st.persist.walBytes.Load(); wal >= logged/4 {
		t.Fatalf("%d log bytes count towards the next compaction during the write, %d before it", wal, logged)
	}
	release()
	if err := <-compacted; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n := col.StageCount(obs.StageCompactLock); n != 1 {
		t.Fatalf("%d compact_lock observations, want 1", n)
	}
	want := snapshotBytes(t, st)
	info, err := os.Stat(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.persist.snapBytes.Load(); got != info.Size() {
		t.Fatalf("snapBytes = %d, the installed snapshot is %d bytes", got, info.Size())
	}

	re, err := OpenPersistent(copyImage(t, dir), time.Time{}, 0, persistOptsNoBG(StoreShards))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovered(); rec.Generations != 1 || rec.WALRecords != 2*len(keys)+2 {
		t.Fatalf("recovery stats %+v, want the %d appends made during the write in one generation", rec, 2*len(keys)+2)
	}
	if !bytes.Equal(snapshotBytes(t, re), want) {
		t.Fatal("the cut's snapshot plus the fresh generation do not reopen to the live store")
	}
}

// TestCompactionCutStorm runs compactions against a time-major
// publisher, late writes into sealed chunks and prunes (each prune asks
// the background loop for one more compaction); under -race it checks
// that a cut written with no shard lock held races nothing the writers
// do, and the directory reopens to memory byte for byte.
func TestCompactionCutStorm(t *testing.T) {
	opts := PersistOptions{Shards: 4, SyncInterval: -1, CompactBytes: -1, ChunkSpan: 16}
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(64)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	var head atomic.Int64 // bins the publisher has written
	stopPrune, stopWrites := make(chan struct{}), make(chan struct{})
	var prunes, writers sync.WaitGroup

	writers.Add(2)
	go func() { // the publisher: one bin of every series, then the next
		defer writers.Done()
		batch := make([]Measurement, len(keys))
		for bin := 0; ; bin++ {
			select {
			case <-stopWrites:
				return
			default:
			}
			for i, k := range keys {
				batch[i] = Measurement{k, at(bin), float64(i*100000 + bin)}
			}
			st.AppendBatch(batch)
			head.Store(int64(bin + 1))
		}
	}()
	go func() { // late writes, mostly into sealed chunks
		defer writers.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopWrites:
				return
			default:
			}
			lo := int(st.Start().Sub(t0) / time.Minute)
			hi := int(head.Load())
			if hi <= lo {
				continue
			}
			bin := lo + rng.Intn(hi-lo)
			st.Append(Measurement{keys[rng.Intn(len(keys))], at(bin), -float64(bin)})
		}
	}()
	prunes.Add(1)
	go func() {
		defer prunes.Done()
		for {
			select {
			case <-stopPrune:
				return
			case <-time.After(3 * time.Millisecond):
			}
			if h := head.Load(); h > 100 {
				st.Prune(at(int(h) - 100))
			}
		}
	}()
	// Compact until the publisher is well past the prune horizon.
	for i := 0; i < 20 || head.Load() < 300; i++ {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	// The last prune is followed by a compaction while the writers still
	// run: the directory is then a cut plus the records logged after it.
	close(stopPrune)
	prunes.Wait()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stopWrites)
	writers.Wait()
	want := snapshotBytes(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), want) {
		t.Fatal("the directory does not reopen to the store it was compacted from")
	}
}

// TestCompactionTriggerTracksSnapshot: once the installed snapshot is
// larger than CompactBytes, a log below the snapshot's size asks for no
// compaction and a log that reaches it asks for one. The size comes from
// the snapshot file at open, and from what each compaction wrote.
func TestCompactionTriggerTracksSnapshot(t *testing.T) {
	const floor = 1 << 10
	keys := fleetKeys(48)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	batch := func(bin int) []Measurement {
		ms := make([]Measurement, len(keys))
		for i, k := range keys {
			ms[i] = Measurement{k, at(bin), float64(i*1000 + bin)}
		}
		return ms
	}
	snapSize := func(dir string) int64 {
		t.Helper()
		info, err := os.Stat(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}

	// A history whose snapshot dwarfs the floor, compacted, one
	// generation left.
	base := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = 16
	st, err := OpenPersistent(base, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	const history = 200
	for bin := 0; bin < history; bin++ {
		st.AppendBatch(batch(bin))
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := snapSize(base)
	if snap < 4*floor {
		t.Fatalf("the snapshot is %d bytes, want it well past the %d-byte floor", snap, floor)
	}

	// open reopens a copy of the history with the floor in force and
	// checks that snapBytes came from the file.
	open := func() (*Store, *countingFS, string) {
		t.Helper()
		dir := copyImage(t, base)
		cfs := &countingFS{FS: faultfs.OS}
		st, err := OpenPersistent(dir, time.Time{}, 0, PersistOptions{Shards: 4, SyncInterval: -1, CompactBytes: floor, FS: cfs})
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector()
		st.SetCollector(col)
		var doc bytes.Buffer
		if err := col.WriteMetrics(&doc); err != nil {
			t.Fatal(err)
		}
		if got := st.persist.snapBytes.Load(); got != snap {
			t.Fatalf("after the open snapBytes = %d, the snapshot file is %d bytes", got, snap)
		}
		if !bytes.Contains(doc.Bytes(), []byte(`"`+obs.GaugeSnapshotBytes+`": `)) {
			t.Fatalf("no %s gauge in %s", obs.GaugeSnapshotBytes, doc.Bytes())
		}
		return st, cfs, dir
	}
	// requested closes st and reports whether a compaction was asked
	// for: one ran, or the request is still queued.
	requested := func(st *Store, cfs *countingFS) bool {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return cfs.snapshotWrites.Load() > 0 || len(st.persist.compactReq) > 0
	}

	// Below the snapshot: past the floor many times over, and nothing.
	st, cfs, _ := open()
	bin := history
	st.AppendBatch(batch(bin))
	bin++
	per := st.persist.walBytes.Load()
	for st.persist.walBytes.Load()+per < snap {
		st.AppendBatch(batch(bin))
		bin++
	}
	if wal := st.persist.walBytes.Load(); wal < 2*floor || wal >= snap {
		t.Fatalf("log at %d bytes, want it past the floor and under the %d-byte snapshot", wal, snap)
	}
	if requested(st, cfs) {
		t.Fatal("a log smaller than the snapshot asked for a compaction")
	}

	// Reaching the snapshot: exactly one compaction, which installs the
	// new size.
	st, cfs, dir := open()
	bin = history
	for st.persist.walBytes.Load() < snap {
		st.AppendBatch(batch(bin))
		bin++
	}
	// Wait for the install, not the rotation: the log's count drops, and
	// snapshot.tmp is created, before the snapshot is written.
	waitFor(t, "a compaction of a log that reached the snapshot's size", func() bool {
		return st.persist.snapBytes.Load() != snap
	})
	if got, want := st.persist.snapBytes.Load(), snapSize(dir); got != want || got <= snap {
		t.Fatalf("after the compaction snapBytes = %d, the snapshot file is %d bytes (was %d)", got, want, snap)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cfs.snapshotWrites.Load(); n != 1 || len(st.persist.compactReq) != 0 {
		t.Fatalf("%d compactions and %d queued, want one and none", n, len(st.persist.compactReq))
	}
}

// TestCompactionMeetsQueuedRequests: a compaction asked for while
// another waits to start is met by that one's cut, not run again on an
// all but empty log.
func TestCompactionMeetsQueuedRequests(t *testing.T) {
	cfs := &countingFS{FS: faultfs.OS}
	st, err := OpenPersistent(t.TempDir(), t0, time.Minute, PersistOptions{Shards: 4, SyncInterval: -1, CompactBytes: -1, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range fleetKeys(16) {
		st.Append(Measurement{k, t0, float64(i)})
	}
	p := st.persist
	p.compactMu.Lock() // the next compaction waits to start
	p.requestCompact()
	waitFor(t, "the loop to take the request", func() bool { return len(p.compactReq) == 0 })
	p.requestCompact() // a prune, say, while it waits
	p.compactMu.Unlock()
	waitFor(t, "the compaction", func() bool { return cfs.snapshotWrites.Load() == 1 && p.walBytes.Load() == 0 })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n, queued := cfs.snapshotWrites.Load(), len(p.compactReq); n != 1 || queued != 0 {
		t.Fatalf("%d compactions ran and %d is queued, want one and none", n, queued)
	}
}
