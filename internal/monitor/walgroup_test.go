package monitor

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Tests of the single sequenced log: one write per frame, records of a
// shard in apply order whichever connection applied them, replay that
// stops at the first bad record, and an fsync pass that holds no shard
// lock.

// keyPerShard returns one key for each shard of s.
func keyPerShard(t testing.TB, s *Store) []topo.KPIKey {
	t.Helper()
	keys := make([]topo.KPIKey, s.Shards())
	found := 0
	for i := 0; found < len(keys) && i < 100*len(keys); i++ {
		k := topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("srv-%04d", i), Metric: "cpu"}
		if si := s.shardIndex(k); keys[si].Entity == "" {
			keys[si] = k
			found++
		}
	}
	if found < len(keys) {
		t.Fatalf("keys for %d of %d shards", found, len(keys))
	}
	return keys
}

// TestFrameIsOneLogWrite: a socket frame, an AppendBatch and an Append
// each reach the disk as exactly one mutating operation — one Write —
// however many shards they span.
func TestFrameIsOneLogWrite(t *testing.T) {
	ffs := faultfs.New(faultfs.Plan{}, nil)
	opts := persistOptsNoBG(StoreShards)
	opts.FS = ffs
	st, err := OpenPersistent(t.TempDir(), t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	binOf := func(bin int) []Measurement {
		var ms []Measurement
		for ki, k := range keyPerShard(t, st) {
			ms = append(ms, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin*100 + ki)})
		}
		return ms
	}
	var enc keyIDs
	frames := append(idFrames(t, &enc, binOf(0)), idFrames(t, &enc, binOf(0))...)
	if len(frames) != 2 {
		t.Fatalf("%d frames for one key per shard, twice, want 2", len(frames))
	}
	table := newKeyTable(st, maxKeyCacheEntries)
	for _, op := range []struct {
		what string
		do   func()
	}{
		{"a socket frame spanning every shard", func() {
			if err := table.ingestFrame(frames[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"the same bin again, through resolved handles", func() {
			if err := table.ingestFrame(frames[1]); err != nil {
				t.Fatal(err)
			}
		}},
		{"an AppendBatch spanning every shard", func() { st.AppendBatch(binOf(1)) }},
		{"an Append", func() { st.Append(binOf(2)[3]) }},
	} {
		before := ffs.Ops()
		op.do()
		if got := ffs.Ops() - before; got != 1 {
			t.Fatalf("%s: %d disk operations, want one Write", op.what, got)
		}
	}
	before := ffs.Ops()
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Ops() - before; got != 1 {
		t.Fatalf("a sync pass with nothing buffered: %d disk operations, want one fsync", got)
	}
}

// TestLogOrderAcrossConnections: several connections rewrite the same
// (key, bin)s with different values, round after round on more threads
// than cores. Whichever write memory kept last must also be the last in
// the log: after a kill, the store recovered from the files equals the
// store that was in memory. (A run sealed after its shard's unlock, not
// before, fails this within a few hundred rounds.)
func TestLogOrderAcrossConnections(t *testing.T) {
	const (
		pubs   = 4
		rounds = 2000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2 * pubs))
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := fleetKeys(2)
	var wg sync.WaitGroup
	var arrived atomic.Int64 // publishers × rounds started
	for pub := 0; pub < pubs; pub++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := newKeyTable(st, maxKeyCacheEntries)
			var enc keyIDs
			ms := make([]Measurement, len(keys))
			for r := 0; r < rounds; r++ {
				// Every round is its own trial: a bin nobody has written,
				// all publishers released onto it together.
				for arrived.Add(1); arrived.Load() < int64((r+1)*pubs); {
					runtime.Gosched()
				}
				for ki, k := range keys {
					ms[ki] = Measurement{k, t0.Add(time.Duration(r) * time.Minute), float64(pub*10_000_000 + r*100 + ki)}
				}
				frame, _, err := enc.appendFrame(nil, ms)
				if err != nil {
					t.Error(err)
					return
				}
				if err := table.ingestFrame(frame[4:]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The kill: every frame was acknowledged, so every record is in the
	// file; nothing is closed or fsynced.
	re, err := OpenPersistent(copyImage(t, dir), time.Time{}, 0, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovered(); rec.WALRecords != pubs*rounds*len(keys) || rec.TornTails != 0 {
		t.Fatalf("recovery stats %+v, want %d records and no torn tail", rec, pubs*rounds*len(keys))
	}
	for _, k := range keys {
		got, _ := re.Series(k)
		want, _ := st.Series(k)
		if got == nil || want == nil || got.Len() != want.Len() {
			t.Fatalf("%v: recovered %v, in memory %v", k, got, want)
		}
		for i, w := range want.Values {
			if got.Values[i] != w {
				t.Fatalf("%v bin %d: recovered %v, memory held %v: the log's order is not the apply order", k, i, got.Values[i], w)
			}
		}
	}
}

// TestReplayStopsAtFirstBadRecord damages a small log at every record in
// turn — a flipped bit in the length word, the shard byte, the payload
// and the CRC, and a truncation at, just past and well inside the
// record — and reopens it on one worker and on several: exactly the
// records before it replay, as the store reference model says.
func TestReplayStopsAtFirstBadRecord(t *testing.T) {
	// Group records of four shards around a run of single-measurement ones.
	base := newProgRunner(t, progConfig{span: diffSpan, shards: 4, keys: fleetKeys(10)}, nil)
	base.run(progOps(opBin, wr(0, 1, 0), opBin, wr(0, 0, 0), opBin, wr(0, 1, 0)))
	gen := base.s.persist.gen
	if n := len(base.gens[gen].recs); n != 4+10+4 {
		t.Fatalf("%d records in the log, want %d", n, 4+10+4)
	}
	before := base.close()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < 4+10+4; i++ {
				for kind := 0; kind < 8; kind++ {
					r := base.fork(t)
					r.damageRecord(r.gens[gen], filepath.Join(r.dir, walName(gen)), i, kind)
					r.openRetry(4, diffSpan, 0, before)
					r.s.Close() // the open checked the store against the model
				}
			}
		})
	}
}

// blockingSyncFS parks every file fsync, while armed, until released.
type blockingSyncFS struct {
	faultfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

type blockingSyncFile struct {
	faultfs.File
	fs *blockingSyncFS
}

func (fs *blockingSyncFS) Create(name string) (faultfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return blockingSyncFile{f, fs}, nil
}

func (f blockingSyncFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestSyncHoldsNoShardLock: while the fsync pass waits on the disk an
// append to every shard goes through, write and all; Sync itself
// returns only once the disk has answered.
func TestSyncHoldsNoShardLock(t *testing.T) {
	bfs := &blockingSyncFS{FS: faultfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
	opts := persistOptsNoBG(StoreShards)
	opts.FS = bfs
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := keyPerShard(t, st)
	for ki, k := range keys {
		st.Append(Measurement{k, t0, float64(ki)})
	}

	bfs.armed.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- st.Sync() }()
	<-bfs.entered // the pass is inside fsync

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for ki, k := range keys {
			st.Append(Measurement{k, t0.Add(time.Minute), float64(100 + ki)})
		}
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		t.Fatal("appends are stuck behind the fsync: a shard lock is held while the disk answers")
	}
	select {
	case err := <-synced:
		t.Fatalf("Sync returned (%v) before the fsync did", err)
	default:
	}
	// What was appended meanwhile is in the file: a kill now loses none.
	re, err := OpenPersistent(copyImage(t, dir), time.Time{}, 0, persistOptsNoBG(StoreShards))
	if err != nil {
		t.Fatal(err)
	}
	if rec := re.Recovered(); rec.WALRecords != 2*len(keys) {
		t.Fatalf("%d records in the log while the fsync waits, want %d", rec.WALRecords, 2*len(keys))
	}
	re.Close()

	bfs.armed.Store(false)
	close(bfs.release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestSteadyPublisherDefinesOnce: a connection that sends the same keys
// every bin, over several frames a bin, defines each key on the first
// bin and references it on every later one — after a prune, and in
// reversed order — so the socket reads one define per key.
func TestSteadyPublisherDefinesOnce(t *testing.T) {
	st, _ := openTestStore(t, 4, 8)
	col := obs.NewCollector()
	st.SetCollector(col)
	table := newKeyTable(st, maxKeyCacheEntries)
	var enc keyIDs
	keys := fleetKeys(3000) // more than one frame a bin
	defines := func() int64 { return col.Counter(obs.CtrIngestKeyLookups) }
	send := func(bin int, order func(i int) int) int {
		ms := make([]Measurement, len(keys))
		for i := range keys {
			ms[i] = Measurement{keys[order(i)], t0.Add(time.Duration(bin) * time.Minute), float64(bin)}
		}
		frames := idFrames(t, &enc, ms)
		for _, f := range frames {
			if err := table.ingestFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		return len(frames)
	}
	inOrder := func(i int) int { return i }
	if frames := send(0, inOrder); frames < 2 {
		t.Fatalf("a bin is %d frames, want several", frames)
	}
	if got := defines(); got != int64(len(keys)) {
		t.Fatalf("first bin: %d defines, want one per key (%d)", got, len(keys))
	}
	for bin := 1; bin <= 6; bin++ {
		order := inOrder
		switch bin {
		case 4:
			st.Prune(t0.Add(2 * time.Minute))
		case 6:
			order = func(i int) int { return len(keys) - 1 - i }
		}
		send(bin, order)
		if got := defines() - int64(len(keys)); got != 0 {
			t.Fatalf("bin %d: %d defines, want none", bin, got)
		}
	}
	for _, k := range []topo.KPIKey{keys[0], keys[len(keys)/2], keys[len(keys)-1]} {
		ser, ok := st.Series(k)
		if !ok || ser.Values[ser.Len()-1] != 6 || math.IsNaN(ser.Values[ser.Len()-2]) {
			t.Fatalf("%v: series %v after the reversed bin", k, ser)
		}
	}
}

// TestReplayAcrossBlocks replays a log several reader blocks long, over
// a head — records straddle the block ends, and every block's records go
// to the workers regrouped by shard — intact, at the shard count that
// wrote it and at another, with a flipped bit in a record inside the
// second block and cut short inside the third, on one worker and on
// four, against the store reference model. The pass makes maxBlocks
// blocks and no more: at another shard count a worker waits for every
// worker's installs while it holds a block, and the reader for a block
// a worker returns, which must not deadlock.
func TestReplayAcrossBlocks(t *testing.T) {
	var writes []int
	for bin := 0; bin < 2*diffSpan; bin++ {
		writes = append(writes, opBin, wr(0, 1, 0))
	}
	writes = append(writes, opCompact, 0)
	for bin := 0; bin < 8*diffSpan; bin++ { // a key costs its log about 18 bytes a bin
		writes = append(writes, opBin, wr(0, 1, 0))
	}
	base := newProgRunner(t, progConfig{span: diffSpan, shards: 4, keys: fleetKeys(3500)}, nil)
	base.run(progOps(writes...))
	gen := base.s.persist.gen
	g := base.gens[gen]
	if g.size < 7*replayBlock/2 {
		t.Fatalf("the log is %d bytes, want more than three and a half blocks of %d", g.size, replayBlock)
	}
	before := base.close()
	for _, tc := range []struct {
		what             string
		at, kind, shards int
	}{
		{"intact", 0, -1, 4},
		{"intact at another shard count", 0, -1, 16},
		{"bit flipped inside the second block", 3 * replayBlock / 2, 2, 4},
		{"cut short inside the third block", 9 * replayBlock / 4, 6, 4},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.what, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				r := base.fork(t)
				if tc.kind >= 0 {
					i := sort.Search(len(g.recs), func(i int) bool { return g.recs[i].off+g.recs[i].size > int64(tc.at) })
					r.damageRecord(r.gens[gen], filepath.Join(r.dir, walName(gen)), i, tc.kind)
				}
				rc, err := recoverDir(faultfs.OS, r.dir, tc.shards, diffSpan, false)
				if err != nil {
					t.Fatal(err)
				}
				rc.closeSegments()
				if rc.blocks > maxBlocks {
					t.Fatalf("the pass made %d blocks, past the cap of %d", rc.blocks, maxBlocks)
				}
				r.openRetry(tc.shards, diffSpan, 0, before)
				if rec := r.s.Recovered(); (rec.TornTails == 1) != (tc.kind >= 0) {
					t.Fatalf("recovery stats %+v", rec)
				}
				r.s.Close() // the open checked the store against the model
			})
		}
	}
}
