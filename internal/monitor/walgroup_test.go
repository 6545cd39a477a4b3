package monitor

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
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
	frames := batchFrames(t, binOf(0))
	if len(frames) != 1 {
		t.Fatalf("%d frames for one key per shard, want 1", len(frames))
	}
	table := newKeyTable(st)
	for _, op := range []struct {
		what string
		do   func()
	}{
		{"a socket frame spanning every shard", func() {
			if err := table.ingestFrame(frames[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"the same frame again, through resolved handles", func() {
			if err := table.ingestFrame(frames[0]); err != nil {
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
			table := newKeyTable(st)
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
				frame, err := EncodeBatch(ms)
				if err != nil {
					t.Error(err)
					return
				}
				if err := table.ingestFrame(frame); err != nil {
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
// record — and checks that exactly the records before it replay, on one
// worker and on several, as the serial oracle says.
func TestReplayStopsAtFirstBadRecord(t *testing.T) {
	// A dozen and a half records: group records of four shards around a
	// run of single-measurement ones.
	image := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = diffSpan
	st, err := OpenPersistent(image, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(10)
	for bin := 0; bin < 3; bin++ {
		var batch []Measurement
		for ki, k := range keys {
			batch = append(batch, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), diffValue(ki, bin)})
		}
		if bin == 1 {
			for _, m := range batch {
				st.Append(m)
			}
			continue
		}
		st.AppendBatch(batch)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(genLog(t, image, 0))
	if err != nil {
		t.Fatal(err)
	}
	offs := walRecordOffsets(t, raw)
	if len(offs) != 4+len(keys)+4 {
		t.Fatalf("%d records in the log, want %d", len(offs), 4+len(keys)+4)
	}
	// bodies[i] is how many measurements records [0, i) hold.
	bodies := make([]int, len(offs)+1)
	for i, off := range offs {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		ms := 0
		for b := raw[off+5 : off+5+n]; len(b) > 0; ms++ {
			if _, b, err = decodeMeasurementBody(b, nil); err != nil {
				t.Fatal(err)
			}
		}
		bodies[i+1] = bodies[i] + ms
	}
	type damage struct {
		what string
		torn bool
		edit func(log []byte, off, n int) []byte
	}
	flip := func(at func(off, n int) int) func([]byte, int, int) []byte {
		return func(log []byte, off, n int) []byte {
			log[at(off, n)] ^= 0x10
			return log
		}
	}
	damages := []damage{
		{"bit flipped in the length word", true, flip(func(off, n int) int { return off + 3 })},
		{"bit flipped in the shard byte", true, flip(func(off, n int) int { return off + 4 })},
		{"bit flipped in the payload", true, flip(func(off, n int) int { return off + 5 + n/2 })},
		{"bit flipped in the CRC", true, flip(func(off, n int) int { return off + 5 + n + 1 })},
		{"truncated at the record", false, func(log []byte, off, n int) []byte { return log[:off] }},
		{"truncated inside the length word", true, func(log []byte, off, n int) []byte { return log[:off+2] }},
		{"truncated inside the payload", true, func(log []byte, off, n int) []byte { return log[:off+5+n/2] }},
		{"truncated inside the CRC", true, func(log []byte, off, n int) []byte { return log[:off+5+n+2] }},
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i, off := range offs {
				n := int(binary.BigEndian.Uint32(raw[off:]))
				for _, d := range damages {
					dir := copyImage(t, image)
					rewriteFile(t, genLog(t, dir, 0), func(log []byte) []byte { return d.edit(log, off, n) })
					_, rec := diffRecover(t, dir, 4)
					if rec.WALRecords != bodies[i] || (rec.TornTails == 1) != d.torn || rec.TornTails > 1 {
						t.Fatalf("record %d of %d, %s: replayed %d measurements with %d torn tails, want the %d before it and torn = %v",
							i, len(offs), d.what, rec.WALRecords, rec.TornTails, bodies[i], d.torn)
					}
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

// TestSteadyPublisherResolvesByPosition: a connection that sends the
// same keys in the same order every bin, over several frames a bin,
// goes to the key map for the first bin only; a prune changes nothing
// about that, and a shuffled bin costs one lookup per measurement.
func TestSteadyPublisherResolvesByPosition(t *testing.T) {
	st, _ := openTwinStore(t, twinShards, twinSpan)
	col := obs.NewCollector()
	st.SetCollector(col)
	table := newKeyTable(st)
	keys := fleetKeys(3000) // more than one frame a bin
	lookups := func() int64 { return col.Counter(obs.CtrIngestKeyLookups) }
	send := func(bin int, order func(i int) int) int {
		ms := make([]Measurement, len(keys))
		for i := range keys {
			ms[i] = Measurement{keys[order(i)], t0.Add(time.Duration(bin) * time.Minute), float64(bin)}
		}
		frames := batchFrames(t, ms)
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
	if got := lookups(); got != int64(len(keys)) {
		t.Fatalf("first bin: %d lookups, want one per key (%d)", got, len(keys))
	}
	for bin := 1; bin < 6; bin++ {
		before := lookups()
		if bin == 4 {
			st.Prune(t0.Add(2 * time.Minute))
		}
		send(bin, inOrder)
		if got := lookups() - before; got > 1 {
			t.Fatalf("bin %d of a steady publisher: %d lookups, want at most 1", bin, got)
		}
	}
	before := lookups()
	send(6, func(i int) int { return len(keys) - 1 - i })
	if got := lookups() - before; got < int64(len(keys))-2 {
		t.Fatalf("a reversed bin: %d lookups, want about one per key (%d)", got, len(keys))
	}
	for _, k := range []topo.KPIKey{keys[0], keys[len(keys)/2], keys[len(keys)-1]} {
		ser, ok := st.Series(k)
		if !ok || ser.Values[ser.Len()-1] != 6 || math.IsNaN(ser.Values[ser.Len()-2]) {
			t.Fatalf("%v: series %v after the reversed bin", k, ser)
		}
	}
}

// TestReplayAcrossBlocks replays a log several reader blocks long —
// records straddle the block ends, and every block's records go to the
// workers regrouped by shard — intact, with a flipped bit inside the
// second block and cut short inside the third, against the serial
// oracle.
func TestReplayAcrossBlocks(t *testing.T) {
	image := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = diffSpan
	st, err := OpenPersistent(image, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(3500)
	batch := make([]Measurement, len(keys))
	for bin := 0; bin < 3*diffSpan; bin++ {
		for ki, k := range keys {
			batch[ki] = Measurement{k, t0.Add(time.Duration(bin) * time.Minute), diffValue(ki, bin)}
		}
		st.AppendBatch(batch)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(genLog(t, image, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 5*replayBlock/2 {
		t.Fatalf("the log is %d bytes, want more than two and a half blocks of %d", len(raw), replayBlock)
	}
	total := 3 * diffSpan * len(keys)
	for _, tc := range []struct {
		what string
		edit func(log []byte) []byte
		torn int
	}{
		{"intact", func(log []byte) []byte { return log }, 0},
		{"bit flipped inside the second block", func(log []byte) []byte { log[3*replayBlock/2] ^= 0x04; return log }, 1},
		{"cut short inside the third block", func(log []byte) []byte { return log[:9*replayBlock/4] }, 1},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.what, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dir := copyImage(t, image)
				rewriteFile(t, genLog(t, dir, 0), tc.edit)
				_, rec := diffRecover(t, dir, 4)
				if rec.TornTails != tc.torn || (tc.torn == 0) != (rec.WALRecords == total) {
					t.Fatalf("recovery stats %+v, want %d torn tails of %d records", rec, tc.torn, total)
				}
			})
		}
	}
}
