package monitor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/topo"
)

// TestRestoredChunkWalkedAtFirstDecode: a segment chunk whose bytes
// match their CRC but fail the token walk passes the open — nothing is
// quarantined there — and becomes a tombstone at its first decode:
// every window over it reads NaN from then on, the rest of the series
// reads as written, and monitor.quarantined_chunks counts it once,
// however many readers race to it. Fsck, which walks every chunk,
// reports it.
func TestRestoredChunkWalkedAtFirstDecode(t *testing.T) {
	const span = 16
	dir := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = span
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-3", Metric: "cpu.util"}
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	for bin := range 3*span + 5 {
		st.Append(Measurement{k, at(bin), float64(bin)})
	}
	bad := st.shardFor(k).series[k].chunks[1].Data()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Chunk 1's stream becomes bytes the walk refuses (a run record that
	// overflows the chunk), under a CRC that holds.
	rewriteFile(t, filepath.Join(dir, segmentName(1)), func(raw []byte) []byte {
		at := bytes.Index(raw, bad)
		if at < 0 || bytes.Count(raw, bad) != 1 {
			t.Fatal("chunk 1's stream is not in the segment once")
		}
		junk := bytes.Repeat([]byte{0xff}, len(bad))
		copy(raw[at:], junk)
		binary.BigEndian.PutUint32(raw[at-4:], crc32.ChecksumIEEE(junk))
		return raw
	})
	fsckDir := copyImage(t, dir)

	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovered(); rec.QuarantinedChunks != 0 || re.QuarantinedChunks() != 0 || re.Stats().QuarantinedChunks != 0 {
		t.Fatalf("the open quarantined a chunk whose CRC holds: %+v, gauge %d", rec, re.QuarantinedChunks())
	}
	var wg sync.WaitGroup
	var wrong atomic.Int32
	for r := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := r % 3 * span / 2 // windows from chunk 0, 0–1 and 1 on
			buf, from, ok := re.RangeInto(k, at(lo), at(lo+2*span), nil)
			if !ok {
				wrong.Add(1)
				return
			}
			first := int(from.Sub(t0) / time.Minute)
			for i, v := range buf {
				bin := first + i
				if (bin >= span && bin < 2*span) != math.IsNaN(v) || !math.IsNaN(v) && v != float64(bin) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d bins read wrong: chunk 1 must read NaN, the rest as written", n)
	}
	if got := re.QuarantinedChunks(); got != 1 {
		t.Fatalf("monitor.quarantined_chunks = %d after the first decodes, want 1", got)
	}
	// Later reads find the tombstone and count nothing more.
	buf, _, _ := re.RangeInto(k, at(0), at(3*span), nil)
	if !math.IsNaN(buf[span+3]) || buf[2*span+1] != float64(2*span+1) || re.QuarantinedChunks() != 1 || re.Stats().QuarantinedChunks != 1 {
		t.Fatalf("a later read: bins %v and %v, gauge %d, stats %d", buf[span+3], buf[2*span+1], re.QuarantinedChunks(), re.Stats().QuarantinedChunks)
	}

	rep, err := Fsck(fsckDir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuarantinedChunks != 1 || rep.Healthy() {
		t.Fatalf("fsck: %+v, want the chunk that fails its walk reported", rep)
	}
}

// segmentWrites counts the bytes written to segment files, and to head
// files.
type segmentWrites struct {
	faultfs.FS
	seg, head atomic.Int64
}

type segmentWriteFile struct {
	faultfs.File
	n *atomic.Int64
}

func (fs *segmentWrites) Create(name string) (faultfs.File, error) {
	f, err := fs.FS.Create(name)
	switch base := filepath.Base(name); {
	case err != nil:
		return f, err
	case strings.HasPrefix(base, segmentPrefix):
		return segmentWriteFile{f, &fs.seg}, nil
	case base == headTmpFile:
		return segmentWriteFile{f, &fs.head}, nil
	}
	return f, err
}

func (f segmentWriteFile) Write(p []byte) (int, error) {
	f.n.Add(int64(len(p)))
	return f.File.Write(p)
}

// TestCompactionWritesFlatInHistory: what a run of compactions writes
// to segments, and how many segments it leaves live, does not grow with
// the history the store holds, and the heads grow by the index entries
// of the history's chunks alone. Two stores differ only in history — 8
// and 32 sealed chunks a series under a base segment — and then take the
// same bins and the same 16 compactions, each sealing a chunk a series.
// They write the same segment bytes, binary-counter merges included,
// heads that differ by an index entry per chunk of history, and leave
// at most the base and one segment per bit of the compaction count.
func TestCompactionWritesFlatInHistory(t *testing.T) {
	const span, rounds = 16, 16
	keys := fleetKeys(24)
	run := func(history int) (segs, heads int64, live []segmentRef) {
		fsys := &segmentWrites{FS: faultfs.OS}
		opts := persistOptsNoBG(4)
		opts.ChunkSpan, opts.FS = span, fsys
		st, err := OpenPersistent(t.TempDir(), t0, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		bin := 0
		add := func(n int, value func(ki, bin int) float64) {
			for ; n > 0; n-- {
				for ki, k := range keys {
					st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), value(ki, bin)})
				}
				bin++
			}
		}
		add(history*span, func(ki, bin int) float64 { return float64(ki*100000 + bin) })
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		segs, heads = fsys.seg.Load(), fsys.head.Load()
		for r := range rounds {
			// The same values in both stores, whatever their history.
			add(span, func(ki, b int) float64 { return float64(ki*1000 + r*span + b%span) })
			if r%3 == 0 { // a late write into the chunk the round before sealed
				k := keys[r%len(keys)]
				st.Append(Measurement{k, t0.Add(time.Duration(bin-span-1) * time.Minute), -1})
			}
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		return fsys.seg.Load() - segs, fsys.head.Load() - heads, st.persist.live
	}
	short, shortHeads, shortLive := run(8)
	long, longHeads, longLive := run(32)
	t.Logf("%d compactions wrote %d segment and %d head bytes over 8 chunks of history a series, %d and %d over 32; live segments %+v",
		rounds, short, shortHeads, long, longHeads, longLive)
	if short != long {
		t.Fatalf("%d compactions wrote %d segment bytes over 8 chunks of history, %d over 32: want the same", rounds, short, long)
	}
	if want := int64(rounds * len(keys) * (32 - 8) * indexEntryLen); longHeads-shortHeads != want {
		t.Fatalf("%d compactions wrote %d head bytes over 8 chunks of history, %d over 32: want %d more, an index entry per chunk", rounds, shortHeads, longHeads, want)
	}
	if len(longLive) != len(shortLive) || len(longLive) > 1+bits.Len(rounds) || longLive[0].level != baseLevel {
		t.Fatalf("live segments %+v after %d compactions, want the base and at most %d more", longLive, rounds, bits.Len(rounds))
	}
}

// readLog records, per segment file, the bytes read from it: by Read,
// and by ReadAt past the header.
type readLog struct {
	faultfs.FS
	mu     sync.Mutex
	seq    map[string]int64   // bytes read sequentially
	chunks map[string][]int64 // offsets read at past the header
}

type readLogFile struct {
	faultfs.File
	log  *readLog
	name string
}

func (l *readLog) Open(name string) (faultfs.File, error) {
	f, err := l.FS.Open(name)
	if err != nil || !strings.HasPrefix(filepath.Base(name), segmentPrefix) {
		return f, err
	}
	return readLogFile{f, l, filepath.Base(name)}, nil
}

func (f readLogFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.log.mu.Lock()
	f.log.seq[f.name] += int64(n)
	f.log.mu.Unlock()
	return n, err
}

func (f readLogFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > segmentHeaderLen {
		f.log.mu.Lock()
		f.log.chunks[f.name] = append(f.log.chunks[f.name], off)
		f.log.mu.Unlock()
	}
	return f.File.ReadAt(p, off)
}

// TestOpenReadsNoChunkBytes: an open of a version 3 image reads no byte
// of a segment past its header — the chunks stay on disk — and Stats
// counts them by their recorded size. The first decode of a chunk reads
// it from its segment once, at the offset the head records, however
// many readers race to it; a merge copies a chunk nothing has read from
// its segment without decoding it, and the chunk then reads as written.
func TestOpenReadsNoChunkBytes(t *testing.T) {
	const span = 16
	dir := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = span
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(40)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	write := func(st *Store, lo, hi int) {
		for bin := lo; bin < hi; bin++ {
			for ki, k := range keys {
				st.Append(Measurement{k, at(bin), float64(ki*1000 + bin)})
			}
		}
	}
	write(st, 0, 3*span)
	if err := st.Compact(); err != nil { // the base
		t.Fatal(err)
	}
	write(st, 3*span, 5*span+3)
	if err := st.Compact(); err != nil { // a level-0 segment
		t.Fatal(err)
	}
	want := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := &readLog{FS: faultfs.OS, seq: make(map[string]int64), chunks: make(map[string][]int64)}
	opts.FS = fsys
	re, err := OpenPersistent(dir, time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(fsys.seq) != 0 || len(fsys.chunks) != 0 {
		t.Fatalf("the open read segment bytes past the headers: %v sequentially, at %v", fsys.seq, fsys.chunks)
	}
	if got := re.Stats(); got.CompressedBytes != want.CompressedBytes || got.ApproxBytes != want.ApproxBytes || got.Chunks != want.Chunks {
		t.Fatalf("stats after the open %+v, before %+v", got, want)
	}

	// Eight readers race to the first decode of one chunk.
	k := keys[7]
	var wg sync.WaitGroup
	var wrong atomic.Int32
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _, ok := re.RangeInto(k, at(span+2), at(span+9), nil)
			for i, v := range buf {
				if !ok || v != float64(7*1000+span+2+i) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatal("a reader read the chunk wrong")
	}
	ck := re.shardFor(k).series[k].chunks[1]
	seq, off := ck.Home()
	if reads := fsys.chunks[segmentName(seq)]; len(reads) != 1 || reads[0] != off || re.chunkReads.Load() != 1 || re.chunkReadBytes.Load() != int64(ck.EncodedBytes()) {
		t.Fatalf("reads %v of %s, counted %d (%d bytes); want one at %d of %d bytes", fsys.chunks, segmentName(seq), re.chunkReads.Load(), re.chunkReadBytes.Load(), off, ck.EncodedBytes())
	}

	// The next compaction merges the level-0 segment: it copies the
	// chunks that live there, none of them read yet, from the file and
	// leaves them unread; their first decode then reads them again.
	copied := re.chunkReads.Load()
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	merged := re.chunkReads.Load() - copied
	if merged == 0 {
		t.Fatal("the merge copied no chunk from its segment")
	}
	for ki, k := range keys {
		buf, _, ok := re.RangeInto(k, at(0), at(5*span), nil)
		for bin, v := range buf {
			if !ok || v != float64(ki*1000+bin) {
				t.Fatalf("%v: bin %d = %v after the merge", k, bin, v)
			}
		}
	}
	if total := re.chunkReads.Load(); total != copied+merged+int64(5*len(keys)-1) {
		t.Fatalf("%d chunk reads: %d first decodes before the merge, %d copies by it, and %d decodes after; want every chunk decoded once", total, copied, merged, total-copied-merged)
	}
	if re.QuarantinedChunks() != 0 {
		t.Fatalf("%d chunks quarantined", re.QuarantinedChunks())
	}
}

// switchedReadFault fails every read past a segment's header while
// fail is set: the reads of the chunks an open left on disk.
type switchedReadFault struct {
	faultfs.FS
	fail atomic.Bool
}

type switchedReadFile struct {
	faultfs.File
	fs *switchedReadFault
}

func (fs *switchedReadFault) Open(name string) (faultfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || !strings.HasPrefix(filepath.Base(name), segmentPrefix) {
		return f, err
	}
	return switchedReadFile{f, fs}, nil
}

func (f switchedReadFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= segmentHeaderLen && f.fs.fail.Load() {
		return 0, faultfs.ErrInjected
	}
	return f.File.ReadAt(p, off)
}

// TestUnreadReadErrorIsNoLoss: a read of a restored chunk that fails is
// not the chunk's loss. While reads fail, a window over the chunk reads
// NaN and counts a degraded read, a live late write into it is dropped
// rather than made over NaN, a compaction whose merge must copy it
// fails, and nothing is quarantined; once reads pass, the chunk reads as
// written, the compaction goes through, and the reopened head holds no
// tombstone. A late write in the log that lands in a chunk whose read
// fails fails the open, and the next open, reads passing, applies it.
func TestUnreadReadErrorIsNoLoss(t *testing.T) {
	const span = 16
	dir := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = span
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(8)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	write := func(st *Store, lo, hi int) {
		for bin := lo; bin < hi; bin++ {
			for ki, k := range keys {
				st.Append(Measurement{k, at(bin), float64(ki*1000 + bin)})
			}
		}
	}
	write(st, 0, 3*span)
	if err := st.Compact(); err != nil { // the base
		t.Fatal(err)
	}
	write(st, 3*span, 5*span+3)
	if err := st.Compact(); err != nil { // a level-0 segment, which the next compaction merges
		t.Fatal(err)
	}
	st.Close()
	whole := func(st *Store) {
		t.Helper()
		for ki, k := range keys {
			buf, _, ok := st.RangeInto(k, at(0), at(5*span+3), nil)
			for bin, v := range buf {
				if !ok || v != float64(ki*1000+bin) {
					t.Fatalf("%v: bin %d = %v, want %d", k, bin, v, ki*1000+bin)
				}
			}
		}
	}

	fsys := &switchedReadFault{FS: faultfs.OS}
	fsys.fail.Store(true)
	opts.FS = fsys
	re, err := OpenPersistent(dir, time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := keys[3]
	if buf, _, ok := re.RangeInto(k, at(span), at(2*span), nil); !ok || !math.IsNaN(buf[0]) || re.degradedReads.Load() != 1 {
		t.Fatalf("a window over a chunk whose read fails: %v (%v), %d degraded reads; want NaN and 1", buf, ok, re.degradedReads.Load())
	}
	re.Append(Measurement{k, at(4*span + 1), -1})
	if re.degradedReads.Load() != 2 {
		t.Fatalf("%d degraded reads after a late write into a chunk whose read fails, want 2", re.degradedReads.Load())
	}
	if err := re.Compact(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("a merge that must copy chunks whose reads fail: %v, want the read's error", err)
	}
	if q := re.QuarantinedChunks(); q != 0 {
		t.Fatalf("%d chunks quarantined by reads that failed", q)
	}
	fsys.fail.Store(false)
	whole(re) // the dropped late write is not there
	if err := re.Compact(); err != nil {
		t.Fatalf("compact once reads pass: %v", err)
	}
	if q := re.QuarantinedChunks(); q != 0 {
		t.Fatalf("%d chunks quarantined", q)
	}
	re.Close()

	re, err = OpenPersistent(dir, time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if q := re.Recovered().QuarantinedChunks; q != 0 {
		t.Fatalf("the head holds %d tombstones", q)
	}
	whole(re)
	re.Append(Measurement{k, at(span + 1), -1}) // logged: the log holds a late write
	re.Close()
	fsys.fail.Store(true)
	if re, err := OpenPersistent(dir, time.Time{}, 0, opts); !errors.Is(err, faultfs.ErrInjected) {
		if err == nil {
			re.Close()
		}
		t.Fatalf("an open whose replayed late write cannot read its chunk: %v, want the read's error", err)
	}
	fsys.fail.Store(false)
	re, err = OpenPersistent(dir, time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if buf, _, ok := re.RangeInto(k, at(span+1), at(span+2), nil); !ok || buf[0] != -1 {
		t.Fatalf("the late write reads %v (%v) once reads pass, want -1", buf, ok)
	}
	if q := re.QuarantinedChunks(); q != 0 {
		t.Fatalf("%d chunks quarantined", q)
	}
}

// heldReadFS holds every read past a segment's header until release is
// closed, signalling entered at the first.
type heldReadFS struct {
	faultfs.FS
	entered, release chan struct{}
	once             sync.Once
}

type heldReadFile struct {
	faultfs.File
	fs *heldReadFS
}

func (fs *heldReadFS) Open(name string) (faultfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || !strings.HasPrefix(filepath.Base(name), segmentPrefix) {
		return f, err
	}
	return heldReadFile{f, fs}, nil
}

func (f heldReadFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= segmentHeaderLen {
		f.fs.once.Do(func() { close(f.fs.entered) })
		<-f.fs.release
	}
	return f.File.ReadAt(p, off)
}

// TestReplayReadsChunksOutsideTheShardLock: a subscriber's replay that
// reads a restored chunk from disk holds no shard lock while it does —
// an append to the same series completes while the read is held — and
// then returns the series whole.
func TestReplayReadsChunksOutsideTheShardLock(t *testing.T) {
	const span = 16
	dir := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = span
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := fleetKeys(1)[0]
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	for bin := range 2 * span {
		st.Append(Measurement{k, at(bin), float64(bin)})
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	fsys := &heldReadFS{FS: faultfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
	opts.FS = fsys
	re, err := OpenPersistent(dir, time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed := make(chan []Measurement)
	go func() { replayed <- re.ReplaySince(nil, t0) }()
	<-fsys.entered
	appended := make(chan struct{})
	go func() {
		re.Append(Measurement{k, at(2 * span), float64(2 * span)})
		close(appended)
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		close(fsys.release)
		t.Fatal("an append waited on a replay's chunk read")
	}
	close(fsys.release)
	got := <-replayed
	if len(got) < 2*span {
		t.Fatalf("the replay returned %d measurements, want at least %d", len(got), 2*span)
	}
	for bin, m := range got[:2*span] {
		if !m.T.Equal(at(bin)) || m.V != float64(bin) {
			t.Fatalf("replayed measurement %d: %v = %v, want bin %d", bin, m.T, m.V, bin)
		}
	}
}
