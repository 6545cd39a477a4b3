package monitor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/topo"
)

// TestSnapshotRoundTrip: gaps survive, and the restored store keeps
// working (see the store reference model's opSnapshot and opReopen).
func TestSnapshotRoundTrip(t *testing.T) {
	p := progOps(opAppend, 0, opGap, 2, opAppend, wr(1, 1, 0), opSnapshot, 0, opCompact, 0, opReopen, 0, opAppend, wr(1, 2, 0))
	runProgram(t, progConfig{span: 8, shards: 4}, p, nil)
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewStore(t0, time.Minute)
	got, err := restoreImage(imageOf(t, s))
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.SetChunkSpan(4)
	for bin := range 6 {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
	}
	good := imageOf(t, s)
	for i, head := range []string{
		"",
		"XXXX",
		"FNLH\x00\x63",                       // wrong version
		string(good.head[:len(good.head)-4]), // truncated
		string(good.head) + "\x00",           // trailing bytes
		string(good.head[:len(good.head)-1]) + "\x00", // checksum
	} {
		if _, err := restoreImage(image{head: []byte(head), seg: good.seg}); err == nil {
			t.Errorf("head case %d should fail", i)
		}
	}
	for i, seg := range []string{
		"",
		"XXXX",
		"FNLC\x00\x63",
		string(good.seg[:len(good.seg)-4]),
		string(good.seg) + "\x00",
	} {
		// An open reads a segment's header only: a segment cut short
		// quarantines the chunk its index entry then places past the end,
		// and trailing bytes go unread. The eager pass refuses both.
		st, err := restoreImage(image{head: good.head, seg: []byte(seg)})
		switch {
		case i < 3 && err == nil:
			t.Errorf("segment case %d should fail", i)
		case i == 3 && (err != nil || st.QuarantinedChunks() != 1):
			t.Errorf("a segment cut short: %v, want its last chunk quarantined at open", err)
		case i == 4 && (err != nil || st.QuarantinedChunks() != 0):
			t.Errorf("trailing bytes: %v, want them unread", err)
		}
		if _, err := restoreImageAs(image{head: good.head, seg: []byte(seg)}, true); err == nil {
			t.Errorf("segment case %d should fail the eager pass", i)
		}
	}
	if _, err := restoreImage(good); err != nil {
		t.Fatalf("the unpatched image: %v", err)
	}
}

// TestIndexEntryOutsideSegments: a CRC-valid head whose index places a
// chunk past its segment's end opens with that chunk quarantined and
// counted there, the rest of the series as written; one that places a
// chunk in a segment it does not list is refused.
func TestIndexEntryOutsideSegments(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.SetChunkSpan(4)
	for bin := range 10 {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
	}
	good := imageOf(t, s)
	heads := badIndexHeads(good)
	st, err := restoreImage(image{head: heads[0], seg: good.seg})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := st.Series(kCPU)
	for bin, v := range got.Values {
		if (bin < 4) != math.IsNaN(v) || bin >= 4 && v != float64(bin) {
			t.Fatalf("bin %d = %v: want chunk 0 NaN, the rest as written", bin, v)
		}
	}
	if st.QuarantinedChunks() != 1 {
		t.Fatalf("%d chunks quarantined, want the one past the segment", st.QuarantinedChunks())
	}
	if _, err := restoreImage(image{head: heads[1], seg: good.seg}); err == nil || !strings.Contains(err.Error(), "a chunk in segment 1 of a head that lists 1") {
		t.Fatalf("a chunk in a segment the head does not list: %v", err)
	}
}

// TestSnapshotBadScope: a series or group whose scope byte names none
// of the three scopes is refused on read (a group by the eager pass,
// which reads the groups). Append drops such a key, so
// the bad file is a valid one with the first key's scope byte patched
// (and the head's checksum made good again).
func TestSnapshotBadScope(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.SetChunkSpan(2)
	s.Append(Measurement{kCPU, t0, 1})
	s.Append(Measurement{kCPU, t0.Add(time.Minute), 2})
	im := imageOf(t, s)
	const headScopeAt = 4 + 2 + 8 + 8 + 4 + 8 + 4 + 9 + 4 // header, one segment, series count
	const segScopeAt = 4 + 2 + 4 + 4
	if _, err := restoreImage(im); err != nil || im.head[headScopeAt] != byte(kCPU.Scope) || im.seg[segScopeAt] != byte(kCPU.Scope) {
		t.Fatalf("unpatched image: %v, scope bytes %d and %d", err, im.head[headScopeAt], im.seg[segScopeAt])
	}
	head := bytes.Clone(im.head)
	head[headScopeAt] = 99
	binary.BigEndian.PutUint32(head[len(head)-4:], crc32.ChecksumIEEE(head[:len(head)-4]))
	if _, err := restoreImage(image{head: head, seg: im.seg}); err == nil || !strings.Contains(err.Error(), "bad scope") {
		t.Fatalf("a head series of invalid scope: %v", err)
	}
	seg := bytes.Clone(im.seg)
	seg[segScopeAt] = 99
	if _, err := restoreImageAs(image{head: im.head, seg: seg}, true); err == nil || !strings.Contains(err.Error(), "bad scope") {
		t.Fatalf("a segment group of invalid scope: %v", err)
	}
}

// A snapshot key costs one allocation, which both strings share: the
// bytes are gathered in the caller's scratch.
func TestReadSnapshotStringAllocs(t *testing.T) {
	keys := []topo.KPIKey{
		{Scope: topo.ScopeServer, Entity: "srv-0042", Metric: "cpu.util"},
		{Scope: topo.ScopeService, Entity: "grp000.core", Metric: ""},
		{Scope: topo.ScopeInstance, Entity: "", Metric: ""},
	}
	var framed []byte
	for _, k := range keys {
		framed, _ = appendKey(framed, k)
	}
	scratch := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(20, func() {
		b := framed
		for _, want := range keys {
			var got topo.KPIKey
			got, b, scratch = snapshotKey(b, scratch)
			if got != want {
				t.Fatalf("read %v; want %v", got, want)
			}
		}
	})
	if allocs != 2 { // the empty key allocates nothing
		t.Fatalf("%v allocations for 3 keys, want 2", allocs)
	}
}

// TestRestoreSeriesAllocs pins what restoring a series from a head
// allocates: its entry, key, chunk list, and each chunk, which reads its
// bytes from the segment at its first decode. Its tail is cut from its
// worker's slab (keyRuns.newTail), and so is each chunk's location
// (recoveryWorker.sources), and the pass's own allocations — store, maps sized
// from the header, blocks, workers — do not grow with the series count.
func TestRestoreSeriesAllocs(t *testing.T) {
	build := func(n int) image {
		s := NewStore(t0, time.Minute)
		s.SetChunkSpan(16)
		for i := range n {
			k := topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("srv-%04d", i), Metric: "cpu.util"}
			for bin := range 20 { // one chunk and a tail of 4
				s.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin * i)})
			}
		}
		return imageOf(t, s)
	}
	restore := func(im image) float64 {
		return testing.AllocsPerRun(5, func() {
			if st, err := restoreImage(im); err != nil || st.Len() == 0 {
				t.Fatalf("restore: %v", err)
			}
		})
	}
	small, large := restore(build(256)), restore(build(2048))
	perSeries := (large - small) / (2048 - 256)
	t.Logf("%.3f allocations per restored series", perSeries)
	if perSeries > 4.05 {
		t.Fatalf("%.2f allocations per restored series (%v for 256, %v for 2048), want 4", perSeries, small, large)
	}
}

// TestRestoredTailHasSpanCapacity: a series restored with a head's
// tail holds it at span capacity, where replay appends in place, and
// one without a tail holds none; after a reopen replays bins onto the
// tail, it still has span capacity and the store's values. At a span
// wider than a slab the tail is its own size.
func TestRestoredTailHasSpanCapacity(t *testing.T) {
	const span = 16
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, PersistOptions{Shards: 4, SyncInterval: -1, CompactBytes: -1, ChunkSpan: span})
	if err != nil {
		t.Fatal(err)
	}
	tailed := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "tailed"}
	sealed := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "sealed"}
	write := func(k topo.KPIKey, lo, hi int) {
		for bin := lo; bin < hi; bin++ {
			st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
		}
	}
	write(tailed, 0, span+4)
	write(sealed, 0, span)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := imageOf(t, st)
	write(tailed, span+4, span+7) // into the log, onto the head's tail
	want := snapshotBytes(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := restoreImage(snap)
	if err != nil {
		t.Fatal(err)
	}
	if e := restored.shardFor(tailed).series[tailed]; len(e.tail) != 4 || cap(e.tail) != span {
		t.Fatalf("restored tail holds %d bins at capacity %d, want 4 at %d", len(e.tail), cap(e.tail), span)
	}
	if e := restored.shardFor(sealed).series[sealed]; e.tail != nil {
		t.Fatalf("a series restored without a tail holds one of capacity %d", cap(e.tail))
	}
	// A span wider than a slab gets a tail of its own bins: a header's
	// span alone cannot demand memory.
	wide := NewStore(t0, time.Minute)
	wide.SetChunkSpan(maxSnapshotSpan)
	wide.Append(Measurement{tailed, t0, 1})
	if restored, err = restoreImage(imageOf(t, wide)); err != nil {
		t.Fatal(err)
	}
	if e := restored.shardFor(tailed).series[tailed]; len(e.tail) != 1 || cap(e.tail) > slabBins {
		t.Fatalf("at span %d the restored tail holds %d bins at capacity %d", maxSnapshotSpan, len(e.tail), cap(e.tail))
	}

	re, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e := re.shardFor(tailed).series[tailed]; e.tailLen() != 7 || cap(e.tail) != span {
		t.Fatalf("after replay the tail holds %d bins at capacity %d, want 7 at %d", e.tailLen(), cap(e.tail), span)
	}
	if got := snapshotBytes(t, re); !bytes.Equal(got, want) {
		t.Fatal("the reopened store differs from the one closed")
	}
}

// image is a store's head and one base segment holding every chunk —
// the files a compaction that writes a base leaves — in memory.
type image struct{ head, seg []byte }

// imageOf writes s's image: its head lists one base segment, number 1.
func imageOf(t testing.TB, s *Store) image {
	t.Helper()
	var c snapshotCut
	c.take(s)
	defer c.release()
	var head, seg bytes.Buffer
	if err := c.writeSegment(&seg, pickAll); err != nil {
		t.Fatal(err)
	}
	if err := c.writeHead(&head, []segmentRef{{seq: 1, level: baseLevel}}); err != nil {
		t.Fatal(err)
	}
	return image{head: head.Bytes(), seg: seg.Bytes()}
}

// snapshotBytes dumps a store for byte-level comparison: its image's
// head and segment, back to back.
func snapshotBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	im := imageOf(t, s)
	return append(im.head, im.seg...)
}

// restoreImage reconstructs a default-striped Store from an image whose
// head lists segment 1 (or none), as recovery reads a directory's, and
// counts its quarantined chunks the way an open does.
func restoreImage(im image) (*Store, error) {
	return restoreImageAs(im, false)
}

// restoreImageAs is restoreImage on the eager pass, Fsck's, when eager
// is set.
func restoreImageAs(im image, eager bool) (*Store, error) {
	rc := &recovery{shards: StoreShards, eager: eager}
	err := rc.restore(im)
	rc.join()
	if err != nil {
		return nil, err
	}
	if n := rc.stats.QuarantinedChunks; n > 0 {
		rc.store.quarantined.Add(int64(n))
	}
	if rc.mismatches > 0 {
		return nil, fmt.Errorf("%d index entries disagree with the segment", rc.mismatches)
	}
	return rc.store, nil
}

func (rc *recovery) restore(im image) error {
	rc.fsys = memFS{headFile: im.head, segmentName(1): im.seg}
	d := dirListing{headSize: int64(len(im.head)), segs: map[uint64]int64{1: int64(len(im.seg))}}
	return rc.readImage("", d)
}

// memFS serves files from memory, by base name, for reading.
type memFS map[string][]byte

func (m memFS) Open(name string) (faultfs.File, error) {
	b, ok := m[filepath.Base(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return memFile{bytes.NewReader(b)}, nil
}
func (memFS) Create(string) (faultfs.File, error)   { return nil, errors.ErrUnsupported }
func (memFS) Rename(string, string) error           { return errors.ErrUnsupported }
func (memFS) Remove(string) error                   { return errors.ErrUnsupported }
func (memFS) MkdirAll(string, fs.FileMode) error    { return errors.ErrUnsupported }
func (memFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, errors.ErrUnsupported }

type memFile struct{ *bytes.Reader }

func (memFile) Write([]byte) (int, error) { return 0, errors.ErrUnsupported }
func (memFile) Close() error              { return nil }
func (memFile) Sync() error               { return nil }

// installedImage is the image of what dir's head and live segments hold
// (see snapshotBytes), or nil when it has no head.
func installedImage(t testing.TB, dir string) []byte {
	t.Helper()
	rc := &recovery{fsys: faultfs.OS, shards: StoreShards}
	d, err := scanDir(faultfs.OS, dir)
	if err != nil || d.headSize < 0 {
		return nil
	}
	err = rc.readImage(dir, d)
	rc.join()
	defer rc.closeSegments()
	if err != nil {
		t.Fatalf("reading the installed head: %v", err)
	}
	return snapshotBytes(t, rc.store)
}
