package monitor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultfs"
	"repro/internal/topo"
)

// The segment store: the durable image of a Store, so a FUNNEL
// deployment can restart without losing the 30-day baselines the
// seasonal DiD needs (§3.2.5). Sealed chunks are immutable, so each is
// written once, into an immutable segment file, and stays there; what
// changes from one compaction to the next — the horizon, the series,
// each series' first chunk, chunk count and unsealed bins — goes into
// one small head file, rewritten whole. The data directory stays flat:
//
//	head.fnlh     — the head, the commit point: written to head.tmp,
//	  fsynced, renamed over, and the directory fsynced
//	seg-<seq>.fnlc — a segment; the head lists the live ones, and any
//	  other is the leftover of a compaction that died, which the next
//	  open removes
//
// Head layout (all integers big-endian):
//
//	magic "FNLH" | version uint16 (3) | startUnixNano int64 |
//	stepNanos int64 | chunkSpan uint32 | horizon uint64 |
//	segmentCount uint32, then per live segment, oldest first:
//	  seq uint64 | level uint8,
//	seriesCount uint32, then per series:
//	  scope uint8 | entityLen uint16 | entity | metricLen uint16 |
//	  metric | first uint32 | chunkCount uint32,
//	  then per chunk, by ascending index, its index entry:
//	    segment uint8 | offset uint64 | encLen uint32 | crc32(data) uint32,
//	  then tailCount uint32 | tailCount × float64 bits,
//	crc32(every byte before it) uint32
//
// An index entry says where the chunk's live copy lies: its segment, as
// a position in the head's segment list, the offset of its encoded
// bytes in that file, their length and their CRC — or, with encLen the
// sentinel 0xFFFFFFFF (offset and crc 0), that the chunk is quarantined.
//
// Segment layout:
//
//	magic "FNLC" | version uint16 | chunkSpan uint32 | groupCount uint32,
//	then per group (one series):
//	  scope uint8 | entityLen uint16 | entity | metricLen uint16 |
//	  metric | chunkCount uint32,
//	  then per chunk, by ascending index:
//	    index uint32 | encLen uint32 | crc32(data) uint32 | encLen
//	    encoded bytes (see internal/chunk), or index uint32 | the
//	    sentinel 0xFFFFFFFF for a quarantined chunk (no crc, no data)
//
// Bin indices are absolute: bin 0 is the epoch, for the store's whole
// life. horizon is the lowest bin a write may land in (see Store.Prune),
// and a series' chunks are chunks first, first+1, …, first+chunkCount−1,
// chunk i holding bins [i·span, (i+1)·span); its unsealed bins follow.
// A series' chunk i is the copy of (key, i) in the newest live segment
// that holds one — the one its index entry names; every index of the
// series must have one, and a copy of an index below first is a pruned
// chunk, stepped over. Series and groups are written in sorted key order
// (scope, entity, metric) and the chunk encoder is deterministic, so the
// same compactions of the same data write the same bytes.
//
// Version 2 is version 3 without the index entries: its chunks are
// found by reading every live segment's groups. Version 1 is version 2
// without the horizon, and with each series' count of pruned bins inside
// its first chunk (head) in place of first, in a store whose prune
// renumbered bins. A version 1 head whose series all have head 0 reads
// as version 2 with horizon 0 and first 0: the same store. One with any
// other head is refused; commit e8b4fb7 is the last build that reads it.
// Both open through the eager segment pass (see recover.go), and the
// next compaction writes version 3.
//
// What a compaction writes (persister.compactAs): one new segment
// holding the chunks no live segment holds — the newly sealed ones and
// the ones a late write rebuilt, which are new chunks, where a chunk
// read back or written before records the segment and offset of its
// newest copy (chunk.SetHome) — and a fresh head that indexes every
// chunk. Segments merge binary-counter style: a segment has a level, the
// new one 0, and it absorbs the newest live segments while their levels
// read 0, 1, 2, … back from the newest, taking the level one past the
// last it absorbed; it writes the chunks whose home is one of them
// again, so a merged segment holds each chunk of its inputs once, its
// newest copy, and none that a Prune dropped. A chunk an open left on
// disk is copied from the segment it was read from, its CRC checked on
// the way, and stays off the heap (chunk.Encoded). So O(log n) segments
// are live after n compactions and a chunk is rewritten O(log n) times.
// A base segment, which holds every chunk, is never merged: the first
// compaction and an fsck repair write one, and the head then lists it
// alone.
//
// Reading is a recovery pass's first stream (see recover.go): one
// reader checks the head's framing a block at a time and hands each
// series to the worker that owns its key's shard, which builds the entry
// with each chunk unread (chunk.Unread) where its index entry says it
// lies. Of each live segment an open reads only the header. A chunk's
// first decode (chunk.Check) reads its bytes with one ReadAt, checks
// their CRC and walks the stream, so an open reads no chunk byte and a
// chunk nothing decodes is never read. The eager pass — Fsck's, and a
// version 2 head's — also streams every live segment's groups, oldest
// first: for a version 2 head the workers set each chunk from a group
// (a later copy supersedes an earlier one) after checking its CRC, and
// Fsck checks a version 3 head's index against them.
//
// A chunk whose bytes fail their CRC, or that no live segment holds, is
// quarantined, not fatal: a NaN tombstone takes its place and the store
// goes on. The open counts the head's tombstones and the chunks whose
// index entry lies past their segment's end; a chunk whose bytes fail at
// its first decode becomes a tombstone there, as one whose stream passes
// its CRC and fails its walk does. The corruption then surfaces through
// the store's gap accounting as an explicitly degraded (Inconclusive)
// verdict rather than a crash or a confident lie. A read that fails (an
// I/O error) is not the bytes' loss and quarantines nothing: the decode
// that met it reads NaN, the merge that met it fails (and the persister
// retries it if the error is transient), a replayed late write that met
// it fails the open, and the chunk stays where it is.
// Quarantined chunks round-trip through the sentinel. A head whose
// checksum fails, a segment whose header does not match the head's, or
// a file whose framing breaks ends the open with an error.
//
// This is the one on-disk form of a store's image. The single-file
// snapshot.fnls of version 3 is refused by name; commit 17935ff is the
// last build that reads it.
const (
	headMagic      = "FNLH"
	segmentMagic   = "FNLC"
	headVersion    = 3
	segmentVersion = 1

	headFile       = "head.fnlh"
	headTmpFile    = "head.tmp"
	segmentPrefix  = "seg-"
	segmentSuffix  = ".fnlc"
	legacySnapshot = "snapshot.fnls"
)

// segmentName is the one naming rule for segments.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%d%s", segmentPrefix, seq, segmentSuffix)
}

// errLegacySnapshot refuses a directory holding a version 3 snapshot.
var errLegacySnapshot = errors.New("monitor: unsupported snapshot version 3 (" + legacySnapshot + "): the last build that reads it is commit 17935ff")

// chunkTombstone is the encLen sentinel marking a quarantined chunk in
// a segment.
const chunkTombstone = 0xFFFFFFFF

// segmentHeaderLen is the size of a segment's header: magic, version,
// chunk span and group count.
const segmentHeaderLen = 4 + 2 + 4 + 4

// indexEntryLen is the size of a head's index entry for one chunk.
const indexEntryLen = 1 + 8 + 4 + 4

// baseLevel is a base segment's level: no merge absorbs it.
const baseLevel = 0xFF

// maxLiveSegments bounds the segment list a head may declare: levels
// below baseLevel, plus the base.
const maxLiveSegments = 64

// maxSnapshotSpan bounds the chunk span a head or segment may declare.
// Real spans are a few hundred bins (a day is 1440); the bound exists
// because the per-chunk allocation limit is derived from the span, so a
// corrupt header must not be able to demand gigabytes.
const maxSnapshotSpan = 1 << 20

// segmentRef is one live segment: its sequence number, which names
// its file, its merge level, and its size on disk.
type segmentRef struct {
	seq   uint64
	level uint8
	size  int64
}

// snapshotCut is an immutable image of a store, taken under its locks
// and written after they are released: the epoch and the horizon, and
// per series the key, first chunk, the chunks slice header as it stood,
// and a copy of the unsealed bins. Sealed chunks are immutable and a published chunks
// slice is never written in place — it only grows past the length a
// reader captured, or is replaced (see seriesEntry) — so the headers
// keep describing the cut while writers go on.
type snapshotCut struct {
	start   time.Time
	step    time.Duration
	span    int
	horizon int64
	// series is sorted by key once sort has run.
	series []cutSeries
	// bins holds every series' unsealed bins, tail then line, back to
	// back; a compacting persister reuses it from one cut to the next.
	bins []float64
	// picks holds the chunk indices the last segment write took, series
	// i's ending at ends[i], and offs the offset it wrote each one's
	// bytes at, −1 for a tombstone.
	picks, ends []int
	offs        []int64
	// failed counts the unread chunks whose copy into a segment found
	// their bytes bad, each made a tombstone there (chunk.Encoded); buf
	// is what the copies read into.
	failed int
	buf    []byte
}

// cutSeries is one series of a cut; bins[lo:hi] of the cut are its
// unsealed bins.
type cutSeries struct {
	key    topo.KPIKey
	first  int
	chunks []*chunk.Chunk
	lo, hi int
}

// reserve sizes c's buffers for a cut of s, with room for an eighth
// more series and bins than s holds now, and touches them. It counts a
// shard at a time under its read lock, so that the cut, taken under
// every lock, neither allocates nor faults in fresh pages while ingest
// waits.
func (c *snapshotCut) reserve(s *Store) {
	series, bins := 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		series += len(sh.series)
		for _, e := range sh.series {
			bins += e.tailLen()
		}
		sh.mu.RUnlock()
	}
	series += series / 8
	bins += bins/8 + series*pendBins
	if cap(c.series) < series {
		c.series = make([]cutSeries, series)[:0]
	}
	if cap(c.bins) < bins {
		c.bins = make([]float64, bins)
		clear(c.bins) // fault the pages in here, not under the locks
		c.bins = c.bins[:0]
	}
}

// takeLocked captures s into c, reusing c's buffers. The caller holds
// every shard lock, for reading at least.
func (c *snapshotCut) takeLocked(s *Store) {
	c.start, c.step, c.span, c.horizon = s.start, s.step, s.span, s.horizon.Load()
	c.series, c.bins = c.series[:0], c.bins[:0]
	for i := range s.shards {
		for k, e := range s.shards[i].series {
			lo := len(c.bins)
			c.bins = append(c.bins, e.tail...)
			c.bins = append(c.bins, e.pend[:e.npend]...)
			c.series = append(c.series, cutSeries{key: k, first: e.first, chunks: e.chunks, lo: lo, hi: len(c.bins)})
		}
	}
}

// take is takeLocked for a caller that holds no lock.
func (c *snapshotCut) take(s *Store) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	c.takeLocked(s)
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
	c.sort()
}

// sort puts the cut's series in key order (scope, entity, metric): the
// order of series in a head and of groups in a segment.
func (c *snapshotCut) sort() {
	sort.Slice(c.series, func(i, j int) bool {
		a, b := &c.series[i].key, &c.series[j].key
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		return a.Metric < b.Metric
	})
}

// release drops the cut's references to the store's chunks, so a kept
// cut does not hold pruned history alive.
func (c *snapshotCut) release() { clear(c.series) }

// writeHead writes the cut as a head file listing live, series in key
// order (the cut is sorted). live's last segment is the one the cut's
// last writeSegment wrote: a chunk it took is indexed there, any other
// where its home is, which live must list.
func (c *snapshotCut) writeHead(w io.Writer, live []segmentRef) error {
	sum := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), 1<<16)
	rec := append(make([]byte, 0, 256), headMagic...)
	rec = binary.BigEndian.AppendUint16(rec, headVersion)
	rec = binary.BigEndian.AppendUint64(rec, uint64(c.start.UnixNano()))
	rec = binary.BigEndian.AppendUint64(rec, uint64(c.step))
	rec = binary.BigEndian.AppendUint32(rec, uint32(c.span))
	rec = binary.BigEndian.AppendUint64(rec, uint64(c.horizon))
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(live)))
	pos := make(map[uint64]int, len(live))
	for i, g := range live {
		rec = binary.BigEndian.AppendUint64(rec, g.seq)
		rec = append(rec, g.level)
		pos[g.seq] = i
	}
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(c.series)))
	if _, err := bw.Write(rec); err != nil {
		return err
	}
	newest := len(live) - 1
	from := 0
	for i, cs := range c.series {
		rec, err := appendKey(rec[:0], cs.key)
		if err != nil {
			return err
		}
		tail := c.bins[cs.lo:cs.hi]
		rec = binary.BigEndian.AppendUint32(rec, uint32(cs.first))
		rec = binary.BigEndian.AppendUint32(rec, uint32(len(cs.chunks)))
		picked := c.picks[from:c.ends[i]]
		for ci, ck := range cs.chunks {
			seg, off := newest, int64(-1)
			if len(picked) > 0 && picked[0] == ci {
				off, picked = c.offs[from], picked[1:]
				from++
			} else {
				seq, at := ck.Home()
				p, ok := pos[seq]
				if !ok {
					return fmt.Errorf("monitor: chunk %d of %v lies in %s, which the head does not list", cs.first+ci, cs.key, segmentName(seq))
				}
				seg, off = p, at
				if ck.Quarantined() && ck.Data() == nil {
					off = -1
				}
			}
			rec = append(rec, byte(seg))
			if off < 0 {
				rec = binary.BigEndian.AppendUint64(rec, 0)
				rec = binary.BigEndian.AppendUint32(rec, chunkTombstone)
				rec = binary.BigEndian.AppendUint32(rec, 0)
				continue
			}
			rec = binary.BigEndian.AppendUint64(rec, uint64(off))
			rec = binary.BigEndian.AppendUint32(rec, uint32(ck.EncodedBytes()))
			rec = binary.BigEndian.AppendUint32(rec, ck.CRC())
		}
		from = c.ends[i]
		rec = binary.BigEndian.AppendUint32(rec, uint32(len(tail)))
		for _, v := range tail {
			rec = binary.BigEndian.AppendUint64(rec, math.Float64bits(v))
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.BigEndian.AppendUint32(rec[:0], sum.Sum32()))
	return err
}

// pickFunc appends to idx the indices of cs's chunks a segment takes,
// ascending.
type pickFunc func(cs *cutSeries, idx []int) []int

// pickAll takes every chunk: a base segment.
func pickAll(cs *cutSeries, idx []int) []int {
	for i := range cs.chunks {
		idx = append(idx, i)
	}
	return idx
}

// pickHomes returns a pickFunc that takes the chunks no live segment
// holds — the ones sealed since the last compaction, and the ones a late
// write rebuilt — and the ones whose home is in folded, the segments a
// merge absorbs.
func pickHomes(folded []segmentRef) pickFunc {
	return func(cs *cutSeries, idx []int) []int {
		for i, ck := range cs.chunks {
			if h, _ := ck.Home(); h == 0 || slices.ContainsFunc(folded, func(g segmentRef) bool { return g.seq == h }) {
				idx = append(idx, i)
			}
		}
		return idx
	}
}

// writeSegment writes a segment of the chunks pick takes from the cut,
// groups in key order (the cut is sorted), and records where it wrote
// each chunk's bytes for writeHead and setHomes. A chunk an open left
// unread is copied from its segment, CRC-checked, without decoding it; a
// bad one is written as a tombstone, and counted in failed. A copy whose
// read fails fails the segment, and with it the compaction; the chunk
// keeps its bytes where they are.
func (c *snapshotCut) writeSegment(w io.Writer, pick pickFunc) error {
	// The picks first: the header counts the groups.
	c.picks, c.ends, c.offs, c.failed = c.picks[:0], c.ends[:0], c.offs[:0], 0
	groups := 0
	for i := range c.series {
		n := len(c.picks)
		c.picks = pick(&c.series[i], c.picks)
		if len(c.picks) > n {
			groups++
		}
		c.ends = append(c.ends, len(c.picks))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	rec := append(make([]byte, 0, 256), segmentMagic...)
	rec = binary.BigEndian.AppendUint16(rec, segmentVersion)
	rec = binary.BigEndian.AppendUint32(rec, uint32(c.span))
	rec = binary.BigEndian.AppendUint32(rec, uint32(groups))
	if _, err := bw.Write(rec); err != nil {
		return err
	}
	at := int64(len(rec)) // the file offset rec starts at
	from := 0
	for i, cs := range c.series {
		idx := c.picks[from:c.ends[i]]
		from = c.ends[i]
		if len(idx) == 0 {
			continue
		}
		rec, err := appendKey(rec[:0], cs.key)
		if err != nil {
			return err
		}
		rec = binary.BigEndian.AppendUint32(rec, uint32(len(idx)))
		for _, ci := range idx {
			ck := cs.chunks[ci]
			rec = binary.BigEndian.AppendUint32(rec, uint32(cs.first+ci))
			if n := ck.EncodedBytes(); cap(c.buf) < n {
				c.buf = make([]byte, 0, n)
			}
			data, failed, err := ck.Encoded(c.buf)
			if err != nil {
				return fmt.Errorf("monitor: copying a chunk of %v: %w", cs.key, err)
			}
			if failed {
				c.failed++
			}
			if data == nil {
				rec = binary.BigEndian.AppendUint32(rec, chunkTombstone)
				c.offs = append(c.offs, -1)
				continue
			}
			rec = binary.BigEndian.AppendUint32(rec, uint32(len(data)))
			rec = binary.BigEndian.AppendUint32(rec, ck.CRC())
			if _, err := bw.Write(rec); err != nil {
				return err
			}
			at += int64(len(rec))
			c.offs = append(c.offs, at)
			if _, err := bw.Write(data); err != nil {
				return err
			}
			at += int64(len(data))
			rec = rec[:0]
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
		at += int64(len(rec))
	}
	return bw.Flush()
}

// setHomes records the segment the cut's last writeSegment wrote, seq,
// and the offset of each chunk's bytes there as the home of the chunks
// it took, once the head that lists it is installed.
func (c *snapshotCut) setHomes(seq uint64) {
	from := 0
	for i, cs := range c.series {
		for k, ci := range c.picks[from:c.ends[i]] {
			cs.chunks[ci].SetHome(seq, max(c.offs[from+k], 0))
		}
		from = c.ends[i]
	}
}

// writeSegmentFile writes a segment of the chunks pick takes from c to
// dir as seg-<seq>, fsynced, and returns its size. A failed write
// removes the file.
func writeSegmentFile(fsys faultfs.FS, dir string, seq uint64, c *snapshotCut, pick pickFunc) (int64, error) {
	path := filepath.Join(dir, segmentName(seq))
	f, err := fsys.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	err = c.writeSegment(cw, pick)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(path)
		return 0, err
	}
	return cw.n, nil
}

// commitHead installs a head of c listing live: it is written to
// head.tmp and fsynced, renamed over head.fnlh — the commit point — and
// the directory is fsynced. It returns the head's size.
func commitHead(fsys faultfs.FS, dir string, c *snapshotCut, live []segmentRef) (int64, error) {
	tmpPath := filepath.Join(dir, headTmpFile)
	f, err := fsys.Create(tmpPath)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	err = c.writeHead(cw, live)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmpPath, filepath.Join(dir, headFile))
	}
	if err != nil {
		fsys.Remove(tmpPath)
		return 0, err
	}
	return cw.n, syncFSDir(fsys, dir)
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
