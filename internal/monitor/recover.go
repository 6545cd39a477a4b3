package monitor

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultfs"
	"repro/internal/topo"
)

// Recovery rebuilds a store from a data directory in one pass, the same
// one for OpenPersistent and Fsck (recoverDir). One reader streams the
// head file and then each log generation, oldest first, in file order, a
// block at a time, to one pool of at most GOMAXPROCS workers; worker w
// owns the store shards si with si mod W = w.
//
//   - A head series goes to the owner of its key's shard, which builds
//     the entry from the block's bytes — each chunk unread where its
//     index entry says it lies (chunk.Unread), to be read at its first
//     decode — cuts its tail at span capacity from the worker's slab,
//     where replay appends (keyRuns.newTail), and installs it. Of each
//     live segment the reader reads only the header, before the series.
//   - The eager pass — Fsck's, and a version 2 head's — then streams
//     each live segment, oldest first, and hands each group to the same
//     worker. For a version 2 head, whose series' chunk slots are empty,
//     the worker fills them from it: each chunk's CRC is checked (a
//     tombstone in place of one that fails), its token walk left to its
//     first decode, and a later segment's copy supersedes an earlier
//     one; at the end of the segments it tombstones every slot no
//     segment filled. For Fsck's version 3 head it checks that each
//     chunk's newest copy lies where the head's index says.
//   - A log record goes to the worker its shard byte names, modulo W.
//     Its keys are the owner's own when the writing layout is the
//     reading one; each worker's queue is FIFO, so its restored series
//     are installed before it applies a record. A key that lives in
//     another worker's shard — a reopen at another shard count — makes
//     the worker wait, once, for every worker's installs.
//   - A generation's records are all applied before the next
//     generation's first is handed out: a key's writer shard, and with it
//     its worker, can change between generations.
//
// The reader frames and checks, the workers build and apply: a head or
// segment whose framing breaks, a head whose checksum fails, a log read
// that fails, or a restored chunk's read that fails under a replayed
// late write, ends the pass with an error, every worker is joined and
// every segment it opened closed before recoverDir returns. The
// pass's store keeps the live segments open (recovery.segs) for the
// chunks left on disk.

// replayBlock is how much of a file the reader frames before it hands
// the items on, regrouped by worker; it holds the largest log record,
// and a block grows for a head series or segment group that does not
// fit. replayPiece is how much of that it reads at a time: little
// enough to still be in cache when the items it completes are framed.
const (
	replayBlock = 2 << 20
	replayPiece = 256 << 10
)

// minHeadSeries is the fewest bytes a head series takes: a scope, two
// empty strings, first chunk, chunk count and tail count. It bounds the shard
// maps' pre-sizing by the head's size, so that a corrupt series count
// cannot demand memory. minSegmentChunk, a chunk's index and the
// tombstone sentinel, bounds a series' chunk count by the live segments'
// size so.
const (
	minHeadSeries   = 1 + 2 + 2 + 4 + 4 + 4
	minSegmentChunk = 4 + 4
)

// recovery is one recovery pass: the reader's state, the worker pool
// and what the pass found.
type recovery struct {
	fsys   faultfs.FS
	shards int
	span   int // the chunk span of a store without a head; 0 keeps the default
	// eager streams every live segment's groups after the head: Fsck sets
	// it, and a head older than version 3 does.
	eager bool
	store *Store

	workers []*recoveryWorker
	wg      sync.WaitGroup // the workers
	// snapshotDone is released by every worker at the end of the head and
	// segments, genDone at a generation's.
	snapshotDone, genDone sync.WaitGroup
	// free hands a block back to the reader once every worker that had
	// items in it is done with them. A pass makes maxBlocks blocks at
	// most, and free has room for all of them.
	free       chan []byte
	blocks     int
	restoredAt int64 // the arrival watermark of every restored series
	// grp groups a log block's records by shard byte.
	grp shardGrouping

	stats RecoveryStats
	// live is the head's segment list, with each file's size, and segs
	// the open segments, in its order; version is the head's. headBytes
	// is the head's size and snapBytes its and the live segments' (0
	// without a head). maxSeq is the highest segment number on disk.
	live                 []segmentRef
	segs                 []*segmentFile
	version              uint16
	headBytes, snapBytes int64
	maxSeq               uint64
	// mismatches counts the chunks whose newest copy in the segments is
	// not the one the head's index names (eager pass, version 3 only).
	mismatches int
	gens       []walReplay
	// readErr is the first read of a restored chunk that a replayed late
	// write needed and that failed.
	readErr error
}

// maxBlocks caps the blocks a pass makes: one the reader fills while the
// workers hold the others.
const maxBlocks = 3

// walReplay is the outcome of replaying one generation.
type walReplay struct {
	gen     uint64
	path    string
	version uint16        // the header's; 0 when it could not be read
	stats   RecoveryStats // WALRecords, TornTails and LogBytes of this log
	// tornAt is the file offset of the record that ended the replay and
	// unread the bytes from there to the end of the file, when one did.
	tornAt, unread int64
	err            error
}

// recoverDir reads the head, its live segments' headers — and with
// eager, their groups too — and every log generation in dir into a
// store with the given shard count, and returns the pass: its store (nil
// when dir holds neither a head nor a readable log header), the open
// segments its chunks read from, stats and per-generation outcomes. Its
// error is a failed listing, a version 3 snapshot, or an unreadable head
// or segment, and it then has closed every segment; a generation's is in
// its walReplay, and the generations after it still replay.
func recoverDir(fsys faultfs.FS, dir string, shards, span int, eager bool) (*recovery, error) {
	r := &recovery{fsys: fsys, shards: shards, span: span, eager: eager}
	defer r.join()
	began := time.Now()
	d, err := scanDir(fsys, dir)
	if err != nil {
		return r, err
	}
	if d.legacy {
		return r, fmt.Errorf("%w; %s", errLegacySnapshot, filepath.Join(dir, legacySnapshot))
	}
	for seq := range d.segs {
		r.maxSeq = max(r.maxSeq, seq)
	}
	if d.headSize >= 0 {
		if err := r.readImage(dir, d); err != nil {
			r.join()
			r.closeSegments()
			return r, fmt.Errorf("monitor: recovering the head and segments: %w", err)
		}
	}
	r.stats.SnapshotTime = time.Since(began)
	r.gens = make([]walReplay, len(d.gens))
	for i, g := range d.gens {
		out := &r.gens[i]
		out.gen, out.path = g.gen, g.path
		out.err = r.replayLog(g.path, out)
		r.stats.WALRecords += out.stats.WALRecords
		r.stats.TornTails += out.stats.TornTails
		r.stats.LogBytes += out.stats.LogBytes
	}
	r.stats.Generations = len(d.gens)
	r.join()
	if r.readErr != nil {
		// A replayed late write could not read the restored chunk it
		// lands in. Made over NaN, the write would lose the chunk's
		// bytes; dropped, its measurement, which only the logs hold,
		// would be gone after the next compaction. The open fails
		// instead, and the next one reads again.
		r.closeSegments()
		return r, fmt.Errorf("monitor: replaying a late write into a restored chunk: %w", r.readErr)
	}
	r.stats.ReplayTime = time.Since(began) - r.stats.SnapshotTime
	return r, nil
}

// closeSegments closes the segments the pass opened.
func (r *recovery) closeSegments() {
	for _, sf := range r.segs {
		sf.f.Close()
	}
	r.segs = nil
}

// dirListing is what scanDir finds: the log generations, oldest first,
// the head's size (−1 when there is none), every segment file's size by
// sequence number, and whether a version 3 snapshot is there.
type dirListing struct {
	gens     []walGeneration
	headSize int64
	segs     map[uint64]int64
	legacy   bool
}

// scanDir lists dir once. A wal- or seg- file that does not follow its
// naming rule is an error, not something to step over: it may hold
// records.
func scanDir(fsys faultfs.FS, dir string) (d dirListing, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return d, err
	}
	d.headSize, d.segs = -1, make(map[uint64]int64)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var seq uint64
		switch {
		case name == legacySnapshot:
			d.legacy = true
		case name == headFile:
			info, err := e.Info()
			if err != nil {
				return d, err
			}
			d.headSize = info.Size()
		case strings.HasPrefix(name, segmentPrefix):
			if _, err := fmt.Sscanf(name, segmentPrefix+"%d"+segmentSuffix, &seq); err != nil || segmentName(seq) != name {
				return d, fmt.Errorf("monitor: unrecognised segment file %s", filepath.Join(dir, name))
			}
			info, err := e.Info()
			if err != nil {
				return d, err
			}
			d.segs[seq] = info.Size()
		case strings.HasPrefix(name, walPrefix):
			if _, err := fmt.Sscanf(name, walPrefix+"%d"+walSuffix, &seq); err != nil || walName(seq) != name {
				return d, fmt.Errorf("monitor: unrecognised log file %s", filepath.Join(dir, name))
			}
			d.gens = append(d.gens, walGeneration{gen: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(d.gens, func(i, j int) bool { return d.gens[i].gen < d.gens[j].gen })
	return d, nil
}

// readImage reads the head, and on the eager pass the segments it
// lists, oldest first, and marks the end of both for every worker.
func (r *recovery) readImage(dir string, d dirListing) error {
	f, err := r.fsys.Open(filepath.Join(dir, headFile))
	if err != nil {
		return err
	}
	live, err := r.readHead(f, dir, d)
	f.Close()
	if err != nil {
		return err
	}
	r.headBytes, r.snapBytes = d.headSize, d.headSize
	for i, g := range live {
		if r.eager {
			if err := r.readSegment(io.NewSectionReader(r.segs[i].f, 0, g.size), g.seq, g.size); err != nil {
				return fmt.Errorf("%s: %w", segmentName(g.seq), err)
			}
		}
		r.snapBytes += g.size
	}
	r.mark(batchSnapshotEnd)
	return nil
}

// segmentFile is a live segment an open read the header of: the chunks
// it left on disk (chunk.Unread) read their bytes from it, each read
// counted in monitor.chunk_reads and monitor.chunk_read_bytes. The
// persister keeps it open until the store closes, whatever compactions
// do, so no first decode fails because a merge copied its chunk on and
// removeStale deleted the file.
type segmentFile struct {
	f     faultfs.File
	store *Store
}

// ReadAt reads a chunk's bytes, and counts them.
func (sf *segmentFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := sf.f.ReadAt(p, off)
	sf.store.chunkReads.Add(1)
	sf.store.chunkReadBytes.Add(int64(n))
	return n, err
}

// openSegments opens the live segments of dir and checks each header
// against the head's chunk span.
func (r *recovery) openSegments(dir string, live []segmentRef) error {
	for _, g := range live {
		f, err := r.fsys.Open(filepath.Join(dir, segmentName(g.seq)))
		if err != nil {
			return err
		}
		r.segs = append(r.segs, &segmentFile{f: f, store: r.store})
		var hdr [segmentHeaderLen]byte
		if n, err := f.ReadAt(hdr[:], 0); n < len(hdr) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("%s: %w", segmentName(g.seq), err)
		}
		if err := checkSegmentHeader(hdr[:], r.store.span); err != nil {
			return fmt.Errorf("%s: %w", segmentName(g.seq), err)
		}
	}
	return nil
}

// checkSegmentHeader checks a segment's header — magic, version and
// chunk span; the group count is the eager pass's to read.
func checkSegmentHeader(hdr []byte, span int) error {
	if string(hdr[:4]) != segmentMagic {
		return fmt.Errorf("monitor: bad segment magic %q", hdr[:4])
	}
	if version := binary.BigEndian.Uint16(hdr[4:6]); version != segmentVersion {
		return fmt.Errorf("monitor: unsupported segment version %d", version)
	}
	if got := int(binary.BigEndian.Uint32(hdr[6:10])); got != span {
		return fmt.Errorf("monitor: segment chunk span %d, the head's is %d", got, span)
	}
	return nil
}

// start makes store the pass's store and starts its workers.
func (r *recovery) start(store *Store) {
	r.store = store
	n := min(runtime.GOMAXPROCS(0), len(store.shards))
	r.free = make(chan []byte, maxBlocks)
	r.snapshotDone.Add(n)
	for id := range n {
		w := &recoveryWorker{r: r, id: id, in: make(chan recoveryBatch, 1)}
		r.workers = append(r.workers, w)
		r.wg.Add(1)
		go w.run()
	}
}

// join closes the workers' queues, waits for them and adds up their
// snapshot counts. It is idempotent.
func (r *recovery) join() {
	if r.workers == nil {
		return
	}
	for _, w := range r.workers {
		close(w.in)
	}
	r.wg.Wait()
	for _, w := range r.workers {
		r.stats.SnapshotSeries += w.series
		r.stats.QuarantinedChunks += w.quarantined
		r.mismatches += w.mismatches
		if r.readErr == nil {
			r.readErr = w.readErr
		}
	}
	r.workers = nil
}

// mark queues a marker for every worker.
func (r *recovery) mark(kind batchKind) {
	for _, w := range r.workers {
		w.in <- recoveryBatch{kind: kind}
	}
}

// recoveryBatch is what a worker gets: one block's items, or a marker;
// seq numbers the segment the items of a batchChunks come from.
type recoveryBatch struct {
	kind  batchKind
	seq   uint64
	items []recoveryItem
	// users counts the workers not yet done with block.
	users *atomic.Int32
	block []byte
}

type batchKind uint8

const (
	batchSeries        batchKind = iota // head series bodies
	batchChunks                         // segment groups
	batchRecords                        // verified log records, shard after shard
	batchSnapshotEnd                    // every head series and segment group has been handed out
	batchGenerationEnd                  // every record of the generation has been handed out
)

// recoveryItem is a head series' body or a segment group, with its
// key's shard in the store and its offset in its file, or a verified log
// record's payload, with its shard byte in the layout that wrote it. b
// lies in the batch's block.
type recoveryItem struct {
	b     []byte
	shard int
	pos   int64
}

// dispatch hands each worker its share of the items framed in block: an
// item goes to the worker its shard names (see owner).
func (r *recovery) dispatch(kind batchKind, seq uint64, block []byte, items []recoveryItem) {
	counts := make([]int, len(r.workers))
	for _, it := range items {
		counts[r.owner(it.shard)]++
	}
	users := new(atomic.Int32)
	shares := make([][]recoveryItem, len(r.workers))
	for w, n := range counts {
		if n > 0 {
			shares[w] = make([]recoveryItem, 0, n)
			users.Add(1)
		}
	}
	for _, it := range items {
		w := r.owner(it.shard)
		shares[w] = append(shares[w], it)
	}
	if users.Load() == 0 {
		r.recycle(block)
		return
	}
	for w, s := range shares {
		if len(s) > 0 {
			r.workers[w].in <- recoveryBatch{kind: kind, seq: seq, items: s, users: users, block: block}
		}
	}
}

// recycle hands a block the workers are done with back to the reader.
// free has room for every block the pass makes, so it never drops one.
func (r *recovery) recycle(block []byte) { r.free <- block }

// owner is the worker that owns store shard si, and the one a log
// record with shard byte si goes to.
func (r *recovery) owner(si int) int { return si % len(r.workers) }

// blockReader is the reader's window on one file: block[:off] is framed
// and block[off:] read but not yet framed; pos is block[0]'s offset in
// the file.
type blockReader struct {
	r     *recovery
	f     io.Reader
	block []byte
	off   int
	pos   int64
	eof   bool
}

func (r *recovery) newBlockReader(f io.Reader, pos int64) *blockReader {
	return &blockReader{r: r, f: f, block: r.takeBlock(0), pos: pos}
}

// takeBlock returns an empty block with room for at least n bytes: a
// returned one, a fresh one while the pass has made fewer than
// maxBlocks, or else the next one the workers return. A returned block
// too small for n is replaced by one that holds it.
func (r *recovery) takeBlock(n int) []byte {
	var b []byte
	select {
	case b = <-r.free:
	default:
		if r.blocks < maxBlocks {
			r.blocks++
			return make([]byte, 0, max(n, replayBlock))
		}
		b = <-r.free
	}
	if cap(b) < n {
		return make([]byte, 0, max(n, replayBlock))
	}
	return b[:0]
}

// unframed is what has been read and not yet framed.
func (br *blockReader) unframed() []byte { return br.block[br.off:] }

// full reports whether the block has no room left to read into.
func (br *blockReader) full() bool { return len(br.block) == cap(br.block) }

// read reads one piece into the block, doubling it first when it is full
// and holds one item only, the one being framed.
func (br *blockReader) read() error {
	if br.full() {
		grown := make([]byte, len(br.block), 2*cap(br.block))
		copy(grown, br.block)
		br.block = grown
	}
	n, err := br.f.Read(br.block[len(br.block):min(len(br.block)+replayPiece, cap(br.block))])
	br.block = br.block[:len(br.block)+n]
	if err == io.EOF {
		br.eof = true
		return nil
	}
	return err
}

// next moves the unframed rest of a block the workers now own to the
// front of another.
func (br *blockReader) next() {
	rest := br.unframed()
	b := br.r.takeBlock(len(rest))
	br.pos += int64(br.off)
	br.block, br.off = append(b, rest...), 0
}

// readHead streams the head (see the format at the top of snapshot.go)
// to the workers, creating the pass's store from it, opens the live
// segments of dir it lists and checks their headers, and returns its
// segment list. The chunk span is the head's own. It returns once every
// series is handed out and the checksum over all of it holds; the
// workers install them.
func (r *recovery) readHead(f io.Reader, dir string, d dirListing) ([]segmentRef, error) {
	// The fixed header — magic, version, start, step, span, horizon (not
	// in version 1) and segment count — then the segment list and the
	// series count come in with the first piece of the stream.
	br := r.newBlockReader(f, 0)
	fixedLen := 4 + 2 + 8 + 8 + 4 + 8 + 4
	if err := br.fill(fixedLen); err != nil {
		return nil, err
	}
	hdr := br.block
	if len(hdr) >= 4 && string(hdr[:4]) != headMagic {
		return nil, fmt.Errorf("monitor: bad head magic %q", hdr[:4])
	}
	if len(hdr) >= 6 {
		switch r.version = binary.BigEndian.Uint16(hdr[4:6]); r.version {
		case headVersion, 2:
		case 1:
			fixedLen -= 8
		default:
			return nil, fmt.Errorf("monitor: unsupported head version %d", r.version)
		}
	}
	if len(hdr) < fixedLen {
		return nil, io.ErrUnexpectedEOF
	}
	// A head without an index finds its chunks in the segments' groups.
	r.eager = r.eager || r.version < 3
	start := time.Unix(0, int64(binary.BigEndian.Uint64(hdr[6:14]))).UTC()
	step := time.Duration(binary.BigEndian.Uint64(hdr[14:22]))
	if step <= 0 {
		return nil, fmt.Errorf("monitor: bad head step %v", step)
	}
	span := int(binary.BigEndian.Uint32(hdr[22:26]))
	if span < 2 || span > maxSnapshotSpan {
		return nil, fmt.Errorf("monitor: bad head chunk span %d", span)
	}
	var horizon int64
	if r.version > 1 {
		if horizon = int64(binary.BigEndian.Uint64(hdr[26:34])); horizon < 0 {
			return nil, fmt.Errorf("monitor: bad head horizon %d", uint64(horizon))
		}
	}
	nsegs := int(binary.BigEndian.Uint32(hdr[fixedLen-4 : fixedLen]))
	if nsegs > maxLiveSegments {
		return nil, fmt.Errorf("monitor: head lists %d segments", nsegs)
	}
	hdrLen := fixedLen + 9*nsegs + 4
	if err := br.fill(hdrLen); err != nil {
		return nil, err
	}
	if len(br.block) < hdrLen {
		return nil, io.ErrUnexpectedEOF
	}
	live := make([]segmentRef, nsegs)
	var segBytes int64
	for i := range live {
		b := br.block[fixedLen+9*i:]
		live[i] = segmentRef{seq: binary.BigEndian.Uint64(b), level: b[8]}
		size, ok := d.segs[live[i].seq]
		if !ok {
			return nil, fmt.Errorf("monitor: the head lists %s, which is missing", segmentName(live[i].seq))
		}
		live[i].size = size
		segBytes += size
	}
	count := int64(binary.BigEndian.Uint32(br.block[hdrLen-4:]))

	store := NewStoreShards(start, step, r.shards)
	store.span = span
	store.horizon.Store(horizon)
	// Size each shard's map for its share of the series, bounded by what
	// the head's bytes can hold.
	perShard := min(count, d.headSize/minHeadSeries) / int64(len(store.shards))
	perShard += perShard / 8
	for i := range store.shards {
		store.shards[i].series = make(map[topo.KPIKey]*seriesEntry, perShard)
	}
	// One clock read stamps every restored series' arrival watermark with
	// the restore time. The data's true arrival time died with the
	// previous process; leaving the watermark empty instead made the
	// first post-restart assessment of an untouched series report an
	// absent bin-to-verdict latency (and a bogus one if the key's first
	// live append landed mid-assessment). Restamping bounds the first
	// reported latency by time-since-restore, which is the honest reading
	// of "how stale is the evidence this verdict used".
	r.restoredAt = time.Now().UnixNano()
	r.start(store)
	defer br.done()
	r.live = live
	if err := r.openSegments(dir, live); err != nil {
		return nil, err
	}

	sum := crc32.ChecksumIEEE(br.block[:hdrLen])
	br.off = hdrLen
	maxChunks := segBytes / minSegmentChunk
	frame := func(b []byte) (int, int, error) { return frameHeadSeries(b, store, maxChunks, r.version, nsegs) }
	if err := r.frameStream(br, count, batchSeries, 0, frame, func(b []byte) { sum = crc32.Update(sum, crc32.IEEETable, b) }); err != nil {
		return nil, err
	}
	if err := br.fill(4); err != nil {
		return nil, err
	}
	if end := br.pos + int64(br.off) + 4; len(br.unframed()) < 4 || end != d.headSize {
		return nil, fmt.Errorf("monitor: head of %d bytes ends at %d", d.headSize, end)
	}
	if want := binary.BigEndian.Uint32(br.unframed()); sum != want {
		return nil, fmt.Errorf("monitor: head checksum %08x, stored %08x", sum, want)
	}
	return live, nil
}

// readSegment streams segment seq, of size bytes, to the workers: the
// eager pass.
func (r *recovery) readSegment(f io.Reader, seq uint64, size int64) error {
	br := r.newBlockReader(f, 0)
	defer br.done()
	if err := br.fill(segmentHeaderLen); err != nil {
		return err
	}
	hdr := br.block
	if len(hdr) < segmentHeaderLen {
		return io.ErrUnexpectedEOF
	}
	if err := checkSegmentHeader(hdr, r.store.span); err != nil {
		return err
	}
	count := int64(binary.BigEndian.Uint32(hdr[10:14]))
	br.off = segmentHeaderLen
	frame := func(b []byte) (int, int, error) { return frameGroup(b, r.store) }
	if err := r.frameStream(br, count, batchChunks, seq, frame, nil); err != nil {
		return err
	}
	if end := br.pos + int64(br.off); end != size || len(br.unframed()) > 0 {
		return fmt.Errorf("monitor: segment of %d bytes ends at %d", size, end)
	}
	return nil
}

// done hands the block the reader holds back once its stream is over:
// a pass makes maxBlocks blocks, and one the reader dropped would be
// waited for in vain.
func (br *blockReader) done() {
	if br.block != nil {
		br.r.recycle(br.block)
		br.block = nil
	}
}

// fill reads until the block holds n bytes or the file ends.
func (br *blockReader) fill(n int) error {
	for len(br.block) < n && !br.eof {
		if err := br.read(); err != nil {
			return err
		}
	}
	return nil
}

// frameStream frames count items with frame from br and hands them to
// the workers as kind (of segment seq), a block at a time, moving on to
// a fresh block after each; framed, when set, sees each block's framed
// bytes first. It returns once every item is handed out.
func (r *recovery) frameStream(br *blockReader, count int64, kind batchKind, seq uint64, frame func([]byte) (n, shard int, err error), framed func([]byte)) error {
	var items []recoveryItem
	from := br.off
	for left := count; ; {
		for left > 0 {
			n, shard, err := frame(br.unframed())
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			items = append(items, recoveryItem{b: br.unframed()[:n], shard: shard, pos: br.pos + int64(br.off)})
			br.off += n
			left--
		}
		if left > 0 && br.eof {
			return io.ErrUnexpectedEOF
		}
		if left == 0 || br.full() && br.off > 0 {
			if framed != nil {
				framed(br.block[from:br.off])
			}
			r.dispatch(kind, seq, br.block, items)
			items = items[:0]
			br.next()
			from = 0
			if left == 0 {
				return nil
			}
		}
		if err := br.read(); err != nil {
			return err
		}
	}
}

// frameKey frames the key at the front of b: the offsets of its metric
// and of its end, or 0 for the end when b does not hold all of it yet.
func frameKey(b []byte) (metOff, end int, err error) {
	if len(b) < 1 {
		return 0, 0, nil
	}
	if scope := topo.Scope(b[0]); scope != topo.ScopeServer && scope != topo.ScopeInstance && scope != topo.ScopeService {
		return 0, 0, fmt.Errorf("monitor: bad scope %d", b[0])
	}
	if len(b) < 3 {
		return 0, 0, nil
	}
	metOff = 3 + int(binary.BigEndian.Uint16(b[1:]))
	if len(b) < metOff+2 {
		return 0, 0, nil
	}
	end = metOff + 2 + int(binary.BigEndian.Uint16(b[metOff:]))
	if len(b) < end {
		return 0, 0, nil
	}
	return metOff, end, nil
}

// frameHeadSeries frames the head series at the front of b, of a head
// of the given version listing nsegs segments: its length, or 0 when b
// does not hold all of it yet, and its key's shard in store. Anything
// wrong with the framing is an error, found as soon as the bytes that
// show it are in b; an index entry's extent is the worker's to check. In
// a version 1 head the first chunk field is a count of pruned bins,
// which must be 0.
func frameHeadSeries(b []byte, store *Store, maxChunks int64, version uint16, nsegs int) (n, shard int, err error) {
	span := store.span
	metOff, p, err := frameKey(b)
	if err != nil || p == 0 || len(b) < p+8 {
		return 0, 0, err
	}
	keyEnd := p
	first := binary.BigEndian.Uint32(b[p:])
	chunks := binary.BigEndian.Uint32(b[p+4:])
	switch {
	case version == 1 && first != 0:
		return 0, 0, fmt.Errorf("monitor: a version 1 head with %d bins pruned inside a series' first chunk: the last build that reads it is commit e8b4fb7", first)
	case int64(first)*int64(span) > store.horizon.Load():
		return 0, 0, fmt.Errorf("monitor: first chunk %d lies past the horizon %d", first, store.horizon.Load())
	case int64(first)+int64(chunks) > math.MaxUint32:
		return 0, 0, fmt.Errorf("monitor: chunks %d to %d overflow a segment's chunk index", first, int64(first)+int64(chunks))
	}
	if int64(chunks) > maxChunks {
		return 0, 0, fmt.Errorf("monitor: %d chunks, more than the segments hold", chunks)
	}
	p += 8
	if version >= 3 {
		if len(b) < p+indexEntryLen*int(chunks) {
			return 0, 0, nil
		}
		for end := p + indexEntryLen*int(chunks); p < end; p += indexEntryLen {
			encLen := binary.BigEndian.Uint32(b[p+9:])
			if seg := int(b[p]); seg >= nsegs {
				return 0, 0, fmt.Errorf("monitor: a chunk in segment %d of a head that lists %d", seg, nsegs)
			}
			if encLen != chunkTombstone && int64(encLen) > 10*int64(span) {
				return 0, 0, fmt.Errorf("monitor: index entry of %d bytes exceeds span %d", encLen, span)
			}
		}
	}
	if len(b) < p+4 {
		return 0, 0, nil
	}
	tail := binary.BigEndian.Uint32(b[p:])
	if int64(tail) >= int64(span) {
		return 0, 0, fmt.Errorf("monitor: tail of %d bins exceeds chunk span %d", tail, span)
	}
	if p += 4 + 8*int(tail); len(b) < p {
		return 0, 0, nil
	}
	return p, shardOf(len(store.shards), b[0], b[3:metOff], b[metOff+2:keyEnd]), nil
}

// frameGroup frames the segment group at the front of b as
// frameHeadSeries frames a head series; the chunks' contents are the
// workers' to check.
func frameGroup(b []byte, store *Store) (n, shard int, err error) {
	metOff, p, err := frameKey(b)
	if err != nil || p == 0 || len(b) < p+4 {
		return 0, 0, err
	}
	keyEnd := p
	chunks := binary.BigEndian.Uint32(b[p:])
	for p += 4; chunks > 0; chunks-- {
		if len(b) < p+8 {
			return 0, 0, nil
		}
		encLen := binary.BigEndian.Uint32(b[p+4:])
		p += 8
		if encLen == chunkTombstone {
			continue
		}
		// What a span of values can encode, ~9 bytes a value at worst.
		if int64(encLen) > 10*int64(store.span) {
			return 0, 0, fmt.Errorf("monitor: segment chunk of %d bytes exceeds span %d", encLen, store.span)
		}
		p += 4 + int(encLen)
	}
	if len(b) < p {
		return 0, 0, nil
	}
	return p, shardOf(len(store.shards), b[0], b[3:metOff], b[metOff+2:keyEnd]), nil
}

// replayLog replays one generation: this goroutine frames the records in
// file order and checks their CRCs, stops at the first bad one (see the
// log format in wal.go), and hands the verified records on, a block's
// worth at a time, to the workers their shard bytes name. Without a
// snapshot the first readable header makes the pass's store. It returns
// once the generation's records are all applied.
func (r *recovery) replayLog(path string, out *walReplay) error {
	f, err := r.fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, ok, err := readWALHeader(f, path)
	if err != nil || !ok {
		return err
	}
	out.version = hdr.version
	if r.store == nil {
		store := NewStoreShards(hdr.start, hdr.step, r.shards)
		if r.span > 0 {
			store.span = r.span
		}
		r.start(store)
		r.mark(batchSnapshotEnd)
	}
	defer func() {
		// The barrier: every record handed out is applied before the next
		// generation starts.
		r.genDone.Add(len(r.workers))
		r.mark(batchGenerationEnd)
		r.genDone.Wait()
		for _, w := range r.workers {
			out.stats.WALRecords += w.records
			out.stats.TornTails += w.torn
			w.records, w.torn = 0, 0
		}
	}()

	br := r.newBlockReader(f, int64(walHeaderLen))
	var (
		items, grouped []recoveryItem
		bad            bool
	)
	for !bad && !br.eof {
		if err := br.read(); err != nil {
			br.done() // the next generation's reader takes it
			return err
		}
		block := br.block
		for len(block)-br.off >= 4 {
			off := br.off
			plen := int(binary.BigEndian.Uint32(block[off:]))
			if plen == 0 || plen > maxWALRecord {
				bad = true // a garbage length: a partial length word, or rot
				break
			}
			end := off + plen + walRecordOverhead
			if end > len(block) {
				break // the rest of the record is still to be read, or torn off
			}
			rec := block[off+4 : end-4] // shard byte and payload
			if crc32.ChecksumIEEE(rec) != binary.BigEndian.Uint32(block[end-4:]) {
				bad = true
				break
			}
			out.stats.LogBytes += int64(plen) + walRecordOverhead
			items = append(items, recoveryItem{b: rec[1:], shard: int(rec[0])})
			br.off = end
		}
		if !bad && !br.eof && !br.full() {
			continue
		}
		grouped = r.groupByShard(items, grouped)
		r.dispatch(batchRecords, 0, block, grouped)
		items = items[:0]
		if !bad && !br.eof {
			br.next()
		}
	}
	if bad || br.off < len(br.block) {
		out.stats.TornTails++
		out.tornAt = br.pos + int64(br.off)
		rest, _ := io.Copy(io.Discard, f)
		out.unread = int64(len(br.block)-br.off) + rest
	}
	return nil
}

// groupByShard returns items ordered by shard byte into out's storage,
// each shard's in log order — the counting pass AppendBatch groups its
// batches with (shardGrouping) — so that a worker gets its share of a
// block shard after shard and applies a shard's records of the block as
// one run.
func (r *recovery) groupByShard(items, out []recoveryItem) []recoveryItem {
	g := &r.grp
	g.grow(len(items))
	for i, it := range items {
		g.idx[i] = uint8(it.shard)
	}
	g.sort(maxStoreShards)
	out = out[:0]
	for _, i := range g.order {
		out = append(out, items[i])
	}
	return out
}

// recoveryWorker is one worker of a recovery pass. Its fields other than
// in are its own until join, or a marker, hands them to the reader.
type recoveryWorker struct {
	r  *recovery
	id int
	in chan recoveryBatch
	// waited is set once the worker has waited for every worker's
	// installs.
	waited bool

	series, quarantined int // head series installed (distinct) and chunks quarantined
	mismatches          int // chunks whose newest copy is not the one the head's index names
	records, torn       int // this generation's measurements replayed, and shards ended by a bad entry
	// readErr is the first read of a restored chunk that failed under a
	// replayed late write: the open fails with it.
	readErr error

	// restored lists the series the worker installed from the head, in
	// key order, for the eager pass's groups to find (see entry); at is
	// the last one a group found.
	restored []restoredSeries
	at       int
	// sources is the slab the unread chunks' locations are cut from:
	// one allocation per sourceSlab chunks (see indexed).
	sources []chunk.Source

	// tables holds the generation's key handles per shard byte, ended the
	// shard bytes an undecodable entry ended.
	tables [maxStoreShards]*keyTable
	ended  [maxStoreShards]bool
	runs   keyRuns
	keyBuf []byte
}

// run works through the worker's queue until join closes it.
func (w *recoveryWorker) run() {
	defer w.r.wg.Done()
	for b := range w.in {
		switch b.kind {
		case batchSeries:
			for _, it := range b.items {
				w.install(it)
			}
		case batchChunks:
			for _, it := range b.items {
				w.installChunks(it, b.seq)
			}
		case batchRecords:
			w.apply(b.items)
		case batchSnapshotEnd:
			w.settle()
			w.r.snapshotDone.Done()
		case batchGenerationEnd:
			for i, t := range w.tables {
				if t != nil {
					t.reset()
				}
				w.ended[i] = false
			}
			w.r.genDone.Done()
		}
		if b.users != nil && b.users.Add(-1) == 0 {
			w.r.recycle(b.block)
		}
	}
}

// restoredSeries is a series a worker installed from the head, for the
// eager pass. For a version 3 head, seen holds the newest copy of each
// of its chunks the segments' groups showed.
type restoredSeries struct {
	key  topo.KPIKey
	e    *seriesEntry
	seen []chunkCopy
}

// chunkCopy is a copy of a chunk in a segment: the segment, the offset
// of its bytes, their length — chunkTombstone for a tombstone — and
// their CRC.
type chunkCopy struct {
	seq       uint64
	off       int64
	size, crc uint32
}

// install builds the head series framed in it.b (see frameHeadSeries) —
// its chunks where the head's index says they lie, or for a version 2
// head its chunk slots empty for the segments to fill — and puts it in
// its shard, which no other worker touches before every worker's
// installs are done.
func (w *recoveryWorker) install(it recoveryItem) {
	r := w.r
	s := r.store
	span := s.span
	key, b, keyBuf := snapshotKey(it.b, w.keyBuf)
	w.keyBuf = keyBuf

	e := &seriesEntry{first: int(binary.BigEndian.Uint32(b)), arrivalNanos: r.restoredAt}
	n := int(binary.BigEndian.Uint32(b[4:]))
	b = b[8:]
	if n > 0 {
		e.chunks = make([]*chunk.Chunk, n)
	}
	if r.version >= 3 {
		for i := range e.chunks {
			e.chunks[i] = w.indexed(b[indexEntryLen*i:])
		}
		b = b[indexEntryLen*n:]
	}
	if n := int(binary.BigEndian.Uint32(b)); n > 0 {
		// Cut where replay appends: the log's bins extend it in place.
		e.tail = w.runs.newTail(span, n)
		for i := range e.tail {
			e.tail[i] = math.Float64frombits(binary.BigEndian.Uint64(b[4+8*i:]))
		}
	}
	series := s.shards[it.shard].series
	if series[key] == nil {
		w.series++
	}
	series[key] = e
	if r.eager {
		rs := restoredSeries{key: key, e: e}
		if r.version >= 3 {
			rs.seen = make([]chunkCopy, n)
		}
		w.restored = append(w.restored, rs)
	}
}

// indexed builds the chunk a head's index entry b describes: unread
// where it lies, or a tombstone — the head's, or one for an entry whose
// extent lies outside its segment — counted as quarantined. The latter
// has no home, so the next compaction writes it.
func (w *recoveryWorker) indexed(b []byte) *chunk.Chunk {
	r := w.r
	span := r.store.span
	g := r.live[b[0]]
	off, encLen := int64(binary.BigEndian.Uint64(b[1:])), binary.BigEndian.Uint32(b[9:])
	switch {
	case encLen == chunkTombstone:
		// A quarantined chunk round-trips as a tombstone.
		w.quarantined++
		ck := chunk.Tombstone(span)
		ck.SetHome(g.seq, 0)
		return ck
	case off < segmentHeaderLen || off > g.size-int64(encLen):
		w.quarantined++
		return chunk.Tombstone(span)
	}
	if len(w.sources) == 0 {
		w.sources = make([]chunk.Source, sourceSlab)
	}
	src := &w.sources[0]
	w.sources = w.sources[1:]
	*src = chunk.Source{R: r.segs[b[0]], Off: off}
	ck := chunk.Unread(src, int(encLen), binary.BigEndian.Uint32(b[13:]), span)
	ck.SetHome(g.seq, off)
	return ck
}

// sourceSlab is how many unread chunks' locations a worker allocates at
// a time. A slab lives as long as any chunk that reads from it.
const sourceSlab = 256

// installChunks reads the group framed in it (see frameGroup), of
// segment seq, for the series the head installed. For a version 2 head
// it sets each chunk: checked against its CRC, its token walk left to
// its first decode, and seq and the offset of its bytes recorded as its
// home. For a version 3 one it notes each copy for settle to check the
// index against. A chunk of a series the head does not hold, or outside
// its chunks — pruned below its first, or past its count — is stepped
// over.
func (w *recoveryWorker) installChunks(it recoveryItem, seq uint64) {
	span := w.r.store.span
	rs, b := w.entry(it.b)
	pos := it.pos + int64(len(it.b)-len(b)) // b's offset in the file
	n := int(binary.BigEndian.Uint32(b))
	b, pos = b[4:], pos+4
	for ; n > 0; n-- {
		ci, encLen := int(binary.BigEndian.Uint32(b)), binary.BigEndian.Uint32(b[4:])
		b, pos = b[8:], pos+8
		if rs != nil {
			ci -= rs.e.first
		}
		held := rs != nil && ci >= 0 && ci < len(rs.e.chunks)
		cp := chunkCopy{seq: seq, size: encLen}
		var ck *chunk.Chunk
		if encLen == chunkTombstone {
			// A quarantined chunk round-trips as a tombstone.
			ck = chunk.Tombstone(span)
		} else {
			cp.off, cp.crc = pos+4, binary.BigEndian.Uint32(b)
			if held && rs.seen == nil {
				ck, _ = chunk.FromEncoded(append([]byte(nil), b[4:4+encLen]...), span)
				if ck.CRC() != cp.crc {
					// The framing held but the bytes are rotten: quarantine this
					// chunk and keep recovering the rest of the store.
					ck = chunk.Tombstone(span)
				}
			}
			b, pos = b[4+encLen:], pos+4+int64(encLen)
		}
		switch {
		case !held:
		case rs.seen != nil:
			rs.seen[ci] = cp
		default:
			ck.SetHome(seq, cp.off)
			rs.e.chunks[ci] = ck
		}
	}
}

// entry finds the restored series whose key is at the front of a
// framed group b, and returns it (nil for none) and the rest of b. A
// segment's groups come in key order, as the head's series did, so the
// search walks on from the last series found, and starts over by
// bisection when a key lies behind it — the next segment's first.
func (w *recoveryWorker) entry(b []byte) (*restoredSeries, []byte) {
	scope := topo.Scope(b[0])
	el := int(binary.BigEndian.Uint16(b[1:]))
	entity := b[3 : 3+el]
	ml := int(binary.BigEndian.Uint16(b[3+el:]))
	metric := b[5+el : 5+el+ml]
	rest := b[5+el+ml:]
	cmp := func(k *topo.KPIKey) int {
		switch {
		case k.Scope != scope:
			return int(k.Scope) - int(scope)
		case k.Entity != string(entity):
			if k.Entity < string(entity) {
				return -1
			}
			return 1
		case k.Metric != string(metric):
			if k.Metric < string(metric) {
				return -1
			}
			return 1
		}
		return 0
	}
	i := w.at
	if i > 0 && i <= len(w.restored) && cmp(&w.restored[i-1].key) >= 0 {
		i = sort.Search(len(w.restored), func(j int) bool { return cmp(&w.restored[j].key) >= 0 })
	}
	for i < len(w.restored) && cmp(&w.restored[i].key) < 0 {
		i++
	}
	w.at = i
	if i < len(w.restored) && cmp(&w.restored[i].key) == 0 {
		w.at = i + 1
		return &w.restored[i], rest
	}
	return nil, rest
}

// settle closes the worker's installs on the eager pass. For a version
// 2 head a chunk slot no segment filled gets a tombstone, which the next
// compaction writes, and every tombstone is counted as quarantined. For
// a version 3 head each chunk the index places on disk is checked
// against the newest copy the segments showed.
func (w *recoveryWorker) settle() {
	span := w.r.store.span
	for _, rs := range w.restored {
		e := rs.e
		for i, ck := range e.chunks {
			if rs.seen != nil {
				seq, off := ck.Home()
				if c := rs.seen[i]; !ck.Quarantined() && (c.seq != seq || c.off != off || c.size != uint32(ck.EncodedBytes()) || c.crc != ck.CRC()) {
					w.mismatches++
				}
				continue
			}
			if ck == nil {
				ck = chunk.Tombstone(span)
				e.chunks[i] = ck
			}
			if ck.Quarantined() {
				w.quarantined++
			}
		}
	}
	w.restored = nil
}

// snapshotKey reads the key at the front of a framed series body b —
// scope, then entity and metric, each length-prefixed — and returns it
// and the rest of b. Both strings share one allocation, built in
// scratch, which it returns for the next call.
func snapshotKey(b, scratch []byte) (key topo.KPIKey, rest, scratchOut []byte) {
	key.Scope = topo.Scope(b[0])
	el := int(binary.BigEndian.Uint16(b[1:]))
	entity := b[3 : 3+el]
	b = b[3+el:]
	ml := int(binary.BigEndian.Uint16(b))
	metric := b[2 : 2+ml]
	scratch = append(append(scratch[:0], entity...), metric...)
	strs := string(scratch)
	key.Entity, key.Metric = strs[:el], strs[el:]
	return key, b[2+ml:], scratch
}

// apply applies a block's log records for this worker, shard byte after
// shard byte, with the socket's entry rules (keyTable.scan), each shard's
// as one run: the entries of its records in the block are read first,
// the bin off the store clock once per distinct timestamp, and then
// written key by key (see keyRuns).
func (w *recoveryWorker) apply(items []recoveryItem) {
	s := w.r.store
	horizon := int(s.horizon.Load()) // nothing prunes a store under recovery
	now := time.Now().UnixNano()
	for lo := 0; lo < len(items); {
		shard := items[lo].shard
		hi := lo
		for hi < len(items) && items[hi].shard == shard {
			hi++
		}
		t := w.tables[shard]
		if t == nil {
			t = newKeyTable(s, math.MaxInt)
			w.tables[shard] = t
		}
		runs := &w.runs
		runs.reset(len(t.handles))
		lastNanos, bin, binOK := int64(math.MinInt64), 0, false
		for _, it := range items[lo:hi] {
			if w.ended[shard] {
				break
			}
			n, _, err := t.scan(it.b, math.MaxInt)
			w.records += n
			runs.grow(len(t.handles))
			for _, fr := range t.recs {
				if fr.nanos != lastNanos {
					lastNanos = fr.nanos
					bin, binOK = s.clock.bin(fr.nanos)
					binOK = binOK && bin >= horizon
				}
				if binOK {
					runs.add(fr.handle, bin, fr.v)
				}
			}
			if err != nil {
				// The CRC holds and an entry does not decode: the ones before
				// it are applied, the shard's later records not.
				w.ended[shard] = true
				w.torn++
			}
		}
		w.write(t, now)
		lo = hi
	}
}

// write writes the runs gathered for t's keys, each key's under its
// shard's lock, which it keeps over the keys of one shard.
func (w *recoveryWorker) write(t *keyTable, now int64) {
	s := w.r.store
	var locked *storeShard
	for _, h := range w.runs.keys {
		hd := &t.handles[h]
		sh := &s.shards[hd.shard]
		if sh != locked {
			if locked != nil {
				locked.mu.Unlock()
			}
			if !w.waited && w.r.owner(int(hd.shard)) != w.id {
				// A key of another worker's shard: its snapshot series must
				// be in before this writes over them.
				w.r.snapshotDone.Wait()
				w.waited = true
			}
			sh.mu.Lock()
			locked = sh
		}
		if hd.e == nil {
			hd.e = s.entryLocked(sh, &hd.key, int(s.horizon.Load()))
		}
		if err := w.runs.writeLocked(s, hd.e, h); err != nil && w.readErr == nil {
			w.readErr = err
		}
		hd.e.arrivalNanos = now
	}
	if locked != nil {
		locked.mu.Unlock()
	}
}

// keyRuns gathers one shard's entries of a block by key: per key handle
// a chain of its bins in log order, and the keys in order of their first
// entry. It also holds the worker's slab of tails (see newTail).
type keyRuns struct {
	ents        []runEntry
	first, last []int32 // by handle; −1 for a key with no entry yet
	keys        []int32
	vals        []float64
	slab        []float64
}

// slabBins is the size of a keyRuns slab: 64 tails of the default span.
const slabBins = 64 * chunk.DefaultSpan

// newTail returns a tail of n bins with span capacity — what a tail the
// line feeds grows to before each seal — cut from the slab: one
// allocation per slab where a tail of its own cost one each, which
// showed as about a tenth of restart-recover's open. A snapshot tail and
// a replayed run alike get one, so replay appends in place. A slab lives
// as long as any tail cut from it. A span wider than a slab gets a tail
// of n bins that grows by append, as a live one does, so that a
// snapshot header's span alone cannot demand memory.
func (k *keyRuns) newTail(span, n int) []float64 {
	if span > slabBins {
		return make([]float64, n)
	}
	if len(k.slab) < span {
		k.slab = make([]float64, slabBins/span*span)
	}
	t := k.slab[:n:span]
	k.slab = k.slab[span:]
	return t
}

// runEntry is one entry: its bin and value, and the index of its key's
// next entry (−1 for none).
type runEntry struct {
	bin  int
	v    float64
	next int32
}

// reset empties the runs for a table of n handles.
func (k *keyRuns) reset(n int) {
	for _, h := range k.keys {
		k.first[h] = -1
	}
	k.ents, k.keys = k.ents[:0], k.keys[:0]
	k.grow(n)
}

// grow makes room for n handles.
func (k *keyRuns) grow(n int) {
	for len(k.first) < n {
		k.first = append(k.first, -1)
		k.last = append(k.last, -1)
	}
}

// add appends one entry of the key with handle h.
func (k *keyRuns) add(h int32, bin int, v float64) {
	i := int32(len(k.ents))
	k.ents = append(k.ents, runEntry{bin: bin, v: v, next: -1})
	if k.first[h] < 0 {
		k.first[h] = i
		k.keys = append(k.keys, h)
	} else {
		k.ents[k.last[h]].next = i
	}
	k.last[h] = i
}

// writeLocked writes the bins of handle h's chain into e, in order. Bins
// that extend the series one after the other, from its end on, go to
// the tail in one write (appendRunLocked); any other — a late write, a
// repeated bin, one past a gap — goes through setBinLocked, and a late
// write into a chunk whose read fails ends the chain with the read's
// error. The caller holds e's shard lock.
func (k *keyRuns) writeLocked(s *Store, e *seriesEntry, h int32) error {
	for i := k.first[h]; i >= 0; {
		en := &k.ents[i]
		if next := e.end(s.span); en.bin == next {
			k.vals = k.vals[:0]
			for ; i >= 0 && k.ents[i].bin == next; i = k.ents[i].next {
				k.vals = append(k.vals, k.ents[i].v)
				next++
			}
			if e.tailLen()+len(k.vals) > cap(e.tail) && cap(e.tail) < s.span {
				e.tail = append(k.newTail(s.span, 0), e.tail...)
			}
			s.appendRunLocked(e, k.vals)
			continue
		}
		if err := s.setBinLocked(e, en.bin, en.v); err != nil {
			return err
		}
		i = en.next
	}
	return nil
}
