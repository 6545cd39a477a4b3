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
// snapshot and then each log generation, oldest first, in file order,
// a block at a time, to one pool of at most GOMAXPROCS workers; worker
// w owns the store shards si with si mod W = w.
//
//   - A snapshot series goes to the owner of its key's shard, which
//     builds the entry from the block's bytes, checks each sealed chunk
//     (CRC and chunk.FromEncoded's token walk, a tombstone in place of
//     one that fails either), cuts its tail at span capacity from the
//     worker's slab, where replay appends (keyRuns.newTail), and
//     installs it.
//   - A log record goes to the worker its shard byte names, modulo W.
//     Its keys are the owner's own when the writing layout is the
//     reading one; each worker's queue is FIFO, so its snapshot series
//     are installed before it applies a record. A key that lives in
//     another worker's shard — a reopen at another shard count — makes
//     the worker wait, once, for every worker's snapshot installs.
//   - A generation's records are all applied before the next
//     generation's first is handed out: a key's writer shard, and with it
//     its worker, can change between generations.
//
// The reader frames and checks, the workers build and apply: a snapshot
// whose framing breaks, or a log read that fails, ends the pass with an
// error, and every worker is joined before recoverDir returns.

// replayBlock is how much of a file the reader frames before it hands
// the items on, regrouped by worker; it holds the largest log record,
// and a block grows for a snapshot series that does not fit. replayPiece
// is how much of that it reads at a time: little enough to still be in
// cache when the items it completes are framed.
const (
	replayBlock = 2 << 20
	replayPiece = 256 << 10
)

// minSnapshotSeries is the fewest bytes a snapshot series takes: a
// scope, two empty strings, head, chunk count and tail count. It bounds
// the shard maps' pre-sizing by the snapshot's size, so that a corrupt
// series count cannot demand memory.
const minSnapshotSeries = 1 + 2 + 2 + 4 + 4 + 4

// recovery is one recovery pass: the reader's state, the worker pool
// and what the pass found.
type recovery struct {
	fsys   faultfs.FS
	shards int
	span   int // the chunk span of a store without a snapshot; 0 keeps the default
	store  *Store

	workers []*recoveryWorker
	wg      sync.WaitGroup // the workers
	// snapshotDone is released by every worker at the snapshot's end, genDone
	// at a generation's.
	snapshotDone, genDone sync.WaitGroup
	// free hands a block back to the reader once every worker that had
	// items in it is done with them: a pass allocates three blocks or so,
	// not one per block of input.
	free       chan []byte
	restoredAt int64 // the arrival watermark of every snapshot series

	stats     RecoveryStats
	snapBytes int64
	gens      []walReplay
}

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

// recoverDir reads the snapshot and every log generation in dir into a
// store with the given shard count, and returns the pass: its store
// (nil when dir holds neither a snapshot nor a readable log header),
// stats and per-generation outcomes. Its error is a failed listing or
// an unreadable snapshot; a generation's is in its walReplay, and the
// generations after it still replay.
func recoverDir(fsys faultfs.FS, dir string, shards, span int) (*recovery, error) {
	r := &recovery{fsys: fsys, shards: shards, span: span}
	defer r.join()
	began := time.Now()
	gens, snapSize, err := scanDir(fsys, dir)
	if err != nil {
		return r, err
	}
	if snapSize >= 0 {
		f, err := fsys.Open(filepath.Join(dir, snapshotFile))
		if err != nil {
			return r, err
		}
		cr := &countingReader{r: f}
		err = r.readSnapshot(cr, snapSize)
		f.Close()
		if err != nil {
			return r, fmt.Errorf("monitor: recovering snapshot: %w", err)
		}
		r.snapBytes = cr.n
	}
	r.stats.SnapshotTime = time.Since(began)
	r.gens = make([]walReplay, len(gens))
	for i, g := range gens {
		out := &r.gens[i]
		out.gen, out.path = g.gen, g.path
		out.err = r.replayLog(g.path, out)
		r.stats.WALRecords += out.stats.WALRecords
		r.stats.TornTails += out.stats.TornTails
		r.stats.LogBytes += out.stats.LogBytes
	}
	r.stats.Generations = len(gens)
	r.join()
	r.stats.ReplayTime = time.Since(began) - r.stats.SnapshotTime
	return r, nil
}

// scanDir lists dir once: its log generations, oldest first, and the
// snapshot's size (−1 when there is none). A wal- file that does not
// follow walName is an error, not something to step over: it may hold
// records.
func scanDir(fsys faultfs.FS, dir string) (gens []walGeneration, snapSize int64, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	snapSize = -1
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if name == snapshotFile {
			info, err := e.Info()
			if err != nil {
				return nil, 0, err
			}
			snapSize = info.Size()
			continue
		}
		if !strings.HasPrefix(name, walPrefix) {
			continue
		}
		var gen uint64
		if _, err := fmt.Sscanf(name, walPrefix+"%d"+walSuffix, &gen); err != nil || walName(gen) != name {
			return nil, 0, fmt.Errorf("monitor: unrecognised log file %s", filepath.Join(dir, name))
		}
		gens = append(gens, walGeneration{gen: gen, path: filepath.Join(dir, name)})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].gen < gens[j].gen })
	return gens, snapSize, nil
}

// start makes store the pass's store and starts its workers.
func (r *recovery) start(store *Store) {
	r.store = store
	n := min(runtime.GOMAXPROCS(0), len(store.shards))
	r.free = make(chan []byte, 3)
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
	}
	r.workers = nil
}

// mark queues a marker for every worker.
func (r *recovery) mark(kind batchKind) {
	for _, w := range r.workers {
		w.in <- recoveryBatch{kind: kind}
	}
}

// recoveryBatch is what a worker gets: one block's items, or a marker.
type recoveryBatch struct {
	kind  batchKind
	items []recoveryItem
	// users counts the workers not yet done with block.
	users *atomic.Int32
	block []byte
}

type batchKind uint8

const (
	batchSeries        batchKind = iota // snapshot series bodies
	batchRecords                        // verified log records, shard after shard
	batchSnapshotEnd                    // every snapshot series has been handed out
	batchGenerationEnd                  // every record of the generation has been handed out
)

// recoveryItem is a snapshot series' body, with its key's shard in the
// store, or a verified log record's payload, with its shard byte in the
// layout that wrote it. b lies in the batch's block.
type recoveryItem struct {
	b     []byte
	shard int
}

// dispatch hands each worker its share of the items framed in block: an
// item goes to the worker its shard names (see owner).
func (r *recovery) dispatch(kind batchKind, block []byte, items []recoveryItem) {
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
			r.workers[w].in <- recoveryBatch{kind: kind, items: s, users: users, block: block}
		}
	}
}

// recycle offers a block the workers are done with back to the reader.
func (r *recovery) recycle(block []byte) {
	select {
	case r.free <- block:
	default:
	}
}

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

// takeBlock returns an empty block with room for at least n bytes.
func (r *recovery) takeBlock(n int) []byte {
	select {
	case b := <-r.free:
		if cap(b) >= n {
			return b[:0]
		}
	default:
	}
	return make([]byte, 0, max(n, replayBlock))
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

// readSnapshot streams a snapshot of size bytes (see the format at the
// top of snapshot.go) to the workers, creating the pass's store from its
// header. The chunk span is the snapshot's own. It returns once every
// series is handed out; the workers install them.
func (r *recovery) readSnapshot(f io.Reader, size int64) error {
	// The header — magic, version, start, step, span and series count —
	// comes in with the first piece of the stream.
	br := r.newBlockReader(f, 0)
	const hdrLen = 4 + 2 + 8 + 8 + 4 + 4
	for len(br.block) < hdrLen && !br.eof {
		if err := br.read(); err != nil {
			return err
		}
	}
	hdr := br.block
	if len(hdr) >= 4 && string(hdr[:4]) != snapshotMagic {
		return fmt.Errorf("monitor: bad snapshot magic %q", hdr[:4])
	}
	if len(hdr) >= 6 {
		if version := binary.BigEndian.Uint16(hdr[4:6]); version != snapshotVersion {
			return fmt.Errorf("monitor: unsupported snapshot version %d", version)
		}
	}
	if len(hdr) < hdrLen {
		return io.ErrUnexpectedEOF
	}
	start := time.Unix(0, int64(binary.BigEndian.Uint64(hdr[6:14]))).UTC()
	step := time.Duration(binary.BigEndian.Uint64(hdr[14:22]))
	if step <= 0 {
		return fmt.Errorf("monitor: bad snapshot step %v", step)
	}
	span := int(binary.BigEndian.Uint32(hdr[22:26]))
	if span < 2 || span > maxSnapshotSpan {
		return fmt.Errorf("monitor: bad snapshot chunk span %d", span)
	}
	count := int64(binary.BigEndian.Uint32(hdr[26:30]))

	store := NewStoreShards(start, step, r.shards)
	store.span = span
	// Size each shard's map for its share of the series, bounded by what
	// the snapshot's bytes can hold.
	perShard := min(count, size/minSnapshotSeries) / int64(len(store.shards))
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

	br.off = hdrLen
	var items []recoveryItem
	for left := count; ; {
		for left > 0 {
			n, shard, err := frameSeries(br.unframed(), store)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			items = append(items, recoveryItem{b: br.unframed()[:n], shard: shard})
			br.off += n
			left--
		}
		if left > 0 && br.eof {
			return io.ErrUnexpectedEOF
		}
		if left == 0 || br.full() && br.off > 0 {
			r.dispatch(batchSeries, br.block, items)
			items = items[:0]
			if left == 0 {
				break
			}
			br.next()
		}
		if err := br.read(); err != nil {
			return err
		}
	}
	r.mark(batchSnapshotEnd)
	return nil
}

// frameSeries frames the snapshot series at the front of b: its length,
// or 0 when b does not hold all of it yet, and its key's shard in store.
// Anything wrong with the framing is an error, found as soon as the
// bytes that show it are in b; the chunks' contents are the workers' to
// check.
func frameSeries(b []byte, store *Store) (n, shard int, err error) {
	span := store.span
	if len(b) < 1 {
		return 0, 0, nil
	}
	if scope := topo.Scope(b[0]); scope != topo.ScopeServer && scope != topo.ScopeInstance && scope != topo.ScopeService {
		return 0, 0, fmt.Errorf("monitor: bad snapshot scope %d", b[0])
	}
	if len(b) < 3 {
		return 0, 0, nil
	}
	metOff := 3 + int(binary.BigEndian.Uint16(b[1:]))
	if len(b) < metOff+2 {
		return 0, 0, nil
	}
	p := metOff + 2 + int(binary.BigEndian.Uint16(b[metOff:]))
	if len(b) < p+8 {
		return 0, 0, nil
	}
	keyEnd := p
	head := binary.BigEndian.Uint32(b[p:])
	chunks := binary.BigEndian.Uint32(b[p+4:])
	if int64(head) >= int64(span) {
		return 0, 0, fmt.Errorf("monitor: snapshot head %d exceeds chunk span %d", head, span)
	}
	if head > 0 && chunks == 0 {
		return 0, 0, fmt.Errorf("monitor: snapshot head %d with no chunks", head)
	}
	p += 8
	for ; chunks > 0; chunks-- {
		if len(b) < p+4 {
			return 0, 0, nil
		}
		encLen := binary.BigEndian.Uint32(b[p:])
		p += 4
		if encLen == snapshotTombstone {
			continue
		}
		// What a span of values can encode, ~9 bytes a value at worst.
		if int64(encLen) > 10*int64(span) {
			return 0, 0, fmt.Errorf("monitor: snapshot chunk of %d bytes exceeds span %d", encLen, span)
		}
		p += 4 + int(encLen)
	}
	if len(b) < p+4 {
		return 0, 0, nil
	}
	tail := binary.BigEndian.Uint32(b[p:])
	if int64(tail) >= int64(span) {
		return 0, 0, fmt.Errorf("monitor: snapshot tail of %d bins exceeds chunk span %d", tail, span)
	}
	if p += 4 + 8*int(tail); len(b) < p {
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
		items []recoveryItem
		bad   bool
	)
	for !bad && !br.eof {
		if err := br.read(); err != nil {
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
		// A worker gets its share of the block shard after shard, so that
		// it applies a shard's records of the block as one run.
		sort.SliceStable(items, func(i, j int) bool { return items[i].shard < items[j].shard })
		r.dispatch(batchRecords, block, items)
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

// recoveryWorker is one worker of a recovery pass. Its fields other than
// in are its own until join, or a marker, hands them to the reader.
type recoveryWorker struct {
	r  *recovery
	id int
	in chan recoveryBatch
	// waited is set once the worker has waited for every worker's
	// snapshot installs.
	waited bool

	series, quarantined int // snapshot series installed (distinct) and chunks quarantined
	records, torn       int // this generation's measurements replayed, and shards ended by a bad entry

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
		case batchRecords:
			w.apply(b.items)
		case batchSnapshotEnd:
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

// install builds the snapshot series framed in it.b (see frameSeries)
// and puts it in its shard, which no other worker touches before every
// worker's installs are done.
func (w *recoveryWorker) install(it recoveryItem) {
	s := w.r.store
	span := s.span
	key, b, keyBuf := snapshotKey(it.b, w.keyBuf)
	w.keyBuf = keyBuf

	e := &seriesEntry{head: int(binary.BigEndian.Uint32(b)), arrivalNanos: w.r.restoredAt}
	nchunks := int(binary.BigEndian.Uint32(b[4:]))
	b = b[8:]
	if nchunks > 0 {
		e.chunks = make([]*chunk.Chunk, nchunks)
	}
	for i := range e.chunks {
		encLen := binary.BigEndian.Uint32(b)
		if encLen == snapshotTombstone {
			// A quarantined chunk from a previous recovery round-trips as a
			// tombstone.
			e.chunks[i] = chunk.Tombstone(span)
			w.quarantined++
			b = b[4:]
			continue
		}
		crc := binary.BigEndian.Uint32(b[4:])
		data := append([]byte(nil), b[8:8+encLen]...)
		b = b[8+encLen:]
		ck, err := chunk.FromEncoded(data, span)
		if err != nil || ck.CRC() != crc {
			// The framing held but the bytes are rotten: quarantine this
			// chunk and keep recovering the rest of the store.
			ck = chunk.Tombstone(span)
			w.quarantined++
		}
		e.chunks[i] = ck
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
	clk := s.binClockLocked() // nothing moves the epoch while a store recovers
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
					bin, binOK = clk.bin(fr.nanos)
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
			hd.e = s.entryLocked(sh, &hd.key)
		}
		w.runs.writeLocked(s, hd.e, h)
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
// repeated bin, one past a gap — goes through setBinLocked. The caller
// holds e's shard lock.
func (k *keyRuns) writeLocked(s *Store, e *seriesEntry, h int32) {
	for i := k.first[h]; i >= 0; {
		en := &k.ents[i]
		if next := e.binLen(s.span); en.bin == next {
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
		s.setBinLocked(e, en.bin, en.v)
		i = en.next
	}
}
