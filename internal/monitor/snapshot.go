package monitor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/topo"
)

// Snapshot format: a durable dump of a Store, so a FUNNEL deployment
// can restart without losing the 30-day baselines the seasonal DiD
// needs (§3.2.5). Version 3 stores each series' sealed chunks
// verbatim with a per-chunk CRC-32 — the snapshot is as compressed as
// the resident store, recovery skips re-encoding, and a flipped bit on
// disk is caught on read instead of decoding into silently wrong
// values. Layout (all integers big-endian):
//
//	magic "FNLS" | version uint16 | startUnixNano int64 |
//	stepNanos int64 | chunkSpan uint32 | seriesCount uint32,
//	then per series:
//	  scope uint8 | entityLen uint16 | entity | metricLen uint16 |
//	  metric | head uint32 | chunkCount uint32,
//	  then per sealed chunk (each holding exactly chunkSpan bins):
//	    encLen uint32 | crc32(data) uint32 | encLen encoded bytes
//	    (see internal/chunk), or the single sentinel word
//	    0xFFFFFFFF for a quarantined chunk (no crc, no data),
//	  then tailCount uint32 | tailCount × float64 bits
//
// head is the count of already-pruned leading bins inside the first
// chunk. NaN gaps round-trip exactly (the chunk codec is bit-exact,
// and the raw tail stores quiet-NaN bits as-is). Series are written in
// sorted key order (scope, entity, metric) and the chunk encoder is
// deterministic, so two stores with identical logical contents produce
// byte-identical snapshots — the crash-recovery e2e depends on this.
//
// Reading splits the work in two: one goroutine parses the framing, and
// a pool of at most GOMAXPROCS workers runs each sealed chunk's CRC
// check and validation decode (see chunkValidator), all joined before
// the read returns.
//
// A chunk whose stored CRC does not match its bytes (or whose stream
// fails validation) is quarantined, not fatal: the reader installs a
// NaN tombstone in its place and continues, because the record framing
// is length-prefixed and stays decodable. The corruption then surfaces
// through the store's gap accounting as an explicitly degraded
// (Inconclusive) verdict rather than a crash or a confident lie.
// Quarantined chunks round-trip through the sentinel, so re-snapshots
// stay deterministic.
//
// Version 3 is the only version read: the checksum-less version 2 and
// the flat version 1 were never deployed, and a snapshot declaring
// either is refused as unsupported.
const (
	snapshotMagic   = "FNLS"
	snapshotVersion = 3
)

// snapshotTombstone is the encLen sentinel marking a quarantined chunk
// in a snapshot.
const snapshotTombstone = 0xFFFFFFFF

// maxSnapshotSpan bounds the chunk span a snapshot header may declare.
// Real spans are a few hundred bins (a day is 1440); the bound exists
// because the per-chunk allocation limit is derived from the span, so
// a corrupt header must not be able to demand gigabytes.
const maxSnapshotSpan = 1 << 20

// WriteSnapshot dumps the store's full contents in sorted key order. It
// holds every shard read-locked only for the cut (see snapshotCut), so
// the dump is a consistent image even against concurrent appends and
// prunes, and encodes and writes it with no lock held.
func (s *Store) WriteSnapshot(w io.Writer) error {
	var c snapshotCut
	s.epochMu.RLock()
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	c.takeLocked(s)
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
	s.epochMu.RUnlock()
	return c.writeTo(w)
}

// snapshotCut is an immutable image of a store, taken under its locks
// and written after they are released: the epoch, and per series the
// key, head, the chunks slice header as it stood, and a copy of the
// unsealed bins. Sealed chunks are immutable and a published chunks
// slice is never written in place — it only grows past the length a
// reader captured, or is replaced (see seriesEntry) — so the headers
// keep describing the cut while writers go on.
type snapshotCut struct {
	start  time.Time
	step   time.Duration
	span   int
	series []cutSeries
	// bins holds every series' unsealed bins, tail then line, back to
	// back; a compacting persister reuses it from one cut to the next.
	bins []float64
}

// cutSeries is one series of a cut; bins[lo:hi] of the cut are its
// unsealed bins.
type cutSeries struct {
	key    topo.KPIKey
	head   int
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
// epochMu and every shard lock, for reading at least.
func (c *snapshotCut) takeLocked(s *Store) {
	c.start, c.step, c.span = s.start, s.step, s.span
	c.series, c.bins = c.series[:0], c.bins[:0]
	for i := range s.shards {
		for k, e := range s.shards[i].series {
			lo := len(c.bins)
			c.bins = append(c.bins, e.tail...)
			c.bins = append(c.bins, e.pend[:e.npend]...)
			c.series = append(c.series, cutSeries{key: k, head: e.head, chunks: e.chunks, lo: lo, hi: len(c.bins)})
		}
	}
}

// writeTo writes the cut as a snapshot stream, series in sorted key
// order. It drops the cut's references to the store's chunks on the way
// out, so a kept cut does not hold pruned history alive.
func (c *snapshotCut) writeTo(w io.Writer) error {
	defer clear(c.series)
	sort.Slice(c.series, func(i, j int) bool {
		a, b := c.series[i].key, c.series[j].key
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		return a.Metric < b.Metric
	})

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var scratch [8]byte
	binary.BigEndian.PutUint16(scratch[:2], snapshotVersion)
	if _, err := bw.Write(scratch[:2]); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(scratch[:], uint64(c.start.UnixNano()))
	if _, err := bw.Write(scratch[:]); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(scratch[:], uint64(c.step))
	if _, err := bw.Write(scratch[:]); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(scratch[:4], uint32(c.span))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}

	binary.BigEndian.PutUint32(scratch[:4], uint32(len(c.series)))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	for _, cs := range c.series {
		hdr := []byte{byte(cs.key.Scope)}
		var err error
		if hdr, err = appendString(hdr, cs.key.Entity); err != nil {
			return err
		}
		if hdr, err = appendString(hdr, cs.key.Metric); err != nil {
			return err
		}
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(scratch[:4], uint32(cs.head))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(scratch[:4], uint32(len(cs.chunks)))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		for _, ck := range cs.chunks {
			if ck.Quarantined() {
				binary.BigEndian.PutUint32(scratch[:4], snapshotTombstone)
				if _, err := bw.Write(scratch[:4]); err != nil {
					return err
				}
				continue
			}
			binary.BigEndian.PutUint32(scratch[:4], uint32(ck.EncodedBytes()))
			binary.BigEndian.PutUint32(scratch[4:8], ck.CRC())
			if _, err := bw.Write(scratch[:8]); err != nil {
				return err
			}
			if _, err := bw.Write(ck.Data()); err != nil {
				return err
			}
		}
		tail := c.bins[cs.lo:cs.hi]
		binary.BigEndian.PutUint32(scratch[:4], uint32(len(tail)))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		// The unsealed bins go out a block at a time, as the reader takes
		// them in (all into its tail).
		var block [64 * 8]byte
		for len(tail) > 0 {
			n := min(len(tail), len(block)/8)
			for i, v := range tail[:n] {
				binary.BigEndian.PutUint64(block[8*i:], math.Float64bits(v))
			}
			if _, err := bw.Write(block[:8*n]); err != nil {
				return err
			}
			tail = tail[n:]
		}
	}
	err := bw.Flush()
	return err
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
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

// ReadSnapshot reconstructs a Store from a snapshot stream. Chunks
// whose checksum fails are quarantined as NaN tombstones (visible via
// Stats and the quarantined_chunks gauge), not fatal.
func ReadSnapshot(r io.Reader) (*Store, error) {
	var quarantined int
	store, err := readSnapshotShards(r, StoreShards, &quarantined)
	if store != nil && quarantined > 0 {
		store.quarantined.Add(int64(quarantined))
	}
	return store, err
}

// readSnapshotShards is ReadSnapshot into a store with the given shard
// count (recovery reuses it so the reopened store matches the
// configured striping); the chunk span is the snapshot's own.
// quarantined (may be nil) accumulates the count of checksum-failed
// chunks replaced by tombstones.
func readSnapshotShards(r io.Reader, shards int, quarantined *int) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("monitor: bad snapshot magic %q", magic)
	}
	var scratch [8]byte
	if _, err := io.ReadFull(br, scratch[:2]); err != nil {
		return nil, err
	}
	if version := binary.BigEndian.Uint16(scratch[:2]); version != snapshotVersion {
		return nil, fmt.Errorf("monitor: unsupported snapshot version %d", version)
	}
	if _, err := io.ReadFull(br, scratch[:]); err != nil {
		return nil, err
	}
	start := time.Unix(0, int64(binary.BigEndian.Uint64(scratch[:]))).UTC()
	if _, err := io.ReadFull(br, scratch[:]); err != nil {
		return nil, err
	}
	step := time.Duration(binary.BigEndian.Uint64(scratch[:]))
	if step <= 0 {
		return nil, fmt.Errorf("monitor: bad snapshot step %v", step)
	}
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, err
	}
	span := int(binary.BigEndian.Uint32(scratch[:4]))
	if span < 2 || span > maxSnapshotSpan {
		return nil, fmt.Errorf("monitor: bad snapshot chunk span %d", span)
	}
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(scratch[:4])

	store := NewStoreShards(start, step, shards)
	store.span = span
	v := startChunkValidator(span)
	err := readSnapshotSeries(br, store, count, v)
	// Join the workers on every path.
	nq := v.wait()
	if quarantined != nil {
		*quarantined += nq
	}
	if err != nil {
		return nil, err
	}
	return store, nil
}

// readSnapshotSeries parses count series bodies from br into store,
// handing sealed chunks to v for validation.
func readSnapshotSeries(br *bufio.Reader, store *Store, count uint32, v *chunkValidator) error {
	span := store.span
	// One clock read stamps every restored series' arrival watermark with
	// the restore time. The data's true arrival time died with the
	// previous process; leaving the watermark empty instead made the
	// first post-restart assessment of an untouched series report an
	// absent bin-to-verdict latency (and a bogus one if the key's first
	// live append landed mid-assessment). Restamping bounds the first
	// reported latency by time-since-restore, which is the honest reading
	// of "how stale is the evidence this verdict used".
	restoredAt := time.Now().UnixNano()
	var scratch []byte
	for i := uint32(0); i < count; i++ {
		var b [1]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return err
		}
		scope := topo.Scope(b[0])
		if scope != topo.ScopeServer && scope != topo.ScopeInstance && scope != topo.ScopeService {
			return fmt.Errorf("monitor: bad snapshot scope %d", b[0])
		}
		entity, err := readSnapshotString(br, &scratch)
		if err != nil {
			return err
		}
		metric, err := readSnapshotString(br, &scratch)
		if err != nil {
			return err
		}
		e, err := readSnapshotEntry(br, span, v)
		if err != nil {
			return err
		}
		key := topo.KPIKey{Scope: scope, Entity: entity, Metric: metric}
		e.arrivalNanos = restoredAt
		store.shardFor(key).series[key] = e
	}
	return nil
}

// chunkValidator takes the per-chunk work of a snapshot read off the
// goroutine that parses the framing: a pool of at most GOMAXPROCS
// workers checks each chunk's CRC, runs chunk.FromEncoded's validation
// decode, and installs the chunk — or a tombstone for one that fails
// either check.
type chunkValidator struct {
	span int
	jobs chan chunkJob
	wg   sync.WaitGroup
	// pending collects one entry's jobs until its chunks slice has
	// stopped growing (parser goroutine only).
	pending []chunkJob

	quarantined atomic.Int64
}

// chunkJob is one sealed chunk as framed on disk, and the slot of its
// series entry that receives the validated chunk.
type chunkJob struct {
	e    *seriesEntry
	slot int
	data []byte
	crc  uint32
}

// startChunkValidator starts the worker pool for a snapshot of the
// given chunk span.
func startChunkValidator(span int) *chunkValidator {
	workers := runtime.GOMAXPROCS(0)
	v := &chunkValidator{
		span: span,
		// A few jobs of slack per worker, so the parser keeps reading
		// while every worker is inside a decode.
		jobs: make(chan chunkJob, 4*workers),
	}
	for ; workers > 0; workers-- {
		v.wg.Add(1)
		go v.work()
	}
	return v
}

// work validates chunks until the job channel closes.
func (v *chunkValidator) work() {
	defer v.wg.Done()
	for j := range v.jobs {
		ck, err := chunk.FromEncoded(j.data, v.span)
		if err != nil || ck.CRC() != j.crc {
			// The framing held (the length-delimited read succeeded) but
			// the bytes are rotten: quarantine this chunk and keep
			// recovering the rest of the store.
			ck = chunk.Tombstone(v.span)
			v.quarantined.Add(1)
		}
		j.e.chunks[j.slot] = ck
	}
}

// add queues one framed chunk for the entry being parsed and reserves
// its slot.
func (v *chunkValidator) add(e *seriesEntry, data []byte, crc uint32) {
	v.pending = append(v.pending, chunkJob{e: e, slot: len(e.chunks), data: data, crc: crc})
	e.chunks = append(e.chunks, nil)
}

// tombstone installs a quarantine placeholder read from the stream.
func (v *chunkValidator) tombstone(e *seriesEntry) {
	e.chunks = append(e.chunks, chunk.Tombstone(v.span))
	v.quarantined.Add(1)
}

// dispatch hands the parsed entry's chunks to the workers. The entry's
// chunks slice must not grow again before wait returns: the workers
// write its elements.
func (v *chunkValidator) dispatch() {
	for _, j := range v.pending {
		v.jobs <- j
	}
	clear(v.pending) // drop the references to the dispatched bytes
	v.pending = v.pending[:0]
}

// wait joins the workers and returns the number of chunks quarantined.
func (v *chunkValidator) wait() (quarantined int) {
	close(v.jobs)
	v.wg.Wait()
	return int(v.quarantined.Load())
}

// readSnapshotEntry reads one series body: head, verbatim sealed
// chunks, each with its CRC-32 (or a tombstone sentinel in its place),
// then the raw tail. The chunks themselves are checked off-thread by v
// — a rotten one degrades one chunk, not the whole recovery — while
// anything wrong with the framing fails the entry here.
func readSnapshotEntry(br *bufio.Reader, span int, v *chunkValidator) (*seriesEntry, error) {
	var scratch [8]byte
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, err
	}
	head := binary.BigEndian.Uint32(scratch[:4])
	if int(head) >= span {
		return nil, fmt.Errorf("monitor: snapshot head %d exceeds chunk span %d", head, span)
	}
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, err
	}
	chunkCount := binary.BigEndian.Uint32(scratch[:4])
	if head > 0 && chunkCount == 0 {
		return nil, fmt.Errorf("monitor: snapshot head %d with no chunks", head)
	}
	e := &seriesEntry{head: int(head)}
	for c := uint32(0); c < chunkCount; c++ {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return nil, err
		}
		encLen := binary.BigEndian.Uint32(scratch[:4])
		if encLen == snapshotTombstone {
			// A quarantined chunk from a previous recovery round-trips
			// as a tombstone.
			v.tombstone(e)
			continue
		}
		// Bound the pre-allocation by what a span of values can encode
		// (~9 bytes/value worst case) so a corrupt length fails at
		// ReadFull instead of demanding gigabytes.
		if int(encLen) > 10*span {
			return nil, fmt.Errorf("monitor: snapshot chunk of %d bytes exceeds span %d", encLen, span)
		}
		if _, err := io.ReadFull(br, scratch[4:8]); err != nil {
			return nil, err
		}
		wantCRC := binary.BigEndian.Uint32(scratch[4:8])
		data := make([]byte, encLen)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, err
		}
		v.add(e, data, wantCRC)
	}
	v.dispatch()
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, err
	}
	tailCount := binary.BigEndian.Uint32(scratch[:4])
	if int(tailCount) >= span {
		return nil, fmt.Errorf("monitor: snapshot tail of %d bins exceeds chunk span %d", tailCount, span)
	}
	// Read the tail a block at a time. The up-front capacity is capped:
	// the count is untrusted until the bytes behind it have arrived.
	e.tail = make([]float64, 0, min(int(tailCount), 4096))
	var block [64 * 8]byte
	for left := int(tailCount); left > 0; {
		n := min(left, len(block)/8)
		buf := block[:8*n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		for ; len(buf) > 0; buf = buf[8:] {
			e.tail = append(e.tail, math.Float64frombits(binary.BigEndian.Uint64(buf)))
		}
		left -= n
	}
	return e, nil
}

// readSnapshotString reads a uint16-length-prefixed string from br
// through *scratch, which it grows and keeps for the next call, so the
// returned string is the one allocation (a local header array would
// escape through io.ReadFull and cost another).
func readSnapshotString(br *bufio.Reader, scratch *[]byte) (string, error) {
	if cap(*scratch) < 2 {
		*scratch = make([]byte, 2, 64)
	}
	hdr := (*scratch)[:2]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return "", err
	}
	n := int(binary.BigEndian.Uint16(hdr))
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
