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

// WriteSnapshot dumps the store's full contents in sorted key order.
// The whole dump runs with every shard read-locked so it is a
// consistent cut even against concurrent appends and prunes.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	for i := range s.shards {
		s.shards[i].mu.RLock()
		defer s.shards[i].mu.RUnlock()
	}
	return s.writeSnapshotLocked(w)
}

// writeSnapshotLocked writes the snapshot stream. The caller holds
// epochMu (at least for reading) and every shard lock.
func (s *Store) writeSnapshotLocked(w io.Writer) error {
	keys := make([]topo.KPIKey, 0, 64)
	for i := range s.shards {
		for k := range s.shards[i].series {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
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
	binary.BigEndian.PutUint64(scratch[:], uint64(s.start.UnixNano()))
	if _, err := bw.Write(scratch[:]); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(scratch[:], uint64(s.step))
	if _, err := bw.Write(scratch[:]); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(scratch[:4], uint32(s.span))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}

	binary.BigEndian.PutUint32(scratch[:4], uint32(len(keys)))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	for _, key := range keys {
		e := s.shards[s.shardIndex(key)].series[key]
		hdr := []byte{byte(key.Scope)}
		var err error
		if hdr, err = appendString(hdr, key.Entity); err != nil {
			return err
		}
		if hdr, err = appendString(hdr, key.Metric); err != nil {
			return err
		}
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(scratch[:4], uint32(e.head))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(scratch[:4], uint32(len(e.chunks)))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		for _, c := range e.chunks {
			if c.Quarantined() {
				binary.BigEndian.PutUint32(scratch[:4], snapshotTombstone)
				if _, err := bw.Write(scratch[:4]); err != nil {
					return err
				}
				continue
			}
			binary.BigEndian.PutUint32(scratch[:4], uint32(c.EncodedBytes()))
			binary.BigEndian.PutUint32(scratch[4:8], c.CRC())
			if _, err := bw.Write(scratch[:8]); err != nil {
				return err
			}
			if _, err := bw.Write(c.Data()); err != nil {
				return err
			}
		}
		binary.BigEndian.PutUint32(scratch[:4], uint32(e.tailLen()))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		// The unsealed bins, tail then line, go out a block at a time,
		// as the reader takes them in (all into its tail).
		var block [64 * 8]byte
		for _, tail := range [2][]float64{e.tail, e.pend[:e.npend]} {
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
	}
	return bw.Flush()
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
	for i := uint32(0); i < count; i++ {
		var b [1]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return err
		}
		scope := topo.Scope(b[0])
		if scope != topo.ScopeServer && scope != topo.ScopeInstance && scope != topo.ScopeService {
			return fmt.Errorf("monitor: bad snapshot scope %d", b[0])
		}
		entity, err := readSnapshotString(br)
		if err != nil {
			return err
		}
		metric, err := readSnapshotString(br)
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

// readSnapshotString reads a uint16-length-prefixed string from br.
func readSnapshotString(br *bufio.Reader) (string, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
