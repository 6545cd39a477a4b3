package monitor

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"sort"
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
// Reading is a recovery pass's first stream (see recover.go): one
// reader checks the framing a block at a time and hands each series'
// bytes to the worker that owns its key's shard, which builds the entry
// from them — both key strings in one allocation, the shard maps sized
// from seriesCount, bounded by the snapshot's size — runs each sealed
// chunk's CRC check and token walk (chunk.FromEncoded), and installs
// the series.
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
