// Package chunk implements the compressed sealed-chunk codec behind
// the monitor store's series storage: fixed-span blocks of float64
// bins encoded with a Gorilla-style XOR scheme (Facebook's in-memory
// TSDB) extended with run-length records for long stretches of
// repeated bits — which is what NaN gap runs and constant counters
// compress down to. The codec is exact: decoding reproduces the input
// bit for bit, including NaN payloads, ±Inf, signed zeros and
// denormals, because every comparison and transform operates on the
// raw IEEE-754 bits, never on float values.
//
// Encoding is deterministic — the same values always produce the same
// bytes — so two stores with identical logical contents serialize to
// byte-identical snapshots (the crash-recovery e2e depends on this).
//
// Stream layout (bits, MSB first within each byte):
//
//	value[0] as 64 raw bits, then per subsequent value one token:
//	  0                            same bits as the previous value
//	  10  <m meaningful bits>      XOR with the previous value, reusing
//	                               the previous leading/meaningful window
//	  110 <6:leading> <6:meaningful-1> <meaningful bits>
//	                               XOR with a freshly declared window
//	  111 <16:count>               the previous value repeats count more
//	                               times (emitted for runs ≥ 32)
//
// The value count is carried out of band (the store knows its span);
// trailing pad bits in the final byte are zero.
//
// The encoder packs the stream a 64-bit word at a time and writes each
// token in at most two word operations; a sealed chunk holds exactly its
// encoded bytes, with no spare capacity.
package chunk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"
)

// DefaultSpan is the number of bins a store seals into one chunk: 512
// one-minute bins is ~8.5 hours of history per chunk, small enough
// that a windowed read decodes little slack, large enough that the XOR
// stream amortizes its per-chunk 8-byte seed value.
const DefaultSpan = 512

// runMinLen is the repeat-run length at which the encoder switches
// from per-value repeat bits to a run record. A record costs 19 bits,
// a repeat bit costs 1, so the break-even is 19; rounding up keeps
// short runs in the simpler form.
const runMinLen = 32

// maxRun is the largest repeat count one run record can carry.
const maxRun = 1<<16 - 1

// Chunk is an immutable compressed block of float64 values. Chunks are
// safe for concurrent use by any number of readers once built; the
// store shares them by reference instead of copying bins.
//
// A chunk may instead be a quarantine tombstone: the placeholder left
// behind when a sealed chunk's on-disk checksum no longer matched its
// bytes. A tombstone keeps the chunk's position and span in the series
// but decodes every bin to NaN, so the corruption surfaces through the
// normal gap machinery as missing data rather than as wrong values.
type Chunk struct {
	count       int
	data        []byte
	crc         uint32
	quarantined bool
}

// Encode compresses vals into a sealed chunk. The input slice is not
// retained. The stream is built in a pooled scratch buffer and copied
// out once, so the chunk's bytes have no spare capacity and a call
// allocates only the Chunk and its bytes.
func Encode(vals []float64) *Chunk {
	c := &Chunk{count: len(vals)}
	if len(vals) == 0 {
		return c
	}
	scratch := encodeScratch.Get().(*[]byte)
	// No token is longer than 79 bits, so 10 bytes a value (plus the
	// seed word's 8) is room for any stream: appends never reallocate.
	if need := 8 + 10*len(vals); cap(*scratch) < need {
		*scratch = make([]byte, 0, need)
	}
	w := bitWriter{buf: (*scratch)[:0]}
	prev := math.Float64bits(vals[0])
	w.put(prev, 64)
	run := 0
	// No nonzero XOR has 64 leading zeros, so the first one always
	// declares a window.
	lead, mean := 64, 0
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		if cur == prev {
			run++
			continue
		}
		if run > 0 {
			flushRun(&w, run)
			run = 0
		}
		x := cur ^ prev
		l := bits.LeadingZeros64(x)
		t := bits.TrailingZeros64(x)
		if l >= lead && t >= 64-lead-mean {
			payload := x >> uint(64-lead-mean)
			if mean <= 62 {
				w.put(0b10<<uint(mean)|payload, 2+mean)
			} else {
				w.put(0b10, 2)
				w.put(payload, mean)
			}
		} else {
			m := 64 - l - t
			header := 0b110<<12 | uint64(l)<<6 | uint64(m-1)
			if m <= 49 {
				w.put(header<<uint(m)|x>>uint(t), 15+m)
			} else {
				w.put(header, 15)
				w.put(x>>uint(t), m)
			}
			lead, mean = l, m
		}
		prev = cur
	}
	flushRun(&w, run)
	out := w.finish() // still *scratch's array: it never reallocates
	c.data = make([]byte, len(out))
	copy(c.data, out)
	c.crc = crc32.ChecksumIEEE(c.data)
	encodeScratch.Put(scratch)
	return c
}

// encodeScratch pools the buffers Encode builds its streams in; each
// is sized for the longest input it has encoded.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// flushRun emits a pending repeat run: 19-bit run records while at
// least runMinLen repeats remain, then the fewer than runMinLen left as
// that many zero repeat bits in one put.
func flushRun(w *bitWriter, run int) {
	for run >= runMinLen {
		n := min(run, maxRun)
		w.put(0b111<<16|uint64(n), 19)
		run -= n
	}
	w.put(0, run)
}

// Count returns the number of values in the chunk.
func (c *Chunk) Count() int { return c.count }

// EncodedBytes returns the size of the compressed stream.
func (c *Chunk) EncodedBytes() int { return len(c.data) }

// Data returns the encoded stream. Callers must treat it as read-only;
// snapshots write it verbatim and FromEncoded wraps it verbatim.
func (c *Chunk) Data() []byte { return c.data }

// CRC returns the IEEE CRC-32 of the encoded stream, computed at seal
// time (Encode) or wrap time (FromEncoded). Snapshots persist it next
// to the stream so a flipped bit on disk is caught on read instead of
// decoding into silently wrong values.
func (c *Chunk) CRC() uint32 { return c.crc }

// Quarantined reports whether the chunk is a corruption tombstone —
// its original bytes failed their checksum and every bin decodes to
// NaN.
func (c *Chunk) Quarantined() bool { return c.quarantined }

// Tombstone builds a quarantine placeholder for a chunk of count bins
// whose stored bytes failed validation. It carries no data; DecodeInto
// yields NaN for every bin, feeding the gap/Inconclusive machinery.
func Tombstone(count int) *Chunk {
	if count < 0 {
		count = 0
	}
	return &Chunk{count: count, quarantined: true}
}

// FromEncoded wraps a previously encoded stream (e.g. read back from a
// snapshot) as a chunk of count values. The stream is checked token by
// token against the layout above (checkStream), which builds no value,
// so a chunk accepted here can never fail (or run out of bounds) in a
// later DecodeInto.
func FromEncoded(data []byte, count int) (*Chunk, error) {
	if count < 0 {
		return nil, fmt.Errorf("chunk: negative count %d", count)
	}
	if err := checkStream(data, count); err != nil {
		return nil, fmt.Errorf("chunk: invalid stream: %w", err)
	}
	return &Chunk{count: count, data: data, crc: crc32.ChecksumIEEE(data)}, nil
}

// checkStream reports whether data is a well-formed stream of count
// values: the 64-bit seed, then tokens until count values are out, each
// whole within data, no reused window before one is declared, no
// declared window past 64 bits, and no run record that is empty or
// overflows count. It is the decoder's grammar with only the bit
// position advanced. While 8 bytes remain at the cursor one load holds
// a token's whole header (at most 19 bits); within the last 8 bytes the
// bit reader gathers what is left, zero-padded. A token passes only if
// it ends at or before the end of data, so pad bits never pass for
// stream bits.
func checkStream(data []byte, count int) error {
	if count == 0 {
		return nil
	}
	end := 8 * len(data)
	if end < 64 {
		return errTruncated
	}
	pos := 64
	mean := 0 // the declared window's width; 0 before any
	for i := 1; i < count; i++ {
		var w uint64 // the bits at the cursor, left-aligned
		if at := pos >> 3; at+8 <= len(data) {
			w = binary.BigEndian.Uint64(data[at:]) << uint(pos&7)
		} else {
			r := bitReader{data: data, pos: pos}
			left := end - pos
			v, _ := r.readBits(left)
			w = v << uint(64-left) // a shift by 64 leaves 0
		}
		switch {
		case w>>63 == 0: // 0: repeat previous bits
			pos++
		case w>>62 == 0b10: // XOR inside the previous window
			if mean == 0 {
				if pos+2 > end {
					return errTruncated
				}
				return fmt.Errorf("window reuse before any window at value %d", i)
			}
			pos += 2 + mean
		case w>>61 == 0b110: // XOR with a new window
			if pos+15 > end {
				return errTruncated
			}
			l, m := int(w>>55&63), int(w>>49&63)+1
			if l+m > 64 {
				return fmt.Errorf("bad window leading=%d meaningful=%d", l, m)
			}
			mean = m
			pos += 15 + m
		default: // 111: run record
			if pos+19 > end {
				return errTruncated
			}
			n := int(w >> 45 & maxRun)
			if n == 0 {
				return fmt.Errorf("empty run record at value %d", i)
			}
			if i+n > count {
				return fmt.Errorf("run record of %d overflows chunk of %d at value %d", n, count, i)
			}
			pos += 19
			i += n - 1
		}
		if pos > end {
			return errTruncated
		}
	}
	return nil
}

// DecodeInto decodes values [lo, hi) of the chunk into dst[:hi-lo].
// It allocates nothing and stops reading the stream as soon as hi
// values have been produced, so a small window near the front of a
// chunk pays only for the prefix it touches. It panics on a corrupt
// stream — chunks built by Encode or checked by FromEncoded never
// are — and on a dst shorter than hi−lo.
func (c *Chunk) DecodeInto(dst []float64, lo, hi int) {
	if err := c.decodeRange(dst, lo, hi); err != nil {
		panic("chunk: " + err.Error())
	}
}

// decodeRange is DecodeInto with an error return. It keeps the
// grammar's checks, so a stream checkStream refuses fails here too
// rather than running out of bounds.
func (c *Chunk) decodeRange(dst []float64, lo, hi int) error {
	if lo < 0 || hi > c.count || lo > hi {
		return fmt.Errorf("decode range [%d, %d) outside chunk of %d values", lo, hi, c.count)
	}
	if hi == lo {
		return nil
	}
	if len(dst) < hi-lo {
		return fmt.Errorf("decode buffer too short: %d < %d", len(dst), hi-lo)
	}
	if c.quarantined {
		// A tombstone has no bytes; its bins are all missing.
		for i := range dst[:hi-lo] {
			dst[i] = math.NaN()
		}
		return nil
	}
	r := bitReader{data: c.data}
	prev, ok := r.readBits(64)
	if !ok {
		return errTruncated
	}
	if lo == 0 {
		dst[0] = math.Float64frombits(prev)
	}
	i := 1
	lead, mean := -1, 0
	for i < c.count && i < hi {
		// One load covers the token when 8 bytes remain at the cursor: the
		// word then holds at least 57 stream bits at any bit phase, which
		// is a whole repeat bit, a reused-window token of up to 55 payload
		// bits, or a new-window token of up to 42. Nothing taken from it
		// lies past the end of the stream, so no truncation check applies.
		// Wider payloads, run records and the last 8 bytes of the stream
		// fall through to the bit reader below.
		if at := r.pos >> 3; at+8 <= len(r.data) {
			w := binary.BigEndian.Uint64(r.data[at:]) << uint(r.pos&7)
			taken := true
			switch {
			case w>>63 == 0: // 0: repeat previous bits
				r.pos++
			case w>>62 == 0b10 && lead >= 0 && mean <= oneLoadBits-2:
				r.pos += 2 + mean
				prev ^= w << 2 >> uint(64-mean) << uint(64-lead-mean)
			case w>>61 == 0b110 && int(w>>49&63)+1 <= oneLoadBits-15:
				l, m := int(w>>55&63), int(w>>49&63)+1
				if l+m > 64 {
					return fmt.Errorf("bad window leading=%d meaningful=%d", l, m)
				}
				lead, mean = l, m
				r.pos += 15 + mean
				prev ^= w << 15 >> uint(64-mean) << uint(64-lead-mean)
			default:
				taken = false
			}
			if taken {
				if i >= lo {
					dst[i-lo] = math.Float64frombits(prev)
				}
				i++
				continue
			}
		}
		b, ok := r.readBits(1)
		if !ok {
			return errTruncated
		}
		if b == 0 { // repeat previous bits
			if i >= lo {
				dst[i-lo] = math.Float64frombits(prev)
			}
			i++
			continue
		}
		if b, ok = r.readBits(1); !ok {
			return errTruncated
		}
		if b == 0 { // 10: XOR inside the previous window
			if lead < 0 {
				return fmt.Errorf("window reuse before any window at value %d", i)
			}
			m, ok := r.readBits(mean)
			if !ok {
				return errTruncated
			}
			prev ^= m << (64 - lead - mean)
			if i >= lo {
				dst[i-lo] = math.Float64frombits(prev)
			}
			i++
			continue
		}
		if b, ok = r.readBits(1); !ok {
			return errTruncated
		}
		if b == 0 { // 110: XOR with a new window
			l, ok1 := r.readBits(6)
			m1, ok2 := r.readBits(6)
			if !ok1 || !ok2 {
				return errTruncated
			}
			lead, mean = int(l), int(m1)+1
			if lead+mean > 64 {
				return fmt.Errorf("bad window leading=%d meaningful=%d", lead, mean)
			}
			m, ok := r.readBits(mean)
			if !ok {
				return errTruncated
			}
			prev ^= m << (64 - lead - mean)
			if i >= lo {
				dst[i-lo] = math.Float64frombits(prev)
			}
			i++
			continue
		}
		// 111: run record
		n, ok := r.readBits(16)
		if !ok {
			return errTruncated
		}
		if n == 0 {
			return fmt.Errorf("empty run record at value %d", i)
		}
		if i+int(n) > c.count {
			return fmt.Errorf("run record of %d overflows chunk of %d at value %d", n, c.count, i)
		}
		v := math.Float64frombits(prev)
		for j := 0; j < int(n); j++ {
			if i >= lo && i < hi {
				dst[i-lo] = v
			}
			i++
		}
	}
	return nil
}

// oneLoadBits is how many stream bits a 64-bit load at the cursor's
// byte is sure to hold past the cursor, whatever its bit phase.
const oneLoadBits = 57

// errTruncated reports a stream that ended before its value count.
var errTruncated = fmt.Errorf("truncated stream")

// bitWriter appends MSB-first bit strings to a byte buffer. Bits
// collect in a left-aligned 64-bit accumulator that spills to the
// buffer as 8 big-endian bytes each time it fills, so the bytes are
// those a bit-at-a-time writer would produce.
type bitWriter struct {
	buf []byte
	acc uint64 // pending bits, left-aligned; the rest are zero
	n   int    // bits pending in acc, always < 64
}

// put appends the low n bits of v, most significant first. v must have
// no bits set at or above bit n, and n must be at most 64.
func (w *bitWriter) put(v uint64, n int) {
	free := 64 - w.n
	if n < free {
		w.acc |= v << uint(free-n)
		w.n += n
		return
	}
	// The word fills: spill it, and keep v's low n−free bits.
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>uint(n-free))
	w.n = n - free
	w.acc = v << uint(64-w.n) // a shift by 64 leaves 0
}

// finish appends the pending bits (the last byte padded with zero bits)
// and returns the buffer.
func (w *bitWriter) finish() []byte {
	for i := 0; i < w.n; i += 8 {
		w.buf = append(w.buf, byte(w.acc>>uint(56-i)))
	}
	w.acc, w.n = 0, 0
	return w.buf
}

// bitReader consumes MSB-first bit strings from a byte slice.
type bitReader struct {
	data []byte
	pos  int // absolute bit position
}

// readBits reads the next n bits as the low bits of a uint64; ok is
// false when the stream has fewer than n bits left.
func (r *bitReader) readBits(n int) (uint64, bool) {
	if r.pos+n > len(r.data)*8 {
		return 0, false
	}
	if i := r.pos >> 3; n <= 56 && i+8 <= len(r.data) {
		// The whole read fits in one 64-bit load at the current byte.
		w := binary.BigEndian.Uint64(r.data[i:]) << uint(r.pos&7)
		r.pos += n
		return w >> uint(64-n), true
	}
	var v uint64
	for n > 0 {
		avail := 8 - r.pos&7
		take := n
		if take > avail {
			take = avail
		}
		b := r.data[r.pos>>3] >> uint(avail-take) & (1<<uint(take) - 1)
		v = v<<uint(take) | uint64(b)
		r.pos += take
		n -= take
	}
	return v, true
}
