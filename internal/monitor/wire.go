package monitor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/topo"
)

// Wire protocol: every frame is a uint32 big-endian payload length
// followed by the payload. The first payload byte is the frame type.
//
//	measurement frame (type 0x01), server → client:
//	  scope uint8 | entityLen uint16 | entity | metricLen uint16 |
//	  metric | unixNano int64 | value float64 (IEEE 754 bits)
//	subscribe frame (type 0x02), client → server:
//	  count uint16, then count × (prefixLen uint16 | prefix)
//	  A measurement matches when any prefix is a prefix of the
//	  KPIKey.String() form; zero prefixes match everything.
//	subscribe-since frame (type 0x03), client → server:
//	  since int64 (unixNano) | count uint16, then count ×
//	  (prefixLen uint16 | prefix)
//	  Like subscribe, but the server first replays every stored
//	  matching measurement at or after since (the resuming client's
//	  low-water mark), then streams live. since 0 skips replay. The
//	  replay and live streams may overlap; resuming clients dedup by
//	  (key, bin).
//	batch frame (type 0x04), publisher → ingest server:
//	  count uint16, then count × measurement body:
//	    scope uint8 | entityLen uint16 | entity | metricLen uint16 |
//	    metric | unixNano int64 | value float64 (IEEE 754 bits)
//	  The body layout is the measurement frame minus its type byte.
//	  Coalescing many measurements per frame amortizes the length
//	  prefix, the write syscall and (server side) the per-frame read
//	  into one allocation-free validate-and-apply pass.
//	id batch frame (type 0x05), publisher → ingest server:
//	  count uint16, then count × entry:
//	    define:    0 | measurement body (the 0x04 layout)
//	    reference: uvarint(id ≥ 1) | unixNano int64 | value float64
//	  Ids are per connection. A define gives its key the connection's
//	  next id — 1, 2, … in the order the defines arrive — until
//	  maxKeyCacheEntries ids are issued; past that a define issues none,
//	  and its key goes as a define every time. A reference is an id an
//	  earlier define on the same connection issued (in this frame or an
//	  earlier one), then the body's last 16 bytes. A reconnecting
//	  publisher starts again at 1. An id not issued, id 0, or an entry
//	  cut short drops the connection, as any malformed frame does. It is
//	  the WAL's define/reference encoding (wal.go) with the connection in
//	  place of the log generation. Publisher.PublishBatch writes only
//	  this form and a server that predates it drops the connection, so
//	  servers must be upgraded before publishers; servers keep accepting
//	  0x04.
//
// Strings are raw bytes (the system uses ASCII identifiers). Frames are
// capped at maxFrame to bound allocation from a misbehaving peer.
const (
	frameMeasurement    = 0x01
	frameSubscribe      = 0x02
	frameSubscribeSince = 0x03
	frameBatch          = 0x04
	frameBatchID        = 0x05
	maxFrame            = 1 << 16
)

// ErrFrameTooLarge marks frames rejected by the max-frame-size bound,
// so servers can count hostile or corrupt peers separately from plain
// I/O errors.
var ErrFrameTooLarge = errors.New("monitor: frame exceeds size bound")

// appendString writes a uint16-length-prefixed string.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("monitor: string too long (%d bytes)", len(s))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// readString consumes a uint16-length-prefixed string from b.
func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("monitor: truncated string header")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("monitor: truncated string body (want %d, have %d)", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

// appendMeasurementBody appends the common measurement body (scope,
// key strings, timestamp, value bits) shared by the 0x01 frame, the
// 0x04 batch frame and the WAL record format.
func appendMeasurementBody(b []byte, m Measurement) ([]byte, error) {
	b = append(b, byte(m.Key.Scope))
	var err error
	if b, err = appendString(b, m.Key.Entity); err != nil {
		return nil, err
	}
	if b, err = appendString(b, m.Key.Metric); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint64(b, uint64(m.T.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.V))
	return b, nil
}

// measurementKeySpan validates the key part of a measurement body —
// scope byte, then the length-prefixed entity and metric — and returns
// where the metric's length word starts and where the key ends, so
// that b[:keyEnd] is the whole key as framed.
func measurementKeySpan(b []byte) (metOff, keyEnd int, err error) {
	if len(b) < 1 {
		return 0, 0, fmt.Errorf("monitor: truncated measurement body")
	}
	scope := topo.Scope(b[0])
	if scope != topo.ScopeServer && scope != topo.ScopeInstance && scope != topo.ScopeService {
		return 0, 0, fmt.Errorf("monitor: bad scope %d", b[0])
	}
	if len(b) < 3 {
		return 0, 0, fmt.Errorf("monitor: truncated string header")
	}
	entLen := int(binary.BigEndian.Uint16(b[1:3]))
	metOff = 3 + entLen
	if len(b) < metOff+2 {
		return 0, 0, fmt.Errorf("monitor: truncated string body (want %d, have %d)", entLen, len(b)-3)
	}
	metLen := int(binary.BigEndian.Uint16(b[metOff : metOff+2]))
	keyEnd = metOff + 2 + metLen
	if len(b) < keyEnd {
		return 0, 0, fmt.Errorf("monitor: truncated string body (want %d, have %d)", metLen, len(b)-metOff-2)
	}
	return metOff, keyEnd, nil
}

// keyFromSpan builds the key framed in b[:keyEnd], as validated by
// measurementKeySpan.
func keyFromSpan(b []byte, metOff, keyEnd int) topo.KPIKey {
	return topo.KPIKey{
		Scope:  topo.Scope(b[0]),
		Entity: string(b[3:metOff]),
		Metric: string(b[metOff+2 : keyEnd]),
	}
}

// decodeMeasurementBody consumes one measurement body from b, returning
// the remainder. A non-nil cache interns decoded keys so a hot ingest
// loop does not re-allocate the entity/metric strings of every sample.
func decodeMeasurementBody(b []byte, cache *KeyCache) (Measurement, []byte, error) {
	var m Measurement
	// Find the span covering scope + both strings so the whole key can
	// be interned with one map lookup on the raw bytes.
	metOff, keyEnd, err := measurementKeySpan(b)
	if err != nil {
		return m, nil, err
	}
	if cache != nil {
		// string(b[...]) inside the map index does not allocate on hit.
		if key, ok := cache.m[string(b[:keyEnd])]; ok {
			m.Key = key
		} else {
			m.Key = keyFromSpan(b, metOff, keyEnd)
			if len(cache.m) < maxKeyCacheEntries {
				cache.m[string(b[:keyEnd])] = m.Key
			}
		}
	} else {
		m.Key = keyFromSpan(b, metOff, keyEnd)
	}
	b = b[keyEnd:]
	if len(b) < 16 {
		return m, nil, fmt.Errorf("monitor: bad measurement tail length %d", len(b))
	}
	nanos := int64(binary.BigEndian.Uint64(b[:8]))
	bits := binary.BigEndian.Uint64(b[8:16])
	m.T = time.Unix(0, nanos).UTC()
	m.V = math.Float64frombits(bits)
	return m, b[16:], nil
}

// maxKeyCacheEntries bounds a KeyCache so a hostile publisher streaming
// unique keys cannot grow it without bound (lookups still work past the
// cap; new keys just stop being interned).
const maxKeyCacheEntries = 1 << 16

// KeyCache interns KPI keys decoded from batch frames. A cache kept
// across frames turns the two string allocations per measurement into
// one map lookup on the raw key bytes — fleets publish the same few
// thousand keys every bin. Not safe for concurrent use; keep one per
// decode loop. (The ingest server does not decode into Measurements; it
// keeps a keyTable per connection, which interns the same way and also
// remembers where each key's series lives.)
type KeyCache struct {
	m map[string]topo.KPIKey
}

// NewKeyCache returns an empty intern table.
func NewKeyCache() *KeyCache {
	return &KeyCache{m: make(map[string]topo.KPIKey)}
}

// Len reports the number of interned keys.
func (c *KeyCache) Len() int { return len(c.m) }

// EncodeMeasurement renders a measurement frame payload (without the
// length prefix).
func EncodeMeasurement(m Measurement) ([]byte, error) {
	b := make([]byte, 0, 32+len(m.Key.Entity)+len(m.Key.Metric))
	b = append(b, frameMeasurement)
	return appendMeasurementBody(b, m)
}

// DecodeMeasurement parses a measurement frame payload.
func DecodeMeasurement(b []byte) (Measurement, error) {
	var m Measurement
	if len(b) < 2 || b[0] != frameMeasurement {
		return m, fmt.Errorf("monitor: not a measurement frame")
	}
	m, rest, err := decodeMeasurementBody(b[1:], nil)
	if err != nil {
		return Measurement{}, err
	}
	if len(rest) != 0 {
		return Measurement{}, fmt.Errorf("monitor: bad measurement tail length %d", 16+len(rest))
	}
	return m, nil
}

// EncodeBatch renders a batch frame payload carrying every measurement
// in ms. It fails if ms is empty or the frame would exceed the frame
// size bound; publishers size their batches well under it (a typical
// 64-measurement batch is ~3 KB against the 64 KB cap).
func EncodeBatch(ms []Measurement) ([]byte, error) {
	return EncodeBatchInto(nil, ms)
}

// EncodeBatchInto is EncodeBatch appending into dst (usually a reused
// buffer sliced to zero length), so steady-state publishers encode
// without allocating.
func EncodeBatchInto(dst []byte, ms []Measurement) ([]byte, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("monitor: empty batch")
	}
	if len(ms) > math.MaxUint16 {
		return nil, fmt.Errorf("monitor: batch too large (%d measurements)", len(ms))
	}
	base := len(dst)
	b := append(dst, frameBatch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(ms)))
	var err error
	for i := range ms {
		if b, err = appendMeasurementBody(b, ms[i]); err != nil {
			return nil, err
		}
	}
	if len(b)-base > maxFrame {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, len(b)-base)
	}
	return b, nil
}

// DecodeBatchInto parses a batch frame payload, appending the decoded
// measurements to dst (usually a reused slice cut to zero length). A
// non-nil cache interns keys across calls. On error the
// partially-decoded prefix is discarded. It accepts exactly the 0x04
// frames the ingest server's keyTable.ingestFrame accepts
// (FuzzIngestFrame holds the two together).
func DecodeBatchInto(dst []Measurement, b []byte, cache *KeyCache) ([]Measurement, error) {
	if len(b) < 3 || b[0] != frameBatch {
		return dst, fmt.Errorf("monitor: not a batch frame")
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	if n == 0 {
		return dst, fmt.Errorf("monitor: empty batch frame")
	}
	b = b[3:]
	out := dst
	var m Measurement
	var err error
	for i := 0; i < n; i++ {
		if m, b, err = decodeMeasurementBody(b, cache); err != nil {
			return dst, err
		}
		out = append(out, m)
	}
	if len(b) != 0 {
		return dst, fmt.Errorf("monitor: %d trailing bytes in batch frame", len(b))
	}
	return out, nil
}

// EncodeSubscribe renders a subscribe frame payload for the given
// key-string prefixes.
func EncodeSubscribe(prefixes []string) ([]byte, error) {
	if len(prefixes) > math.MaxUint16 {
		return nil, fmt.Errorf("monitor: too many prefixes")
	}
	b := []byte{frameSubscribe}
	b = binary.BigEndian.AppendUint16(b, uint16(len(prefixes)))
	var err error
	for _, p := range prefixes {
		if b, err = appendString(b, p); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeSubscribe parses a subscribe frame payload.
func DecodeSubscribe(b []byte) ([]string, error) {
	if len(b) < 3 || b[0] != frameSubscribe {
		return nil, fmt.Errorf("monitor: not a subscribe frame")
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	b = b[3:]
	out := make([]string, 0, n)
	var err error
	var p string
	for i := 0; i < n; i++ {
		if p, b, err = readString(b); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("monitor: %d trailing bytes in subscribe frame", len(b))
	}
	return out, nil
}

// EncodeSubscribeSince renders a subscribe-since frame payload: the
// resume low-water mark followed by the key-string prefixes. A zero
// since requests a live-only stream (no replay).
func EncodeSubscribeSince(since time.Time, prefixes []string) ([]byte, error) {
	if len(prefixes) > math.MaxUint16 {
		return nil, fmt.Errorf("monitor: too many prefixes")
	}
	var nanos int64
	if !since.IsZero() {
		nanos = since.UnixNano()
	}
	b := []byte{frameSubscribeSince}
	b = binary.BigEndian.AppendUint64(b, uint64(nanos))
	b = binary.BigEndian.AppendUint16(b, uint16(len(prefixes)))
	var err error
	for _, p := range prefixes {
		if b, err = appendString(b, p); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeSubscribeSince parses a subscribe-since frame payload. A zero
// since (no replay requested) decodes as the zero time.
func DecodeSubscribeSince(b []byte) (since time.Time, prefixes []string, err error) {
	if len(b) < 11 || b[0] != frameSubscribeSince {
		return time.Time{}, nil, fmt.Errorf("monitor: not a subscribe-since frame")
	}
	nanos := int64(binary.BigEndian.Uint64(b[1:9]))
	if nanos != 0 {
		since = time.Unix(0, nanos).UTC()
	}
	n := int(binary.BigEndian.Uint16(b[9:11]))
	b = b[11:]
	prefixes = make([]string, 0, n)
	var p string
	for i := 0; i < n; i++ {
		if p, b, err = readString(b); err != nil {
			return time.Time{}, nil, err
		}
		prefixes = append(prefixes, p)
	}
	if len(b) != 0 {
		return time.Time{}, nil, fmt.Errorf("monitor: %d trailing bytes in subscribe-since frame", len(b))
	}
	return since, prefixes, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, rejecting oversized
// frames.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto is ReadFrame reusing buf's capacity for the payload
// (growing it as needed), so a server's receive loop reads frames
// without a per-frame allocation. The returned slice aliases buf; the
// caller owns both and must consume the payload before the next read.
func ReadFrameInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
