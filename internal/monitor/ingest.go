package monitor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
)

// IngestServer is the inbound half of the substrate: per-server agents
// dial in and stream measurement frames (the same framing the
// subscription push uses), which are appended to the store. Together
// with Server this completes §2.2's dataflow — agents publish, the
// centralized store aggregates, downstream consumers subscribe.
//
// Connections are hardened: a publisher silent for longer than
// ReadTimeout is dropped (agents flush at least once per bin, so the
// default leaves ample slack), oversized frames are rejected, and the
// Endpoint core recovers a panic in one handler by dropping that
// connection. Close disconnects every live publisher; after Wait no
// frame of theirs reaches the store.
type IngestServer struct {
	*Endpoint
	store *Store

	// ReadTimeout bounds the silence between frames from one
	// publisher; 0 means DefaultIngestReadTimeout, negative disables.
	ReadTimeout time.Duration
}

// NewIngestServer wraps a store for network ingestion.
func NewIngestServer(store *Store) *IngestServer {
	s := &IngestServer{store: store}
	s.Endpoint = NewEndpoint("ingest", store.Collector, s.handle)
	return s
}

// handle consumes measurement frames from one publisher until the
// connection drops, a malformed frame arrives, or the read deadline
// expires.
func (s *IngestServer) handle(conn net.Conn) {
	col := s.store.Collector()
	rt := timeout(s.ReadTimeout, DefaultIngestReadTimeout)
	// A frame-cap-sized read buffer so a packed batch frame arrives in
	// as few read syscalls as the socket allows.
	r := bufio.NewReaderSize(conn, maxFrame)
	// Per-connection state: the frame buffer and the key handle table
	// persist across frames, so a steady publisher's measurement costs
	// an index into its ids and no allocation.
	keys := newKeyTable(s.store, maxKeyCacheEntries)
	var frameBuf []byte
	for {
		if rt > 0 {
			conn.SetReadDeadline(time.Now().Add(rt))
		}
		payload, err := ReadFrameInto(r, frameBuf)
		if cap(payload) > cap(frameBuf) {
			frameBuf = payload[:0]
		}
		if err != nil {
			countReadErr(col, err)
			return
		}
		if err := keys.ingestFrame(payload); err != nil {
			col.Add(obs.CtrConnDrops, 1)
			return // protocol violation: drop the publisher
		}
		col.Add(obs.CtrBatchFrames, 1)
	}
}

// ingestFrame applies one publisher frame, an id batch (0x05, wire.go),
// to the table's store. The frame is validated whole first: another
// frame type, a bad scope byte, string length or tail, an id the
// connection has not issued, a count that disagrees with the entries,
// or trailing bytes reject it with the store and its logs untouched.
func (t *keyTable) ingestFrame(payload []byte) error {
	if len(payload) < 3 || payload[0] != frameBatchID {
		return fmt.Errorf("monitor: not an id batch frame")
	}
	want := int(binary.BigEndian.Uint16(payload[1:3]))
	if want == 0 {
		return fmt.Errorf("monitor: empty batch frame")
	}
	entries := payload[3:]
	n, used, err := t.scan(entries, want)
	switch {
	case err != nil:
		return err
	case n < want:
		return fmt.Errorf("monitor: frame holds %d of %d measurements", n, want)
	case used < len(entries):
		return fmt.Errorf("monitor: %d trailing bytes in frame", len(entries)-used)
	}
	t.apply()
	return nil
}

// Publisher is the agent-side connection to an IngestServer. It is not
// safe for concurrent use; one publisher per agent goroutine.
type Publisher struct {
	conn net.Conn
	w    *bufio.Writer
	// batchBuf is the frame PublishBatch builds, length word first, so
	// that it reaches the connection in one Write.
	batchBuf []byte
	ids      keyIDs
}

// keyIDs is the publisher's half of one connection's key ids (the id
// batch frame, wire.go): keys[id-1] is the key the define that issued id
// carried, and prev the id of the last measurement encoded. A publisher
// sends its keys in the same order every bin, so the id after prev is
// tried first, and the map, which hashes the key, only when it is
// another key's.
type keyIDs struct {
	ids  map[topo.KPIKey]uint32
	keys []topo.KPIKey
	prev uint32
}

// newPublisher wraps a fresh connection, whose ids start at 1.
func newPublisher(conn net.Conn) *Publisher {
	return &Publisher{conn: conn, w: bufio.NewWriter(conn)}
}

// DialPublisher connects an agent to the ingest endpoint.
func DialPublisher(addr string) (*Publisher, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newPublisher(conn), nil
}

// Publish sends one measurement, as a one-entry id batch frame. Frames
// are buffered; call Flush at bin boundaries (the agent cadence) to
// bound latency.
func (p *Publisher) Publish(m Measurement) error {
	return p.PublishBatch([]Measurement{m})
}

// PublishBatch sends many measurements in id batch frames (0x05),
// amortizing framing and syscall overhead; the fleet load path uses
// it. A key's first measurement on the connection carries the key and
// later ones its id. Each frame is packed to the frame size bound, so
// the split count adapts to the actual key sizes, and reaches the
// connection in one write: a frame the buffer has no room for goes
// straight from batchBuf, after whatever the buffer held.
func (p *Publisher) PublishBatch(ms []Measurement) error {
	for len(ms) > 0 {
		frame, rest, err := p.ids.appendFrame(p.batchBuf[:0], ms)
		if err != nil {
			return err
		}
		p.batchBuf = frame[:0]
		if len(frame) > p.w.Available() && p.w.Buffered() > 0 {
			if err := p.w.Flush(); err != nil {
				return err
			}
		}
		if _, err := p.w.Write(frame); err != nil {
			return err
		}
		ms = rest
	}
	return nil
}

// appendFrame encodes a maximal prefix of ms as one id batch frame,
// length word first, appended to dst, and returns it with the unencoded
// remainder. A key with no id goes as a define, which issues it the next
// id while fewer than maxKeyCacheEntries are issued. It errors only when
// a key is too long to frame or the first measurement alone cannot fit
// an empty frame; the frame is then never sent, so the ids its defines
// issued are taken back.
func (k *keyIDs) appendFrame(dst []byte, ms []Measurement) (frame []byte, rest []Measurement, err error) {
	if len(ms) == 0 {
		return nil, nil, fmt.Errorf("monitor: empty batch")
	}
	if k.ids == nil {
		k.ids = make(map[topo.KPIKey]uint32)
	}
	base, issued := len(dst), len(k.keys)
	b := append(dst, 0, 0, 0, 0, frameBatchID, 0, 0)
	n := 0
	for ; n < len(ms) && n < math.MaxUint16; n++ {
		m := &ms[n]
		prev := len(b)
		id := k.prev + 1
		if int(id) > len(k.keys) {
			id = 1
		}
		if int(id) > len(k.keys) || k.keys[id-1] != m.Key {
			id = k.ids[m.Key]
		}
		if id != 0 {
			b = binary.AppendUvarint(b, uint64(id))
			b = binary.BigEndian.AppendUint64(b, uint64(m.T.UnixNano()))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.V))
		} else if b, err = appendMeasurementBody(append(b, 0), *m); err != nil {
			k.forget(issued)
			return nil, nil, err
		}
		if len(b)-base-4 > maxFrame {
			if n == 0 {
				return nil, nil, fmt.Errorf("%w (single measurement)", ErrFrameTooLarge)
			}
			b = b[:prev]
			break
		}
		if id == 0 && len(k.keys) < maxKeyCacheEntries {
			k.keys = append(k.keys, m.Key)
			id = uint32(len(k.keys))
			k.ids[m.Key] = id
		}
		if id != 0 {
			k.prev = id
		}
	}
	binary.BigEndian.PutUint32(b[base:], uint32(len(b)-base-4))
	binary.BigEndian.PutUint16(b[base+5:], uint16(n))
	return b, ms[n:], nil
}

// forget takes back the ids issued after the first n.
func (k *keyIDs) forget(n int) {
	for _, key := range k.keys[n:] {
		delete(k.ids, key)
	}
	k.keys = k.keys[:n]
}

// Flush pushes buffered frames to the wire.
func (p *Publisher) Flush() error { return p.w.Flush() }

// Close flushes and disconnects.
func (p *Publisher) Close() error {
	flushErr := p.w.Flush()
	closeErr := p.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
