package monitor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
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
	// one lookup on its key bytes and no allocation.
	keys := newKeyTable(s.store)
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
		if payload[0] == frameBatch {
			col.Add(obs.CtrBatchFrames, 1)
		}
	}
}

// ingestFrame applies one publisher frame — a batch (0x04) or a single
// measurement (0x01) — to the table's store. The frame is validated
// whole first: a bad scope byte, string length or tail, a count that
// disagrees with the bodies, or trailing bytes reject it with the store
// and its logs untouched.
func (t *keyTable) ingestFrame(payload []byte) error {
	var bodies []byte
	var want int
	switch {
	case len(payload) >= 3 && payload[0] == frameBatch:
		if want = int(binary.BigEndian.Uint16(payload[1:3])); want == 0 {
			return fmt.Errorf("monitor: empty batch frame")
		}
		bodies = payload[3:]
	case len(payload) >= 2 && payload[0] == frameMeasurement:
		want, bodies = 1, payload[1:]
	default:
		return fmt.Errorf("monitor: not a measurement or batch frame")
	}
	n, used, err := t.scan(bodies, want)
	switch {
	case err != nil:
		return err
	case n < want:
		return fmt.Errorf("monitor: frame holds %d of %d measurements", n, want)
	case used < len(bodies):
		return fmt.Errorf("monitor: %d trailing bytes in frame", len(bodies)-used)
	}
	t.apply(bodies)
	return nil
}

// Publisher is the agent-side connection to an IngestServer. It is not
// safe for concurrent use; one publisher per agent goroutine.
type Publisher struct {
	conn     net.Conn
	w        *bufio.Writer
	batchBuf []byte
}

// DialPublisher connects an agent to the ingest endpoint.
func DialPublisher(addr string) (*Publisher, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Publisher{conn: conn, w: bufio.NewWriter(conn)}, nil
}

// Publish sends one measurement. Frames are buffered; call Flush at
// bin boundaries (the agent cadence) to bound latency.
func (p *Publisher) Publish(m Measurement) error {
	frame, err := EncodeMeasurement(m)
	if err != nil {
		return err
	}
	return WriteFrame(p.w, frame)
}

// PublishBatch sends many measurements in batch frames (0x04),
// amortizing framing and syscall overhead; the fleet load path uses
// it. Each frame is packed to the frame size bound, so the split count
// adapts to the actual key sizes.
func (p *Publisher) PublishBatch(ms []Measurement) error {
	for len(ms) > 0 {
		frame, rest, err := appendBatchFill(p.batchBuf[:0], ms)
		if err != nil {
			return err
		}
		p.batchBuf = frame[:0]
		if err := WriteFrame(p.w, frame); err != nil {
			return err
		}
		ms = rest
	}
	return nil
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
