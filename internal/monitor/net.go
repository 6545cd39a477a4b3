package monitor

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
)

// Default hardening parameters. They bound how long a misbehaving or
// dead peer can pin server resources; the healthy cadence (one
// measurement per KPI per 1-minute bin, subscribe frame sent
// immediately after dial) sits far inside them.
const (
	// DefaultHandshakeTimeout bounds the wait for a client's subscribe
	// frame.
	DefaultHandshakeTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds each frame write to a subscriber.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultIngestReadTimeout bounds the silence between publisher
	// frames (agents flush at least once per bin).
	DefaultIngestReadTimeout = 5 * time.Minute
)

// Server pushes a Store's measurement stream to TCP subscribers. Each
// client sends one subscribe frame naming key prefixes; the server then
// streams every matching measurement as it is appended to the store. A
// resuming client (subscribe-since frame) first receives a replay of
// the stored measurements from its low-water mark.
//
// Connections are hardened: the subscribe frame must arrive within
// HandshakeTimeout, each write must complete within WriteTimeout,
// oversized frames are rejected, and the Endpoint core recovers a panic
// in one handler by dropping that connection. Deadline kicks, drops,
// rejects and recovered panics are counted on the store's collector.
// Close disconnects every live subscriber; their per-connection
// subscriptions unwind with the handlers.
type Server struct {
	*Endpoint
	store *Store

	// HandshakeTimeout bounds the wait for the subscribe frame; 0
	// means DefaultHandshakeTimeout, negative disables.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each frame write/flush to a subscriber; 0
	// means DefaultWriteTimeout, negative disables.
	WriteTimeout time.Duration
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	s := &Server{store: store}
	s.Endpoint = NewEndpoint("subscribe", store.Collector, s.handle)
	return s
}

// timeout resolves a hardening field: 0 → def, negative → disabled.
func timeout(configured, def time.Duration) time.Duration {
	if configured == 0 {
		return def
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// countReadErr classifies a read failure on the collector: deadline
// expiries and oversized frames get their own counters, everything
// else is a generic connection drop. Clean EOFs are not counted.
func countReadErr(col *obs.Collector, err error) {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		col.Add(obs.CtrDeadlineKicks, 1)
	case errors.Is(err, ErrFrameTooLarge):
		col.Add(obs.CtrFrameRejects, 1)
		col.Add(obs.CtrConnDrops, 1)
	}
}

// handle serves one subscriber connection.
func (s *Server) handle(conn net.Conn) {
	col := s.store.Collector()
	r := bufio.NewReader(conn)
	if hs := timeout(s.HandshakeTimeout, DefaultHandshakeTimeout); hs > 0 {
		conn.SetReadDeadline(time.Now().Add(hs))
	}
	payload, err := ReadFrame(r)
	if err != nil {
		countReadErr(col, err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	var since time.Time
	var prefixes []string
	switch {
	case len(payload) > 0 && payload[0] == frameSubscribe:
		prefixes, err = DecodeSubscribe(payload)
	case len(payload) > 0 && payload[0] == frameSubscribeSince:
		since, prefixes, err = DecodeSubscribeSince(payload)
	default:
		err = fmt.Errorf("monitor: first frame is not a subscribe")
	}
	if err != nil {
		col.Add(obs.CtrConnDrops, 1)
		return
	}
	filter := prefixFilter(prefixes)
	// A deep buffer lets bursty producers (simulations replaying days
	// of data on a virtual clock) run far ahead of the TCP writer
	// without drop-oldest losses.
	ch, cancel := s.store.Subscribe(filter, 1<<16)
	defer cancel()

	// Detect client disconnect: a subscriber never sends again, so any
	// read completing (EOF or data) ends the session.
	done := make(chan struct{})
	go func() {
		_, _ = r.ReadByte()
		close(done)
	}()

	wt := timeout(s.WriteTimeout, DefaultWriteTimeout)
	w := bufio.NewWriter(conn)
	write := func(frame []byte) bool {
		if wt > 0 {
			conn.SetWriteDeadline(time.Now().Add(wt))
		}
		if err := WriteFrame(w, frame); err != nil {
			countReadErr(col, err)
			return false
		}
		return true
	}
	flush := func() bool {
		if wt > 0 {
			conn.SetWriteDeadline(time.Now().Add(wt))
		}
		if err := w.Flush(); err != nil {
			countReadErr(col, err)
			return false
		}
		return true
	}

	// Resume replay: the subscription above is already live, so every
	// measurement appended from here on is either in the replay
	// snapshot or on the channel (or both — the client dedups the
	// overlap by (key, bin)). Nothing falls in the crack.
	if !since.IsZero() {
		replay := s.store.ReplaySince(filter, since)
		for _, m := range replay {
			frame, err := EncodeMeasurement(m)
			if err != nil {
				continue
			}
			if !write(frame) {
				return
			}
		}
		if !flush() {
			return
		}
		col.Add(obs.CtrReplayed, int64(len(replay)))
	}

	for {
		select {
		case <-done:
			return
		case m, ok := <-ch:
			if !ok {
				return
			}
			frame, err := EncodeMeasurement(m)
			if err != nil {
				continue
			}
			if !write(frame) {
				return
			}
			// Flush eagerly when the channel has drained so
			// subscribers see measurements promptly.
			if len(ch) == 0 && !flush() {
				return
			}
		}
	}
}

// prefixFilter builds a key filter from string prefixes; no prefixes
// means match-all.
func prefixFilter(prefixes []string) func(topo.KPIKey) bool {
	if len(prefixes) == 0 {
		return nil
	}
	return func(k topo.KPIKey) bool {
		ks := k.String()
		for _, p := range prefixes {
			if strings.HasPrefix(ks, p) {
				return true
			}
		}
		return false
	}
}

// ClientConfig tunes a subscription client.
type ClientConfig struct {
	// Reconnect enables automatic redial with backoff + jitter,
	// resubscribe-on-reconnect, and resume-from-last-seen-bin: on each
	// redial the client asks the server to replay from the earliest
	// per-key watermark it holds, and drops redelivered (key, bin)
	// pairs, so a connection flap loses and duplicates nothing that
	// the server still stores. After a resume, a measurement at or
	// before its key's last delivered bin (a late write, an overwrite)
	// is dropped too: the protocol does not mark where a replay ends.
	Reconnect bool
	// Backoff paces reconnect attempts (zero value = defaults).
	Backoff Backoff
	// Obs counts successful reconnects on obs.CtrReconnects and
	// registers per-client reconnect and replay-lag gauges (retired on
	// Close).
	Obs *obs.Collector
}

// Client receives pushed measurements from a Server.
type Client struct {
	addr     string
	cfg      ClientConfig
	prefixes []string
	ch       chan Measurement
	quit     chan struct{}

	mu         sync.Mutex
	conn       net.Conn
	closed     bool
	err        error
	reconnects int64
	lastSeen   map[topo.KPIKey]time.Time

	// gaugeNames are the registry entries to retire on Close.
	gaugeNames []string
}

// Dial connects to a monitor server and subscribes to the given key
// prefixes (none = everything). Measurements arrive on C until the
// connection drops or Close is called. The connection is not
// reconnecting; see DialConfig.
func Dial(addr string, prefixes ...string) (*Client, error) {
	return DialConfig(addr, ClientConfig{}, prefixes...)
}

// DialConfig connects with explicit client behavior. The initial dial
// and subscribe are synchronous so configuration errors surface
// immediately; with cfg.Reconnect, later connection failures redial on
// the backoff schedule until Close is called or the attempt budget is
// exhausted (then C closes and Err reports why).
func DialConfig(addr string, cfg ClientConfig, prefixes ...string) (*Client, error) {
	c := &Client{
		addr:     addr,
		cfg:      cfg,
		prefixes: prefixes,
		ch:       make(chan Measurement, 1<<16),
		quit:     make(chan struct{}),
		lastSeen: make(map[topo.KPIKey]time.Time),
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := c.subscribe(conn); err != nil {
		conn.Close()
		return nil, err
	}
	c.conn = conn
	if cfg.Obs != nil {
		id := strconv.FormatInt(endpointID.Add(1), 10)
		reconName := obs.LabeledName("monitor.client_reconnects", "addr", addr, "id", id)
		lagName := obs.LabeledName("monitor.client_replay_lag_seconds", "addr", addr, "id", id)
		cfg.Obs.SetGaugeFunc(reconName, c.Reconnects)
		cfg.Obs.SetGaugeFunc(lagName, func() int64 {
			// How far behind a resume replay would have to reach: seconds
			// since the earliest per-key watermark (0 before any data).
			wm := c.watermark()
			if wm.IsZero() {
				return 0
			}
			return int64(time.Since(wm).Seconds())
		})
		c.gaugeNames = []string{reconName, lagName}
	}
	go c.run(conn)
	return c, nil
}

// subscribe sends the subscription handshake on a fresh connection: a
// plain subscribe for one-shot clients, a subscribe-since carrying the
// resume watermark for reconnecting ones.
func (c *Client) subscribe(conn net.Conn) error {
	var sub []byte
	var err error
	if c.cfg.Reconnect {
		sub, err = EncodeSubscribeSince(c.watermark(), c.prefixes)
	} else {
		sub, err = EncodeSubscribe(c.prefixes)
	}
	if err != nil {
		return err
	}
	return WriteFrame(conn, sub)
}

// watermark returns the resume point: the earliest last-seen bin time
// across keys, so no key misses a bin (redelivered bins of
// further-along keys are dropped by the per-key dedup). Zero when
// nothing was seen yet — the server then skips replay.
func (c *Client) watermark() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	var min time.Time
	for _, t := range c.lastSeen {
		if min.IsZero() || t.Before(min) {
			min = t
		}
	}
	return min
}

// C is the stream of received measurements; it closes when the
// connection ends for good (Close, a non-reconnecting drop, or an
// exhausted reconnect budget — Err tells which).
func (c *Client) C() <-chan Measurement { return c.ch }

// Close disconnects the client. Err stays nil: a Close-initiated
// shutdown is clean.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	gauges := c.gaugeNames
	c.gaugeNames = nil
	c.mu.Unlock()
	for _, name := range gauges {
		c.cfg.Obs.DeleteVar(name)
	}
	close(c.quit)
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Err reports why the stream ended: nil while healthy or after a clean
// Close, the terminal dial/read error otherwise. Callers that need to
// distinguish a broken connection from a deliberate shutdown check it
// after C closes.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	return c.err
}

// Reconnects returns how many times the client redialed successfully.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// setErr records the terminal error.
func (c *Client) setErr(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// isClosed reports whether Close was called.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// run owns the connection lifecycle: consume until the conn breaks,
// then (in reconnect mode) redial-resubscribe-resume until Close or
// budget exhaustion.
func (c *Client) run(conn net.Conn) {
	defer close(c.ch)
	for {
		err := c.consume(conn)
		if c.isClosed() {
			return
		}
		c.setErr(err)
		if !c.cfg.Reconnect {
			return
		}
		conn = c.redial()
		if conn == nil {
			return
		}
	}
}

// consume decodes measurement frames from one connection until it
// drops, deduplicating by (key, bin) in reconnect mode.
func (c *Client) consume(conn net.Conn) error {
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		payload, err := ReadFrame(r)
		if err != nil {
			return err
		}
		m, err := DecodeMeasurement(payload)
		if err != nil {
			return err
		}
		if c.cfg.Reconnect {
			// Only a resumed connection replays duplicates; lastSeen keeps each key's newest bin.
			c.mu.Lock()
			last, seen := c.lastSeen[m.Key]
			if !seen || m.T.After(last) {
				c.lastSeen[m.Key] = m.T
			} else if c.reconnects > 0 {
				c.mu.Unlock()
				continue // replayed or overlapping delivery: already seen
			}
			c.mu.Unlock()
		}
		select {
		case c.ch <- m:
		case <-c.quit:
			return nil
		}
	}
}

// redial reconnects on the backoff schedule, resubscribing with the
// resume watermark. It returns nil when Close intervened or the
// attempt budget ran out (the terminal error is already recorded).
func (c *Client) redial() net.Conn {
	bo := newBackoffState(c.cfg.Backoff)
	for {
		delay, ok := bo.next()
		if !ok {
			return nil // budget exhausted; c.err holds the last failure
		}
		select {
		case <-time.After(delay):
		case <-c.quit:
			return nil
		}
		conn, err := net.DialTimeout("tcp", c.addr, time.Second)
		if err != nil {
			c.setErr(err)
			continue
		}
		if err := c.subscribe(conn); err != nil {
			conn.Close()
			c.setErr(err)
			continue
		}
		c.mu.Lock()
		c.reconnects++
		closed := c.closed
		if !closed {
			c.conn = conn
			c.err = nil // healthy again: the transient failure is history
		}
		c.mu.Unlock()
		if closed {
			conn.Close()
			return nil
		}
		c.cfg.Obs.Add(obs.CtrReconnects, 1)
		return conn
	}
}
