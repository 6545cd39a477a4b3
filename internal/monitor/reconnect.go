package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Backoff tunes reconnection pacing: exponential growth from Initial
// to Max with multiplicative jitter, giving up after MaxAttempts
// consecutive failures. The zero value takes the documented defaults.
type Backoff struct {
	// Initial is the first retry delay (default 100ms).
	Initial time.Duration
	// Max caps the delay growth (default 5s).
	Max time.Duration
	// Factor multiplies the delay after each failure (default 2).
	Factor float64
	// Jitter is the fraction of the delay randomized on each attempt
	// (default 0.2): the actual wait is delay × (1 ± Jitter), which
	// de-synchronizes a fleet of agents reconnecting after a shared
	// outage (the thundering-herd problem).
	Jitter float64
	// MaxAttempts bounds consecutive failed attempts before the
	// reconnector gives up and surfaces its error; 0 means unlimited.
	MaxAttempts int
	// Seed makes the jitter stream deterministic for tests; 0 derives
	// one from the clock.
	Seed int64
}

// withDefaults resolves the zero-value conventions.
func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		b.Jitter = 0.2
	}
	return b
}

// backoffState tracks one reconnector's position in the schedule.
type backoffState struct {
	cfg      Backoff
	delay    time.Duration
	attempts int
	rng      *rand.Rand
}

// newBackoffState starts a schedule at the initial delay.
func newBackoffState(cfg Backoff) *backoffState {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &backoffState{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// next returns the jittered delay before the upcoming attempt, or
// ok=false when the attempt budget is exhausted.
func (s *backoffState) next() (time.Duration, bool) {
	if s.cfg.MaxAttempts > 0 && s.attempts >= s.cfg.MaxAttempts {
		return 0, false
	}
	s.attempts++
	if s.delay == 0 {
		s.delay = s.cfg.Initial
	} else {
		s.delay = time.Duration(float64(s.delay) * s.cfg.Factor)
		if s.delay > s.cfg.Max {
			s.delay = s.cfg.Max
		}
	}
	d := s.delay
	if j := s.cfg.Jitter; j > 0 {
		// delay × (1 ± j)
		d = time.Duration(float64(d) * (1 - j + 2*j*s.rng.Float64()))
	}
	return d, true
}

// reset reverts to the initial delay after a successful connection.
func (s *backoffState) reset() {
	s.delay = 0
	s.attempts = 0
}

// PublisherConfig tunes a RobustPublisher.
type PublisherConfig struct {
	// Backoff paces reconnect attempts (zero value = defaults).
	Backoff Backoff
	// ReplayCapacity bounds the resend ring, in measurements (default
	// 8192). On every reconnect the publisher resends the whole ring;
	// the store's overwrite-by-(key, bin) semantics make the resend
	// idempotent, so a flap loses nothing as long as the ring covers
	// the outage. Overflow evicts the oldest entry; evicting one that no
	// successful Flush has pushed to the wire counts it in Dropped —
	// loss is observable, never silent.
	ReplayCapacity int
	// Obs counts reconnects on obs.CtrReconnects and registers
	// per-publisher dropped/reconnect gauges (retired on Close).
	Obs *obs.Collector
}

// DefaultBatchSize bounds a RobustPublisher's pending batch: once that
// many measurements (or the whole ring, if it is smaller) await the
// link, Publish writes them in packed batch frames without waiting for
// Flush.
const DefaultBatchSize = 64

// RobustPublisher is a reconnect-and-replay policy layered on
// Publisher, which carries every byte it writes: each published
// measurement enters a bounded replay ring, whose newest unwritten
// entries are the pending batch (written by Publisher.PublishBatch when
// it reaches DefaultBatchSize, and by Flush). A failed write or a peer
// close found by Flush marks the link down; later Publish/Flush calls
// redial on the backoff schedule and resend the whole ring. It is not
// safe for concurrent use — one publisher per agent goroutine, like
// Publisher.
type RobustPublisher struct {
	addr string
	cfg  PublisherConfig
	pub  *Publisher // the live link; nil while down

	// ring holds the newest measurements, oldest at start. Its newest
	// unsent entries have not been handed to pub yet; its newest
	// unflushed ones (unsent <= unflushed) have not been pushed out by a
	// successful Flush. While the link is down both span the ring.
	ring              []Measurement
	start, count      int
	unsent, unflushed int

	bo          *backoffState
	nextAttempt time.Time
	lastErr     error
	closed      bool

	// reconnects and dropped are atomic: the caller's publish goroutine
	// writes them while collector gauge funcs read them at scrape time.
	reconnects atomic.Int64
	dropped    atomic.Int64
	// gaugeNames are the registry entries to retire on Close.
	gaugeNames []string
}

// endpointID hands out unique ids for per-publisher and per-client
// gauge labels, so two links to the same address stay distinguishable.
var endpointID atomic.Int64

// DialRobustPublisher connects to an ingest endpoint with reconnect
// and replay enabled. The initial dial is synchronous so configuration
// errors (bad address, dead endpoint) surface immediately; failures
// after that are absorbed by the reconnect loop.
func DialRobustPublisher(addr string, cfg PublisherConfig) (*RobustPublisher, error) {
	if cfg.ReplayCapacity <= 0 {
		cfg.ReplayCapacity = 8192
	}
	p := &RobustPublisher{
		addr: addr,
		cfg:  cfg,
		ring: make([]Measurement, cfg.ReplayCapacity),
		bo:   newBackoffState(cfg.Backoff),
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.attach(conn)
	if cfg.Obs != nil {
		id := strconv.FormatInt(endpointID.Add(1), 10)
		dropName := obs.LabeledName("monitor.publisher_dropped", "addr", addr, "id", id)
		reconName := obs.LabeledName("monitor.publisher_reconnects", "addr", addr, "id", id)
		cfg.Obs.SetGaugeFunc(dropName, p.dropped.Load)
		cfg.Obs.SetGaugeFunc(reconName, p.reconnects.Load)
		p.gaugeNames = []string{dropName, reconName}
	}
	return p, nil
}

// attach installs a fresh connection. Its Publisher is new too, so the
// resent ring defines its keys again: ids do not outlive a connection.
func (p *RobustPublisher) attach(conn net.Conn) {
	p.pub = newPublisher(conn)
	p.bo.reset()
	p.lastErr = nil
}

// disconnect records a transport failure and schedules the next
// reconnect attempt.
func (p *RobustPublisher) disconnect(err error) {
	if p.pub != nil {
		p.pub.conn.Close()
		p.pub = nil
	}
	p.lastErr = err
	// What the dead link carried may be lost: the reconnect resends the
	// whole ring.
	p.unsent, p.unflushed = p.count, p.count
	delay, ok := p.bo.next()
	if !ok {
		// Budget exhausted: stay down until the caller closes; Err
		// reports why.
		p.nextAttempt = time.Time{}
		p.closed = true
		return
	}
	p.nextAttempt = time.Now().Add(delay)
}

// remember appends a measurement to the replay ring, evicting the
// oldest on overflow.
func (p *RobustPublisher) remember(m Measurement) {
	if p.count == len(p.ring) {
		if p.unflushed == p.count {
			p.dropped.Add(1) // the oldest never reached the wire
		}
		p.start = (p.start + 1) % len(p.ring)
		p.count--
	}
	p.ring[(p.start+p.count)%len(p.ring)] = m
	p.count++
	p.unsent = min(p.unsent+1, p.count)
	p.unflushed = min(p.unflushed+1, p.count)
}

// tryReconnect redials once the backoff window has elapsed and, on
// success, resends the whole replay ring. It reports whether the
// publisher is connected afterwards.
func (p *RobustPublisher) tryReconnect() bool {
	if p.pub != nil {
		return true
	}
	if p.closed || time.Now().Before(p.nextAttempt) {
		return false
	}
	conn, err := net.DialTimeout("tcp", p.addr, time.Second)
	if err != nil {
		p.disconnect(err)
		return false
	}
	p.attach(conn)
	p.reconnects.Add(1)
	p.cfg.Obs.Add(obs.CtrReconnects, 1)
	// Resend everything we still hold: the ingest store overwrites by
	// (key, bin), so replaying measurements the server already has is
	// harmless, and replaying ones it lost closes the gap.
	return p.flush()
}

// writeUnsent hands the pending batch — the ring's unsent suffix — to
// the link as at most two contiguous PublishBatch calls (the suffix
// wraps the ring at most once). On failure it marks the link down and
// reports false.
func (p *RobustPublisher) writeUnsent() bool {
	i := (p.start + p.count - p.unsent) % len(p.ring)
	head := p.ring[i:min(i+p.unsent, len(p.ring))]
	err := p.pub.PublishBatch(head)
	if err == nil {
		err = p.pub.PublishBatch(p.ring[:p.unsent-len(head)])
	}
	if err != nil {
		p.disconnect(err)
		return false
	}
	p.unsent = 0
	return true
}

// flush writes the pending batch and pushes the link's buffer to the
// wire, reporting whether the link is still up.
func (p *RobustPublisher) flush() bool {
	if !p.writeUnsent() {
		return false
	}
	if err := p.pub.Flush(); err != nil {
		p.disconnect(err)
		return false
	}
	p.unflushed = 0
	return true
}

// validateKey pre-checks the only property that can make a measurement
// unencodable, so Publish can reject it without allocating a frame.
func validateKey(m Measurement) error {
	if len(m.Key.Entity) > math.MaxUint16 || len(m.Key.Metric) > math.MaxUint16 {
		return fmt.Errorf("monitor: string too long (%d bytes)", max(len(m.Key.Entity), len(m.Key.Metric)))
	}
	return nil
}

// Publish queues one measurement in the ring and, once the pending
// batch is full, writes it (reconnecting first if the link is down). A
// transport failure is absorbed: the measurement stays in the replay
// ring and a later Publish/Flush redials per the backoff schedule.
// Only encoding errors (malformed keys) are returned.
func (p *RobustPublisher) Publish(m Measurement) error {
	if err := validateKey(m); err != nil {
		return err
	}
	p.remember(m)
	if p.unsent >= min(DefaultBatchSize, len(p.ring)) && p.tryReconnect() {
		p.writeUnsent()
	}
	return nil
}

// Flush writes the pending batch and pushes buffered frames to the
// wire, reconnecting first if the connection is down. It also probes
// the connection for a peer close, so a publisher with nothing left to
// send still notices a dead link and replays on the next call — a
// quiet agent must not sit on a severed connection forever.
func (p *RobustPublisher) Flush() error {
	if p.tryReconnect() && p.flush() {
		p.probe()
	}
	return nil
}

// probe detects a peer-closed connection without writing or blocking:
// the ingest protocol is strictly client→server, so the receive queue
// can only ever hold "nothing yet" (link healthy) or a FIN/reset (the
// peer is gone). An empty bufio flush makes no syscall, so without
// this a torn link whose publisher has nothing more to say would never
// surface — it would keep believing in a connection the far end
// already closed. A deadline-read cannot do this job: an
// already-expired read deadline fails the read before the poller ever
// looks at the socket, so the queued FIN stays invisible; peekClosed
// peeks the socket directly instead.
func (p *RobustPublisher) probe() {
	if err := peekClosed(p.pub.conn); err != nil {
		p.disconnect(err)
	}
}

// Connected reports whether the publisher currently holds a live
// connection.
func (p *RobustPublisher) Connected() bool { return p.pub != nil }

// Reconnects returns how many times the publisher redialed
// successfully.
func (p *RobustPublisher) Reconnects() int64 { return p.reconnects.Load() }

// Dropped returns how many measurements were evicted from the replay
// ring before a successful Flush pushed them to the wire or a
// reconnect could resend them — the only way this publisher loses data
// it can know about.
func (p *RobustPublisher) Dropped() int64 { return p.dropped.Load() }

// Err returns the most recent transport error (nil while healthy). A
// publisher whose backoff budget is exhausted stays down with this
// error set.
func (p *RobustPublisher) Err() error { return p.lastErr }

// Close flushes best-effort (including the pending batch) and
// disconnects.
func (p *RobustPublisher) Close() error {
	p.closed = true
	for _, name := range p.gaugeNames {
		p.cfg.Obs.DeleteVar(name)
	}
	p.gaugeNames = nil
	if p.pub == nil || !p.writeUnsent() {
		return p.lastErr
	}
	err := p.pub.Close()
	p.pub = nil
	return err
}
