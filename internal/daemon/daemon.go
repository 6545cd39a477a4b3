// Package daemon assembles the deployed FUNNEL process (§5): a network
// ingest endpoint agents publish KPI measurements to, a subscription
// endpoint downstream consumers can tap, an admin endpoint the
// operations team registers software changes on, and the streaming
// assessor (funnel.Streamer) that advances each registered change's
// scores off the store's bin feed and emits its report once the
// observation window completes.
//
// Topology updates and change registrations serialize through one
// event loop; measurements go straight into the store, whose bin feed
// drives the assessor.
package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/changelog"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Config wires a Daemon. The streaming assessor scores on one
// background goroutine and takes the funnel.StreamConfig defaults.
type Config struct {
	// Store is the central KPI store (its epoch bounds the history).
	Store *monitor.Store
	// Pipeline configures the assessor; ServerMetrics/InstanceMetrics
	// select what the impact sets cover.
	Pipeline funnel.Config
	// IngestAddr, SubscribeAddr and AdminAddr are the listen addresses
	// (use "127.0.0.1:0" to pick free ports). Empty disables that
	// endpoint (ingest may be disabled when measurements are fed
	// programmatically).
	IngestAddr, SubscribeAddr, AdminAddr string
	// DebugAddr, when set, serves the telemetry HTTP surface —
	// /metrics (expvar JSON), /debug/pprof/* and /traces/<change-id> —
	// on that address. If Obs is nil a collector is created.
	DebugAddr string
	// Obs is the telemetry collector threaded through the store and
	// the pipeline. Nil (with DebugAddr empty) disables telemetry; the
	// hot path then pays only nil checks.
	Obs *obs.Collector
	// Logger receives lifecycle events (endpoints bound, changes
	// registered, reports emitted). It is also installed as the
	// collector's base logger, so component loggers derive from it. Nil
	// disables logging.
	Logger *slog.Logger
	// HistoryStep and HistoryRetention tune the collector's self-scrape
	// metrics ring (the /metrics/history document). Zero takes
	// obs.DefaultHistoryStep / obs.DefaultHistoryRetention; the ring
	// only runs when the daemon has a collector.
	HistoryStep, HistoryRetention time.Duration
	// Stream is ignored.
	//
	// Deprecated: assessment always streams; removed with its last
	// setter in the [benchmark] PR.
	Stream bool
}

// Daemon is a running FUNNEL service.
type Daemon struct {
	store  *monitor.Store
	topo   *topo.Topology
	engine *funnel.Streamer
	obs    *obs.Collector
	log    *slog.Logger

	// endpoints are the bound ingest, subscribe and admin listeners,
	// closed and joined by Close.
	endpoints []*monitor.Endpoint
	debugSrv  *http.Server

	events chan func()
	quit   chan struct{}
	done   chan struct{}

	mu     sync.Mutex
	closed bool

	// addresses as bound.
	ingestAddr, subscribeAddr, adminAddr, debugAddr net.Addr
}

// RegisterRequest is the admin wire form of a change registration, one
// JSON object per line:
//
//	{"id":"chg-1","type":"upgrade","service":"kv.cache",
//	 "servers":["srv-1"],"at":"2015-12-03T12:00:00Z"}
//
// Servers are deployed into the topology as a side effect, so agents
// can start publishing before or after registration.
type RegisterRequest struct {
	ID      string    `json:"id"`
	Type    string    `json:"type"`
	Service string    `json:"service"`
	Servers []string  `json:"servers"`
	At      time.Time `json:"at"`
}

// Start builds and launches a daemon.
func Start(cfg Config) (*Daemon, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("daemon: nil store")
	}
	col := cfg.Obs
	if col == nil && cfg.DebugAddr != "" {
		col = obs.NewCollector()
	}
	if col != nil {
		cfg.Store.SetCollector(col)
		cfg.Pipeline.Obs = col
		// Surface crash-recovery work done before the collector was
		// attached, so /debug/vars reflects what OpenPersistent replayed.
		rec := cfg.Store.Recovered()
		if rec.WALRecords > 0 {
			col.Add(obs.CtrWALReplayed, int64(rec.WALRecords))
		}
		if ms := rec.Total().Milliseconds(); ms > 0 {
			col.Add(obs.CtrRecoveryMillis, ms)
		}
		if rec.Generations > 0 {
			col.Add(obs.CtrRecoveryGenerations, int64(rec.Generations))
			col.Add(obs.CtrRecoveryLogBytes, rec.LogBytes)
		}
		col.SetLogger(cfg.Logger)
		col.StartHistory(cfg.HistoryStep, cfg.HistoryRetention)
	}
	logger := cfg.Logger
	if logger != nil {
		logger = logger.With("component", "daemon")
	}
	tp := topo.NewTopology()
	d := &Daemon{
		store:  cfg.Store,
		topo:   tp,
		obs:    col,
		log:    logger,
		events: make(chan func(), 256),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	var err error
	d.engine, err = funnel.NewStreamer(cfg.Store, tp, cfg.Pipeline, funnel.StreamConfig{})
	if err != nil {
		return nil, err
	}

	// Event loop: admin commands serialize here. Measurements never pass
	// through it; the store's bin feed drives the engine.
	go func() {
		defer close(d.done)
		for {
			select {
			case <-d.quit:
				return
			case fn := <-d.events:
				fn()
			}
		}
	}()

	if cfg.IngestAddr != "" {
		if d.ingestAddr, err = d.listen(monitor.NewIngestServer(cfg.Store).Endpoint, cfg.IngestAddr); err != nil {
			d.Close()
			return nil, err
		}
	}
	if cfg.SubscribeAddr != "" {
		if d.subscribeAddr, err = d.listen(monitor.NewServer(cfg.Store).Endpoint, cfg.SubscribeAddr); err != nil {
			d.Close()
			return nil, err
		}
	}
	if cfg.AdminAddr != "" {
		if d.adminAddr, err = d.listen(monitor.NewEndpoint("admin", d.Collector, d.serveAdmin), cfg.AdminAddr); err != nil {
			d.Close()
			return nil, err
		}
	}
	if cfg.DebugAddr != "" {
		ln, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.debugAddr = ln.Addr()
		d.debugSrv = &http.Server{Handler: col.Handler()}
		go d.debugSrv.Serve(ln)
	}
	if d.log != nil {
		d.log.Info("daemon started",
			"ingest", addrString(d.ingestAddr),
			"subscribe", addrString(d.subscribeAddr),
			"admin", addrString(d.adminAddr),
			"debug", addrString(d.debugAddr))
	}
	return d, nil
}

// listen binds ep to addr and hands it to Close.
func (d *Daemon) listen(ep *monitor.Endpoint, addr string) (net.Addr, error) {
	d.endpoints = append(d.endpoints, ep)
	return ep.Listen(addr)
}

// addrString renders a possibly-nil bound address for logging.
func addrString(a net.Addr) string {
	if a == nil {
		return ""
	}
	return a.String()
}

// IngestAddr returns the bound ingest address (nil if disabled).
func (d *Daemon) IngestAddr() net.Addr { return d.ingestAddr }

// SubscribeAddr returns the bound subscription address (nil if
// disabled).
func (d *Daemon) SubscribeAddr() net.Addr { return d.subscribeAddr }

// AdminAddr returns the bound admin address (nil if disabled).
func (d *Daemon) AdminAddr() net.Addr { return d.adminAddr }

// DebugAddr returns the bound telemetry HTTP address (nil if disabled).
func (d *Daemon) DebugAddr() net.Addr { return d.debugAddr }

// Collector returns the daemon's telemetry collector (nil when neither
// Config.Obs nor Config.DebugAddr was set).
func (d *Daemon) Collector() *obs.Collector { return d.obs }

// Reports delivers finished assessments.
func (d *Daemon) Reports() <-chan *funnel.Report { return d.engine.Reports() }

// Register registers a change programmatically (the admin endpoint
// calls the same path). Unknown servers are deployed into the topology
// first.
func (d *Daemon) Register(req RegisterRequest) error {
	if req.ID == "" || req.Service == "" || len(req.Servers) == 0 {
		return fmt.Errorf("daemon: registration needs id, service and servers")
	}
	if req.At.IsZero() {
		return fmt.Errorf("daemon: registration needs a change time (at)")
	}
	var typ changelog.Type
	switch req.Type {
	case "", "upgrade":
		typ = changelog.Upgrade
	case "config":
		typ = changelog.Config
	default:
		return fmt.Errorf("daemon: unknown change type %q (want upgrade or config)", req.Type)
	}
	errc := make(chan error, 1)
	fn := func() {
		for _, srv := range req.Servers {
			d.topo.Deploy(req.Service, srv)
		}
		errc <- d.engine.RegisterChange(changelog.Change{
			ID: req.ID, Type: typ, Service: req.Service,
			Servers: req.Servers, At: req.At,
		})
	}
	select {
	case d.events <- fn:
		select {
		case err := <-errc:
			if err == nil {
				d.obs.Add(obs.CtrRegistrations, 1)
				if d.log != nil {
					d.log.Info("change registered",
						"id", req.ID, "type", typ.String(),
						"service", req.Service, "servers", len(req.Servers),
						"at", req.At)
				}
			}
			return err
		case <-d.done:
			return fmt.Errorf("daemon: closed")
		}
	case <-d.done:
		return fmt.Errorf("daemon: closed")
	}
}

// DeployService records extra service→server placements (e.g. the
// control-group servers agents publish for), so impact sets see them.
func (d *Daemon) DeployService(service string, servers ...string) error {
	done := make(chan struct{})
	fn := func() {
		for _, srv := range servers {
			d.topo.Deploy(service, srv)
		}
		close(done)
	}
	select {
	case d.events <- fn:
		select {
		case <-done:
			return nil
		case <-d.done:
			return fmt.Errorf("daemon: closed")
		}
	case <-d.done:
		return fmt.Errorf("daemon: closed")
	}
}

// adminIdleTimeout bounds the silence between admin commands; an
// operator session left open forever must not pin a connection slot.
const adminIdleTimeout = 5 * time.Minute

// serveAdmin serves line-delimited JSON registrations on one admin
// connection.
func (d *Daemon) serveAdmin(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	// Bound per-line allocation: registrations are small; a peer that
	// streams an unbounded line is dropped, not buffered.
	sc.Buffer(make([]byte, 0, 4096), 1<<16)
	for {
		conn.SetReadDeadline(time.Now().Add(adminIdleTimeout))
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					d.obs.Add(obs.CtrDeadlineKicks, 1)
				} else {
					d.obs.Add(obs.CtrConnDrops, 1)
				}
			}
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req RegisterRequest
		if err := json.Unmarshal(line, &req); err != nil {
			d.adminError(conn, err)
			continue
		}
		if err := d.Register(req); err != nil {
			d.adminError(conn, err)
			continue
		}
		if _, err := io.WriteString(conn, "ok\n"); err != nil {
			return
		}
	}
}

// adminError reports a rejected admin command on the wire, in the
// telemetry counters, and in the log.
func (d *Daemon) adminError(conn net.Conn, err error) {
	d.obs.Add(obs.CtrAdminErrors, 1)
	if d.log != nil {
		d.log.Warn("admin command rejected", "err", err)
	}
	fmt.Fprintf(conn, "error: %v\n", err)
}

// Close shuts down the endpoints — listeners and live connections —
// and joins their handlers, so no ingest, subscribe or admin handler
// touches the store, the feed or the event loop after it returns; then
// it stops the event loop and closes the report stream.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()

	if d.debugSrv != nil {
		d.debugSrv.Close()
	}
	for _, ep := range d.endpoints {
		ep.Close()
	}
	for _, ep := range d.endpoints {
		ep.Wait()
	}
	close(d.quit)
	<-d.done
	d.engine.Close()
	d.obs.StopHistory()
	if d.log != nil {
		d.log.Info("daemon stopped")
	}
}
