package monitor

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Endpoint is the connection core every TCP server in the process runs
// on — the subscribe Server, the IngestServer and the daemon's admin
// listener. It owns a connection's whole lifecycle around the protocol
// handler: accept (riding out transient failures), tracking on the
// obs.CtrConnsActive gauge, panic recovery (counted on
// obs.CtrConnPanics and logged), and shutdown. Close ends the listener
// and every live connection; Wait then joins every handler, so nothing
// a handler does outlives the pair.
type Endpoint struct {
	component string
	col       func() *obs.Collector
	handle    func(net.Conn)

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup
}

// NewEndpoint builds an endpoint that runs handle on each accepted
// connection in its own goroutine and closes the connection when handle
// returns. col resolves the collector per connection (nil collectors
// are fine); component labels the panic log line.
func NewEndpoint(component string, col func() *obs.Collector, handle func(net.Conn)) *Endpoint {
	return &Endpoint{component: component, col: col, handle: handle, conns: make(map[net.Conn]struct{})}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine. It returns the bound address.
func (e *Endpoint) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e.Serve(ln)
	return ln.Addr(), nil
}

// Serve starts accepting on an existing listener (tests inject
// fault-wrapped listeners here) in a background goroutine. A listener
// handed to a closed endpoint is closed at once.
func (e *Endpoint) Serve(ln net.Listener) {
	e.mu.Lock()
	closed := e.closed
	if !closed {
		e.ln = ln
		e.handlers.Add(1)
	}
	e.mu.Unlock()
	if closed {
		ln.Close()
		return
	}
	go e.acceptLoop(ln)
}

// acceptLoop accepts until the listener closes for good, riding out
// transient failures (timeouts, EMFILE-style temporary errors) instead
// of abandoning the loop on the first hiccup.
func (e *Endpoint) acceptLoop(ln net.Listener) {
	defer e.handlers.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if isTransient(err) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return // listener closed
		}
		if !e.track(conn) {
			conn.Close()
			continue
		}
		go e.serve(conn)
	}
}

// isTransient reports whether a network error is worth retrying.
func isTransient(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// track registers a live connection and reserves its handler in the
// wait group; it reports false once the endpoint is shut down.
func (e *Endpoint) track(conn net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.conns[conn] = struct{}{}
	e.handlers.Add(1)
	return true
}

// serve runs the handler on one tracked connection and tears it down.
func (e *Endpoint) serve(conn net.Conn) {
	col := e.col()
	col.Add(obs.CtrConnsActive, 1)
	defer func() {
		if r := recover(); r != nil {
			col.Add(obs.CtrConnPanics, 1)
			col.Logger(e.component).Error("connection handler panic", "panic", r)
		}
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
		col.Add(obs.CtrConnsActive, -1)
		e.handlers.Done()
	}()
	e.handle(conn)
}

// Close stops accepting and closes every live connection; their
// handlers unwind as the closed conns error out (Wait joins them). It
// is idempotent.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	ln, conns, already := e.ln, e.conns, e.closed
	// A closed endpoint tracks nothing more: handlers that exit from here
	// on delete from the nil map, and conns is Close's alone.
	e.closed, e.conns = true, nil
	e.mu.Unlock()
	if already {
		return nil
	}
	for c := range conns {
		c.Close()
	}
	if ln == nil {
		return nil
	}
	return ln.Close()
}

// Wait blocks until the accept loop and every connection handler have
// exited (after Close, or once the listener fails and every peer has
// hung up).
func (e *Endpoint) Wait() { e.handlers.Wait() }
