package faultnet

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Proxy is a fault-injecting TCP relay: it accepts connections on its
// own address, dials the backend for each, and copies bytes both ways
// through the injector's faulty conns. Clients dial the proxy instead
// of the backend, so reconnect logic is exercised against realistic
// mid-stream failures without touching either endpoint.
type Proxy struct {
	in      *Injector
	backend string
	ln      net.Listener

	mu     sync.Mutex
	conns  map[*proxyLink]struct{}
	closed bool
	refuse bool
	wg     sync.WaitGroup
}

// proxyLink is one proxied client↔backend pair.
type proxyLink struct {
	client, backend net.Conn
	// left, once SeverAfter arms it, is how many more bytes the link
	// relays upstream before it is severed; negative while unarmed.
	left atomic.Int64
}

// cutWriter is a link's upstream end: it relays to w until the budget
// SeverAfter armed runs out, then severs the link.
type cutWriter struct {
	p    *Proxy
	link *proxyLink
	w    io.Writer
}

func (c cutWriter) Write(b []byte) (int, error) {
	for {
		left := c.link.left.Load()
		if left < 0 {
			return c.w.Write(b)
		}
		if int64(len(b)) < left {
			if c.link.left.CompareAndSwap(left, left-int64(len(b))) {
				return c.w.Write(b)
			}
			continue
		}
		n, _ := c.w.Write(b[:left])
		c.p.drop(c.link)
		c.p.in.resets.Add(1)
		return n, errInjected{"cut"}
	}
}

// NewProxy starts a proxy on addr (e.g. "127.0.0.1:0") relaying to
// backend, injecting the plan's faults on the client→backend
// direction (the publisher path). It returns the proxy's listen
// address via Addr.
func NewProxy(addr, backend string, plan Plan) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		in:      NewInjector(plan),
		backend: backend,
		ln:      ln,
		conns:   make(map[*proxyLink]struct{}),
	}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// Stats snapshots the injected-fault counters.
func (p *Proxy) Stats() Stats { return p.in.Stats() }

// accept relays connections until the listener closes.
func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		refuse := p.refuse || p.closed
		p.mu.Unlock()
		if refuse {
			client.Close()
			continue
		}
		backend, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		link := &proxyLink{client: client, backend: backend}
		link.left.Store(-1)
		p.mu.Lock()
		if p.closed {
			// Close ran since the check above, and its Sever would miss
			// this link: its pipes would block Close forever.
			p.mu.Unlock()
			client.Close()
			backend.Close()
			continue
		}
		p.conns[link] = struct{}{}
		p.wg.Add(2)
		p.mu.Unlock()
		// Upstream (client → backend) passes through the faulty conn,
		// so torn writes and corruption hit the publisher path;
		// downstream is relayed verbatim.
		faulty := p.in.Wrap(backend)
		go p.pipe(link, client, cutWriter{p: p, link: link, w: faulty})
		go p.pipe(link, backend, client)
	}
}

// pipe copies src → dst until either side fails, then tears the link
// down.
func (p *Proxy) pipe(link *proxyLink, src net.Conn, dst io.Writer) {
	defer p.wg.Done()
	buf := make([]byte, 4096)
	_, _ = io.CopyBuffer(dst, src, buf)
	p.drop(link)
}

// drop closes both halves of a link and forgets it.
func (p *Proxy) drop(link *proxyLink) {
	p.mu.Lock()
	_, live := p.conns[link]
	delete(p.conns, link)
	p.mu.Unlock()
	if live {
		link.client.Close()
		link.backend.Close()
	}
}

// Sever kills every live proxied connection (one scheduled reset per
// link) while keeping the proxy up, so clients that redial reconnect
// through it. It returns how many links were killed.
func (p *Proxy) Sever() int {
	p.mu.Lock()
	links := make([]*proxyLink, 0, len(p.conns))
	for l := range p.conns {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		p.drop(l)
		p.in.resets.Add(1)
	}
	return len(links)
}

// SeverAfter arms every live link to relay n more bytes upstream and
// then be severed, as Sever severs it: a stream cut at a chosen byte —
// inside a frame, say — rather than wherever a timer lands. It returns
// how many links it armed.
func (p *Proxy) SeverAfter(n int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for l := range p.conns {
		l.left.Store(n)
	}
	return len(p.conns)
}

// Refuse toggles whether new connections are rejected — a severed
// network segment: existing links die with Sever, new dials connect
// to the proxy but are immediately closed.
func (p *Proxy) Refuse(on bool) {
	p.mu.Lock()
	p.refuse = on
	p.mu.Unlock()
}

// Close severs every link and shuts the proxy down.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.Sever()
	p.wg.Wait()
	return err
}
