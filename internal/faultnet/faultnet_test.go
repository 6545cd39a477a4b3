package faultnet

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePair returns a wrapped client conn talking to a raw server conn
// over a real TCP loopback socket.
func pipePair(t *testing.T, in *Injector) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { raw.Close(); r.c.Close() })
	return in.Wrap(raw), r.c
}

func TestInjectorDeterministic(t *testing.T) {
	draw := func() []bool {
		in := NewInjector(Plan{Seed: 42, PartialWriteProb: 0.3})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.chance(0.3)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at draw %d", i)
		}
	}
}

func TestPartialWriteTearsAndKills(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, PartialWriteProb: 1})
	client, server := pipePair(t, in)
	buf := []byte("0123456789")
	n, err := client.Write(buf)
	if err == nil || !IsInjected(err) {
		t.Fatalf("want injected error, got n=%d err=%v", n, err)
	}
	if n != len(buf)/2 {
		t.Fatalf("torn write delivered %d bytes, want %d", n, len(buf)/2)
	}
	// The connection is dead: subsequent writes fail without touching
	// the wire.
	if _, err := client.Write(buf); err == nil {
		t.Fatal("write on killed conn succeeded")
	}
	// The server sees exactly the torn prefix then EOF.
	got, _ := io.ReadAll(server)
	if !bytes.Equal(got, buf[:len(buf)/2]) {
		t.Fatalf("server saw %q, want %q", got, buf[:5])
	}
	st := in.Stats()
	if st.PartialWrites != 1 || st.Resets != 1 {
		t.Fatalf("stats = %+v, want 1 partial write and 1 reset", st)
	}
}

func TestCorruptionFlipsOneByte(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, CorruptProb: 1})
	client, server := pipePair(t, in)
	buf := []byte("hello, world")
	if _, err := client.Write(buf); err != nil {
		t.Fatal(err)
	}
	client.Close()
	got, _ := io.ReadAll(server)
	if len(got) != len(buf) {
		t.Fatalf("server saw %d bytes, want %d", len(got), len(buf))
	}
	diff := 0
	for i := range buf {
		if got[i] != buf[i] {
			diff++
			if got[i] != buf[i]^0xFF {
				t.Fatalf("byte %d corrupted to %#x, want %#x", i, got[i], buf[i]^0xFF)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if st := in.Stats(); st.Corruptions != 1 {
		t.Fatalf("stats = %+v, want 1 corruption", st)
	}
}

func TestResetAfterWrites(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, ResetAfterWrites: 3})
	client, _ := pipePair(t, in)
	for i := 0; i < 2; i++ {
		if _, err := client.Write([]byte("x")); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if _, err := client.Write([]byte("x")); err == nil || !IsInjected(err) {
		t.Fatalf("third write should reset, got %v", err)
	}
	if st := in.Stats(); st.Resets != 1 {
		t.Fatalf("stats = %+v, want 1 reset", st)
	}
}

func TestListenerInjectsTemporaryAcceptFailures(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, AcceptFailEvery: 2})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := in.WrapListener(raw)
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	accepted := 0
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				var ne net.Error
				if ok := asNetError(err, &ne); ok && ne.Temporary() {
					continue // transient: keep accepting
				}
				return
			}
			accepted++
			conn.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	time.Sleep(50 * time.Millisecond)
	ln.Close()
	wg.Wait()
	if st := in.Stats(); st.AcceptFails == 0 {
		t.Fatalf("stats = %+v, want injected accept failures", st)
	}
	if accepted == 0 {
		t.Fatal("no connections accepted through the faulty listener")
	}
}

// asNetError is errors.As specialized to net.Error without importing
// errors (the injected type implements it directly).
func asNetError(err error, target *net.Error) bool {
	ne, ok := err.(net.Error)
	if ok {
		*target = ne
	}
	return ok
}

func TestProxySeverKillsLiveLinks(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	sink := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			sink <- c
		}
	}()

	p, err := NewProxy("127.0.0.1:0", backend.Addr().String(), Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	client, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	srv := <-sink
	defer srv.Close()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}

	if n := p.Sever(); n != 1 {
		t.Fatalf("Sever() = %d, want 1", n)
	}
	// Both halves die: the client read unblocks with EOF/reset.
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(buf); err == nil {
		t.Fatal("client read succeeded after sever")
	}
	if st := p.Stats(); st.Resets != 1 {
		t.Fatalf("stats = %+v, want 1 reset", st)
	}
}

// TestProxySeverAfterCutsAtTheByte: an armed link relays exactly the
// bytes it was given, then both halves die.
func TestProxySeverAfterCutsAtTheByte(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	sink := make(chan net.Conn, 1)
	go func() {
		if c, err := backend.Accept(); err == nil {
			sink <- c
		}
	}()
	p, err := NewProxy("127.0.0.1:0", backend.Addr().String(), Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	client, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	srv := <-sink
	defer srv.Close()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}

	if n := p.SeverAfter(3); n != 1 {
		t.Fatalf("SeverAfter armed %d links, want 1", n)
	}
	client.Write([]byte("abcdefgh")) // may fail once the cut lands
	srv.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, _ := io.ReadAll(srv) // ends at the cut, as EOF or a reset
	if string(got) != "abc" {
		t.Fatalf("backend received %q after the cut, want %q", got, "abc")
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(buf); err == nil {
		t.Fatal("client read succeeded after the cut")
	}
	if st := p.Stats(); st.Resets != 1 {
		t.Fatalf("stats = %+v, want 1 reset", st)
	}
}

func TestProxyRefuseBlocksNewConns(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	p, err := NewProxy("127.0.0.1:0", backend.Addr().String(), Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.Refuse(true)
	c, err := net.Dial("tcp", p.Addr().String())
	if err == nil {
		// The TCP accept may succeed before the proxy closes it; the
		// connection must then die immediately.
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		one := make([]byte, 1)
		if _, rerr := c.Read(one); rerr == nil {
			t.Fatal("refused connection stayed alive")
		}
		c.Close()
	}

	p.Refuse(false)
	c2, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}
