package monitor

import (
	"bytes"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
)

// TestEndpointLifecycle pins the connection core's contract: a
// panicking handler is counted, logged and dropped without taking the
// endpoint down; Close ends a handler blocked on its peer and Wait joins
// it with the gauge back at 0; a listener served after Close is closed
// at once.
func TestEndpointLifecycle(t *testing.T) {
	col := obs.NewCollector()
	var logs bytes.Buffer
	col.SetLogger(obs.NewLogger(&logs, slog.LevelInfo, false))
	ep := NewEndpoint("probe", func() *obs.Collector { return col }, func(conn net.Conn) {
		b := make([]byte, 1)
		if _, err := conn.Read(b); err == nil && b[0] == '!' {
			panic("boom")
		}
	})
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	bad, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.Read(make([]byte, 1)); err == nil {
		t.Fatal("a panicking handler's connection stayed open")
	}
	waitFor(t, "panic counted", func() bool { return col.Counter(obs.CtrConnPanics) == 1 })

	quiet, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	waitFor(t, "quiet connection tracked", func() bool { return col.Counter(obs.CtrConnsActive) == 1 })
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	waited := make(chan struct{})
	go func() {
		ep.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not join a handler blocked on its peer")
	}
	if got := col.Counter(obs.CtrConnsActive); got != 0 {
		t.Fatalf("%s = %d after Close and Wait, want 0", obs.CtrConnsActive, got)
	}
	if out := logs.String(); !strings.Contains(out, "connection handler panic") || !strings.Contains(out, "component=probe") {
		t.Fatalf("panic not logged through the collector:\n%s", out)
	}
	if err := ep.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(ln)
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener served after Close: Accept = %v, want net.ErrClosed", err)
	}
}

// TestEndpointPanicUnderShardLock: a subscriber's filter that panics
// while a batch from the ingest socket holds a shard's lock ends that
// connection only. The handler recovers, the shard's lock is released
// and its log record sealed, so Stats, Prune, a further batch on a new
// connection and a reopen all complete, and what the log holds replays.
func TestEndpointPanicUnderShardLock(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	store.SetCollector(col)
	var armed atomic.Bool
	armed.Store(true)
	_, cancel := store.Subscribe(func(topo.KPIKey) bool {
		if armed.CompareAndSwap(true, false) {
			panic("filter")
		}
		return false
	}, 1)
	defer cancel()
	srv := NewIngestServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	publish := func(bin int) {
		t.Helper()
		pub, err := DialPublisher(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		var ms []Measurement
		for _, k := range fleetKeys(8) {
			ms = append(ms, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
		}
		if err := pub.PublishBatch(ms); err != nil {
			t.Fatal(err)
		}
		pub.Flush()
	}
	publish(0)
	waitFor(t, "the handler's panic", func() bool { return col.Counter(obs.CtrConnPanics) == 1 })

	done := make(chan struct{})
	go func() {
		defer close(done)
		store.Stats()
		store.Prune(t0)
		publish(1)
		waitFor(t, "the second batch", func() bool { n, _ := store.SeriesLen(fleetKeys(1)[0]); return n == 2 })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the store wedged after a panic under a shard lock")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovered(); rec.TornTails != 0 {
		t.Fatalf("the log after the panic replays with %d torn tails", rec.TornTails)
	}
	if n, _ := re.SeriesLen(fleetKeys(1)[0]); n != 2 {
		t.Fatalf("the reopened store holds %d bins of a key written twice", n)
	}
}
