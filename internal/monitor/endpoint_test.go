package monitor

import (
	"bytes"
	"errors"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
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
