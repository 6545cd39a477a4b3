package monitor

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
)

var (
	t0   = time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	kCPU = topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "cpu.ctxswitch"}
	kPV  = topo.KPIKey{Scope: topo.ScopeInstance, Entity: "web@srv-1", Metric: "pv.count"}
)

// Appends, gaps, writes before the epoch, windows and prunes against the
// store reference model.
func TestStoreAppendAndSeries(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(opAppend, 0, opGap, 1, opAppend, wr(1, 1, 2)), nil)
}

func TestStoreOverwriteSameBin(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0.Add(10 * time.Second), 1})
	s.Append(Measurement{kCPU, t0.Add(40 * time.Second), 2})
	ser, _ := s.Series(kCPU)
	if ser.Len() != 1 || ser.Values[0] != 2 {
		t.Fatalf("values = %v", ser.Values)
	}
}

func TestStoreDropsPreEpoch(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(opGap, 0x80, opGap, wr(1, 2, 0x81), opAppend, 0), nil)
}

func TestStoreSeriesIsCopy(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0, 1})
	ser, _ := s.Series(kCPU)
	ser.Values[0] = 99
	ser2, _ := s.Series(kCPU)
	if ser2.Values[0] != 1 {
		t.Fatal("Series must return a copy")
	}
}

func TestStoreRange(t *testing.T) {
	runProgram(t, progConfig{span: 64, shards: 4}, progOps(opAppend, 9, opAppend, wr(1, 1, 0)), nil)
}

func TestStoreKeysAndLen(t *testing.T) {
	s := NewStore(t0, 0) // default step
	if s.Step() != time.Minute {
		t.Fatalf("default step = %v", s.Step())
	}
	s.Append(Measurement{kCPU, t0, 1})
	s.Append(Measurement{kPV, t0, 2})
	if s.Len() != 2 || len(s.Keys()) != 2 {
		t.Fatalf("Len/Keys = %d/%d", s.Len(), len(s.Keys()))
	}
}

func TestSubscribeFilterAndCancel(t *testing.T) {
	s := NewStore(t0, time.Minute)
	ch, cancel := s.Subscribe(func(k topo.KPIKey) bool { return k.Metric == "pv.count" }, 8)
	s.Append(Measurement{kCPU, t0, 1})
	s.Append(Measurement{kPV, t0, 2})
	m := <-ch
	if m.Key != kPV || m.V != 2 {
		t.Fatalf("got %+v", m)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel should be closed after cancel")
	}
	cancel() // double-cancel must not panic
	s.Append(Measurement{kPV, t0.Add(time.Minute), 3})
}

func TestSubscribeDropOldestWhenSlow(t *testing.T) {
	s := NewStore(t0, time.Minute)
	ch, cancel := s.Subscribe(nil, 2)
	defer cancel()
	for i := 0; i < 5; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	// Buffer of 2: the latest two must be present, earlier ones dropped.
	a, b := <-ch, <-ch
	if a.V != 3 || b.V != 4 {
		t.Fatalf("kept %v and %v, want 3 and 4", a.V, b.V)
	}
}

func TestSubscribeReportsDropCount(t *testing.T) {
	s := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	s.SetCollector(col)
	_, cancel := s.Subscribe(nil, 1)
	if got := col.Counter(obs.CtrSubsActive); got != 1 {
		t.Fatalf("subs_active = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	// Buffer of 1, nothing drained: appends 2..5 each evict a
	// predecessor, so 4 measurements were lost on this subscription.
	if got := cancel(); got != 4 {
		t.Fatalf("cancel() drop count = %d, want 4", got)
	}
	if got := cancel(); got != 4 {
		t.Fatalf("second cancel() = %d, want the same 4", got)
	}
	if got := col.Counter(obs.CtrPushDrops); got != 4 {
		t.Fatalf("%s = %d, want 4", obs.CtrPushDrops, got)
	}
	if got := col.Counter(obs.CtrIngested); got != 5 {
		t.Fatalf("%s = %d, want 5", obs.CtrIngested, got)
	}
	// Every append landed in the buffer after evicting: 5 pushes.
	if got := col.Counter(obs.CtrPushes); got != 5 {
		t.Fatalf("%s = %d, want 5", obs.CtrPushes, got)
	}
	if got := col.Counter(obs.CtrSubsActive); got != 0 {
		t.Fatalf("subs_active after cancel = %d, want 0", got)
	}
}

func TestSubscribeNoDropsFastConsumer(t *testing.T) {
	s := NewStore(t0, time.Minute)
	ch, cancel := s.Subscribe(nil, 8)
	for i := 0; i < 5; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	for i := 0; i < 5; i++ {
		<-ch
	}
	if got := cancel(); got != 0 {
		t.Fatalf("cancel() drop count = %d, want 0", got)
	}
}

func TestMeasurementRoundTrip(t *testing.T) {
	m := Measurement{Key: kPV, T: t0.Add(90 * time.Second), V: 3.14159}
	b, err := EncodeMeasurement(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMeasurement(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != m.Key || !got.T.Equal(m.T) || got.V != m.V {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
}

func TestMeasurementRoundTripProperty(t *testing.T) {
	f := func(scope uint8, entity, metric string, nanos int64, v float64) bool {
		m := Measurement{
			Key: topo.KPIKey{
				Scope:  topo.Scope(scope % 3),
				Entity: entity,
				Metric: metric,
			},
			T: time.Unix(0, nanos).UTC(),
			V: v,
		}
		if len(entity) > math.MaxUint16 || len(metric) > math.MaxUint16 {
			return true
		}
		b, err := EncodeMeasurement(m)
		if err != nil {
			return false
		}
		got, err := DecodeMeasurement(b)
		if err != nil {
			return false
		}
		sameV := got.V == m.V || (math.IsNaN(got.V) && math.IsNaN(m.V))
		return got.Key == m.Key && got.T.Equal(m.T) && sameV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMeasurementErrors(t *testing.T) {
	good, _ := EncodeMeasurement(Measurement{Key: kCPU, T: t0, V: 1})
	cases := [][]byte{
		nil,
		{0x99},
		{frameMeasurement, 0x07},                // bad scope
		good[:len(good)-1],                      // truncated tail
		append(append([]byte{}, good...), 0x00), // trailing garbage
		{frameMeasurement, 0x00, 0x00},          // truncated string header
	}
	for i, b := range cases {
		if _, err := DecodeMeasurement(b); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSubscribeFrameRoundTrip(t *testing.T) {
	in := []string{"server/srv-1", "instance/web@"}
	b, err := EncodeSubscribe(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSubscribe(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip = %v", out)
	}
	empty, err := EncodeSubscribe(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeSubscribe(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty subscribe: %v %v", got, err)
	}
}

func TestDecodeSubscribeErrors(t *testing.T) {
	good, _ := EncodeSubscribe([]string{"abc"})
	cases := [][]byte{
		nil,
		{frameSubscribe},
		{0x01, 0x00, 0x01},
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xFF),
	}
	for i, b := range cases {
		if _, err := DecodeSubscribe(b); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil || string(got) != "hello" {
		t.Fatalf("frame io: %q %v", got, err)
	}
	// Oversized write rejected.
	if err := WriteFrame(&buf, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized frame write should fail")
	}
	// Oversized read rejected.
	var evil bytes.Buffer
	evil.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(bufio.NewReader(&evil)); err == nil {
		t.Fatal("oversized frame read should fail")
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(addr.String(), "instance/")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Give the server a moment to register the subscription.
	deadline := time.After(5 * time.Second)
	for store.Subscribers() == 0 {
		select {
		case <-deadline:
			t.Fatal("subscription never registered")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	store.Append(Measurement{kCPU, t0, 1}) // filtered out
	store.Append(Measurement{kPV, t0, 42}) // delivered

	select {
	case m := <-cli.C():
		if m.Key != kPV || m.V != 42 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no measurement delivered")
	}
}

func TestClientCloseEndsStream(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	select {
	case _, ok := <-cli.C():
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel did not close")
	}
}

func TestAgentEmitsPerTick(t *testing.T) {
	store := NewStore(t0, time.Minute)
	a := NewAgent(store)
	a.Track(kCPU, func(bin int) float64 { return float64(bin) * 2 })
	a.Track(kPV, func(bin int) float64 { return 100 })
	if b := a.Tick(); b != 0 {
		t.Fatalf("first tick bin = %d", b)
	}
	a.Run(4)
	if a.bin != 5 {
		t.Fatalf("bin = %d", a.bin)
	}
	ser, _ := store.Series(kCPU)
	if ser.Len() != 5 || ser.Values[3] != 6 {
		t.Fatalf("cpu series = %v", ser.Values)
	}
	pv, _ := store.Series(kPV)
	if pv.Values[4] != 100 {
		t.Fatalf("pv series = %v", pv.Values)
	}
}

// TestStorePrune: a prune rebases the epoch and drops what lies wholly
// before it; a prune backwards is a no-op; appends before the new epoch
// are dropped, after it they land at the right offsets.
func TestStorePrune(t *testing.T) {
	p := progOps(opAppend, 9, opAppend, wr(1, 0, 0), opPruneTail, 4, opGap, 0x83, opGap, 2, opAppend, wr(1, 2, 3))
	runProgram(t, progConfig{span: 64, shards: 4}, p, nil)
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0.Add(9 * time.Minute), 1})
	s.Prune(t0.Add(4 * time.Minute))
	if s.Prune(t0); !s.Start().Equal(t0.Add(4 * time.Minute)) {
		t.Fatalf("a backwards prune moved the epoch to %v", s.Start())
	}
}

func TestIngestEndToEnd(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewIngestServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pub, err := DialPublisher(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := pub.Publish(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for the frames to land.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := store.Series(kCPU); ok && s.Len() == 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s, ok := store.Series(kCPU)
	if !ok || s.Len() != 5 || s.Values[4] != 4 {
		t.Fatalf("ingested series = %+v ok=%v", s, ok)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestThenSubscribeChain(t *testing.T) {
	// Full dataflow: publisher → ingest store → subscription server →
	// client.
	store := NewStore(t0, time.Minute)
	in := NewIngestServer(store)
	inAddr, err := in.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out := NewServer(store)
	outAddr, err := out.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	cli, err := Dial(outAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.After(5 * time.Second)
	for store.Subscribers() == 0 {
		select {
		case <-deadline:
			t.Fatal("subscription never registered")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	pub, err := DialPublisher(inAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	want := Measurement{kPV, t0, 42}
	if err := pub.Publish(want); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-cli.C():
		if got.Key != want.Key || got.V != want.V {
			t.Fatalf("chained measurement = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("measurement never traversed the chain")
	}
}

func TestIngestDropsMalformedPublisher(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewIngestServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := netDial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A valid frame envelope with garbage payload: connection must be
	// dropped, not crash the server.
	if err := WriteFrame(conn, []byte{0x99, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to close the connection")
	}
	if store.Len() != 0 {
		t.Fatal("garbage must not reach the store")
	}
}

// netDial is a tiny indirection so the malformed-publisher test can use
// a raw connection.
func netDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

func TestServerWaitAfterClose(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewServer(store)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestDialErrors(t *testing.T) {
	// Nothing listens here: Dial must fail cleanly.
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to a dead port should fail")
	}
}

func TestStoreStats(t *testing.T) {
	if st := NewStore(t0, time.Minute).Stats(); st.SeriesCount != 0 || st.LastBin != -1 {
		t.Fatalf("empty stats = %+v", st)
	}
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(opGap, 3, opAppend, wr(1, 0, 0), opAppend, wr(2, 1, 20)), nil)
}
