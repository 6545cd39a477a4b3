package monitor

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// fastBackoff keeps reconnect tests quick and deterministic.
var fastBackoff = Backoff{Initial: 5 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 1}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClientReconnectResumesWithoutLossOrDup(t *testing.T) {
	store := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	store.SetCollector(col)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr.String(), faultnet.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cli, err := DialConfig(proxy.Addr().String(),
		ClientConfig{Reconnect: true, Backoff: fastBackoff, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitFor(t, "subscription", func() bool { return store.Subscribers() > 0 })

	// Receiver: count every delivered (bin) and every duplicate.
	var mu sync.Mutex
	seen := map[int]int{}
	go func() {
		for m := range cli.C() {
			bin := int(m.T.Sub(t0) / time.Minute)
			mu.Lock()
			seen[bin]++
			mu.Unlock()
		}
	}()
	have := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(seen) >= n
		}
	}

	for i := 0; i < 10; i++ {
		store.Append(Measurement{kPV, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	waitFor(t, "first 10 bins", have(10))

	// Cut the connection; the outage swallows nothing because the
	// store keeps everything and the resuming client replays.
	if n := proxy.Sever(); n == 0 {
		t.Fatal("no link severed")
	}
	for i := 10; i < 20; i++ {
		store.Append(Measurement{kPV, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	waitFor(t, "bins after reconnect", have(20))

	// And live delivery works again post-resume.
	for i := 20; i < 25; i++ {
		store.Append(Measurement{kPV, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	waitFor(t, "live bins post-resume", have(25))

	mu.Lock()
	defer mu.Unlock()
	for bin := 0; bin < 25; bin++ {
		if seen[bin] != 1 {
			t.Errorf("bin %d delivered %d times, want exactly once", bin, seen[bin])
		}
	}
	if cli.Reconnects() == 0 {
		t.Error("client reports zero reconnects after a severed link")
	}
	if col.Counter(obs.CtrReconnects) == 0 {
		t.Error("collector did not count the reconnect")
	}
	if cli.Err() != nil {
		t.Errorf("healthy reconnected client reports Err() = %v", cli.Err())
	}
}

// TestReconnectingClientDeliversLiveLateWrites: on a link that never
// dropped there is no replay to dedup, so a reconnecting client delivers
// a late write and a same-bin overwrite as a plain one does, and the
// late write does not pull its key's resume watermark back.
func TestReconnectingClientDeliversLiveLateWrites(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bins := []int{10, 11, 5, 11, 12}
	for _, reconnect := range []bool{false, true} {
		cli, err := DialConfig(addr.String(), ClientConfig{Reconnect: reconnect, Backoff: fastBackoff})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "subscription", func() bool { return store.Subscribers() == 1 })
		for i, b := range bins {
			store.Append(Measurement{kPV, t0.Add(time.Duration(b) * time.Minute), float64(i)})
		}
		for i, b := range bins {
			select {
			case m := <-cli.C():
				if got := int(m.T.Sub(t0) / time.Minute); got != b || m.V != float64(i) {
					t.Fatalf("reconnect %v: delivery %d is bin %d = %v, want bin %d = %d", reconnect, i, got, m.V, b, i)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("reconnect %v: %d of %d measurements delivered", reconnect, i, len(bins))
			}
		}
		if wm := cli.watermark(); reconnect && !wm.Equal(t0.Add(12*time.Minute)) {
			t.Fatalf("resume watermark %v, want bin 12", wm)
		}
		cli.Close()
		waitFor(t, "unsubscribe", func() bool { return store.Subscribers() == 0 })
	}
}

func TestClientErrDistinguishesCloseFromBreak(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Clean Close: channel closes, Err stays nil.
	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	waitFor(t, "channel close", func() bool {
		select {
		case _, ok := <-cli.C():
			return !ok
		default:
			return false
		}
	})
	if cli.Err() != nil {
		t.Fatalf("Err() after clean Close = %v, want nil", cli.Err())
	}

	// Broken connection (server side dies, no reconnect): Err reports it.
	cli2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	waitFor(t, "subscription", func() bool { return store.Subscribers() > 0 })
	srv.Close()
	waitFor(t, "stream end", func() bool {
		select {
		case _, ok := <-cli2.C():
			return !ok
		default:
			return false
		}
	})
	if cli2.Err() == nil {
		t.Fatal("Err() after broken connection = nil, want the transport error")
	}
}

func TestClientReconnectBudgetExhaustion(t *testing.T) {
	store := NewStore(t0, time.Minute)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bo := fastBackoff
	bo.MaxAttempts = 3
	cli, err := DialConfig(addr.String(), ClientConfig{Reconnect: true, Backoff: bo})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close() // server gone for good: every redial fails
	waitFor(t, "budget exhaustion", func() bool {
		select {
		case _, ok := <-cli.C():
			return !ok
		default:
			return false
		}
	})
	if cli.Err() == nil {
		t.Fatal("Err() = nil after exhausting the reconnect budget")
	}
}

func TestRobustPublisherResendsThroughFlap(t *testing.T) {
	store := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	store.SetCollector(col)
	ingest := NewIngestServer(store)
	addr, err := ingest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()
	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr.String(), faultnet.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	pub, err := DialRobustPublisher(proxy.Addr().String(), PublisherConfig{Backoff: fastBackoff, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	publish := func(bin int) {
		t.Helper()
		m := Measurement{kPV, t0.Add(time.Duration(bin) * time.Minute), float64(bin)}
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		pub.Flush()
	}
	binsStored := func(n int) func() bool {
		return func() bool {
			s, ok := store.Series(kPV)
			return ok && s.Len() >= n && !s.HasGaps()
		}
	}

	for i := 0; i < 10; i++ {
		publish(i)
	}
	waitFor(t, "first 10 bins ingested", binsStored(10))

	if n := proxy.Sever(); n == 0 {
		t.Fatal("no link severed")
	}
	// Keep publishing through the outage: failed writes are absorbed,
	// everything rides the replay ring, and the periodic Flush calls
	// drive the redial loop.
	for i := 10; i < 20; i++ {
		publish(i)
		time.Sleep(3 * time.Millisecond)
	}
	waitFor(t, "all 20 bins ingested after reconnect", func() bool {
		pub.Flush() // drive reconnection until the ring lands
		return binsStored(20)()
	})

	if pub.Reconnects() == 0 {
		t.Error("publisher reports zero reconnects after a severed link")
	}
	if pub.Dropped() != 0 {
		t.Errorf("publisher dropped %d measurements with ample ring capacity", pub.Dropped())
	}
	s, _ := store.Series(kPV)
	for i := 0; i < 20; i++ {
		if s.Values[i] != float64(i) {
			t.Errorf("bin %d = %v, want %d (resend must be idempotent, not additive)", i, s.Values[i], i)
		}
	}
}

// TestRobustPublisherQuietLinkProbe pins the probe contract that the
// streaming lockstep path depends on: a publisher whose last frame was
// swallowed by a dying link, and which has nothing further to say, must
// still notice the peer close from Flush alone — no new publishes, no
// write errors to lean on — and replay its ring. The probe must
// actually look at the socket: an already-expired read deadline fails
// the read before the poller sees the queued FIN, which left exactly
// this shape wedged forever ("connected", no error, one bin missing).
func TestRobustPublisherQuietLinkProbe(t *testing.T) {
	store := NewStore(t0, time.Minute)
	ingest := NewIngestServer(store)
	addr, err := ingest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()
	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr.String(), faultnet.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	pub, err := DialRobustPublisher(proxy.Addr().String(), PublisherConfig{Backoff: fastBackoff})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	for i := 0; i < 5; i++ {
		if err := pub.Publish(Measurement{kPV, t0.Add(time.Duration(i) * time.Minute), float64(i)}); err != nil {
			t.Fatal(err)
		}
		pub.Flush()
	}
	waitFor(t, "first 5 bins ingested", func() bool {
		s, ok := store.Series(kPV)
		return ok && s.Len() >= 5
	})

	// The link dies quietly; the FIN reaches the publisher's socket
	// before it writes again, so the single in-flight frame below is
	// accepted by the local kernel and lost on the floor.
	if n := proxy.Sever(); n == 0 {
		t.Fatal("no link severed")
	}
	time.Sleep(20 * time.Millisecond)
	if err := pub.Publish(Measurement{kPV, t0.Add(5 * time.Minute), 5}); err != nil {
		t.Fatal(err)
	}
	pub.Flush()

	// From here on the publisher is quiet: only Flush runs, exactly like
	// a lockstep driver waiting for its one outstanding bin. The probe
	// alone must surface the dead link and drive the replay home.
	waitFor(t, "lost bin replayed via quiet-link probe", func() bool {
		pub.Flush()
		s, ok := store.Series(kPV)
		return ok && s.Len() >= 6 && !s.HasGaps()
	})
	if pub.Reconnects() == 0 {
		t.Error("publisher reports zero reconnects after a quiet peer close")
	}
}

func TestRobustPublisherRingOverflowIsObservable(t *testing.T) {
	// Dead endpoint from the start: dial a listener we immediately
	// close, so every measurement queues in a tiny ring.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := DialRobustPublisher(ln.Addr().String(), PublisherConfig{Backoff: fastBackoff, ReplayCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	defer pub.Close()
	for i := 0; i < 10; i++ {
		m := Measurement{kPV, t0.Add(time.Duration(i) * time.Minute), float64(i)}
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if pub.Dropped() == 0 {
		t.Fatal("ring overflow not reported in Dropped()")
	}
}

func TestServerHandshakeDeadline(t *testing.T) {
	store := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	store.SetCollector(col)
	srv := NewServer(store)
	srv.HandshakeTimeout = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Never send the subscribe frame; the server must kick us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("server kept a silent client past the handshake deadline")
	}
	waitFor(t, "deadline kick counter", func() bool {
		return col.Counter(obs.CtrDeadlineKicks) >= 1
	})
}

func TestIngestReadDeadline(t *testing.T) {
	store := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	store.SetCollector(col)
	ingest := NewIngestServer(store)
	ingest.ReadTimeout = 50 * time.Millisecond
	addr, err := ingest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("ingest kept a silent publisher past the read deadline")
	}
	waitFor(t, "deadline kick counter", func() bool {
		return col.Counter(obs.CtrDeadlineKicks) >= 1
	})
}

func TestIngestRejectsOversizedFrame(t *testing.T) {
	store := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	store.SetCollector(col)
	ingest := NewIngestServer(store)
	addr, err := ingest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20) // far past maxFrame
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("ingest kept a peer that sent an oversized frame")
	}
	waitFor(t, "frame reject counter", func() bool {
		return col.Counter(obs.CtrFrameRejects) >= 1
	})
	if got := store.Len(); got != 0 {
		t.Fatalf("store has %d series after a rejected frame, want 0", got)
	}
}

func TestServersSurviveFaultyListeners(t *testing.T) {
	// Accept failures and mid-stream resets must not take the accept
	// loop down: later clients still get served.
	store := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	store.SetCollector(col)
	ingest := NewIngestServer(store)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.NewInjector(faultnet.Plan{Seed: 1, AcceptFailEvery: 2})
	ingest.Serve(in.WrapListener(raw))
	defer ingest.Close()

	for i := 0; i < 6; i++ {
		pub, err := DialPublisher(raw.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		m := Measurement{kPV, t0.Add(time.Duration(i) * time.Minute), float64(i)}
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		pub.Close()
	}
	waitFor(t, "all publishers ingested despite accept failures", func() bool {
		s, ok := store.Series(kPV)
		return ok && s.Len() == 6
	})
	if in.Stats().AcceptFails == 0 {
		t.Fatal("plan injected no accept failures — test is vacuous")
	}

	// Close ends a live publisher's connection too: Wait joins its
	// handler, the gauge is back to 0, and what it sends afterwards never
	// reaches the store.
	live, err := DialPublisher(raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	send := func(bin int) {
		if err := live.Publish(Measurement{kPV, t0.Add(time.Duration(bin) * time.Minute), float64(bin)}); err != nil {
			t.Fatal(err)
		}
		live.Flush()
	}
	send(6)
	waitFor(t, "live publisher ingested", func() bool {
		s, _ := store.Series(kPV)
		return s.Len() == 7
	})
	ingest.Close()
	waited := make(chan struct{})
	go func() {
		ingest.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return with a publisher still connected")
	}
	if got := col.Counter(obs.CtrConnsActive); got != 0 {
		t.Fatalf("%s = %d after Close and Wait, want 0", obs.CtrConnsActive, got)
	}
	send(7)
	time.Sleep(100 * time.Millisecond)
	if s, _ := store.Series(kPV); s.Len() != 7 {
		t.Fatalf("series holds %d bins after a post-Close publish, want 7", s.Len())
	}
}

func TestSlowSubscriberDropAccountingUnderChurn(t *testing.T) {
	const (
		n       = 2000
		readers = 3
		churn   = 4
	)
	store := NewStore(t0, time.Minute)

	type tally struct {
		received int
		drops    int
	}
	results := make(chan tally, readers)
	var wg sync.WaitGroup

	// Full-lifetime slow subscribers: tiny buffers force drop-oldest
	// evictions; the invariant is that nothing vanishes silently —
	// received + drops == n exactly. The test cancels after the
	// producer finishes; each reader drains the buffered residue (the
	// channel closes on cancel) and reports.
	cancels := make([]func() int, readers)
	for r := 0; r < readers; r++ {
		ch, cancel := store.Subscribe(nil, 1)
		cancels[r] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := 0
			for range ch {
				got++
			}
			results <- tally{received: got, drops: cancel()}
		}()
	}

	// Churn subscribers: subscribe, read a little, cancel, repeat —
	// concurrently with the producer. Their invariant is the weaker
	// received + drops ≤ n (they miss what was appended while they
	// were not subscribed).
	stop := make(chan struct{})
	var churnWg sync.WaitGroup
	for c := 0; c < churn; c++ {
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel := store.Subscribe(nil, 2)
				got := 0
				// Select on stop too: a subscription taken after the
				// producer's last Append would otherwise wait forever for
				// a measurement that never comes.
			read:
				for got < 8 {
					select {
					case <-ch:
						got++
					case <-stop:
						break read
					}
				}
				drops := cancel()
				for range ch {
					got++ // drain what was buffered before the close
				}
				if got+drops > n {
					t.Errorf("churn subscription saw %d + %d drops > %d appended", got, drops, n)
					return
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		store.Append(Measurement{kPV, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	close(stop)
	churnWg.Wait()

	// Producer is done: cancel the full-lifetime subscriptions so their
	// readers drain the residue and report.
	for _, cancel := range cancels {
		cancel()
	}
	for r := 0; r < readers; r++ {
		res := <-results
		if res.received+res.drops != n {
			t.Errorf("full-lifetime subscriber: received %d + drops %d != %d", res.received, res.drops, n)
		}
	}
	wg.Wait()
}
