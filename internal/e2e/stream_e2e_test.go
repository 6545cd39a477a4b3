package e2e

import (
	"strings"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/testrig"
	"repro/internal/topo"
)

// The streaming workload reuses the network workload's deterministic
// values (value() shifts treated servers at changeBin); the streaming
// change's observation window closes at changeBin + window +
// lookahead, and everything after streamQuiesceBin is delivered in
// verified per-bin lockstep so the store the streamer assesses is the
// same one the batch reference later reads.
const (
	streamTotalBins  = 420
	streamWindow     = 40
	streamQuiesceBin = 340
)

// streamTopo is the dark-launch topology every streaming e2e case
// assesses: srv-0/srv-1 treated, srv-2/srv-3 the concurrent control.
func streamTopo() *topo.Topology {
	tp := topo.NewTopology()
	for _, srv := range servers {
		tp.Deploy("kv.cache", srv)
	}
	return tp
}

func streamChange() changelog.Change {
	return changelog.Change{
		ID: "chg-stream", Type: changelog.Upgrade, Service: "kv.cache",
		Servers: []string{"srv-0", "srv-1"},
		At:      epoch.Add(changeBin * time.Minute),
	}
}

// batchReference assesses the store with a fresh batch assessor and
// returns the reference report.
func batchReference(t *testing.T, store *monitor.Store) *funnel.Report {
	t.Helper()
	a, err := funnel.NewAssessor(store, streamTopo(), funnel.Config{
		ServerMetrics: []string{"mem.util"},
		WindowBins:    streamWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Assess(streamChange())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStreamE2ENetworkFlap drives the streaming assessor end to end
// over a hostile network: real TCP publishers behind a fault proxy
// that tears 1% of writes mid-frame and severs every link at three
// scheduled bins, with the assess-on-ingest Streamer attached to the
// store the whole time. The reconnect/replay machinery backfills every
// flap, the streamer's invalidation machinery absorbs the re-appends,
// and the emitted report must match the batch assessment of the same
// store bit for bit — a flapping network changes nothing about
// streamed verdicts.
func TestStreamE2ENetworkFlap(t *testing.T) {
	store := monitor.NewStore(epoch, time.Minute)
	col := obs.NewCollector()
	store.SetCollector(col)
	ingest := monitor.NewIngestServer(store)
	addr, err := ingest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr.String(),
		faultnet.Plan{Seed: 99, PartialWriteProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sr, err := funnel.NewStreamer(store, streamTopo(), funnel.Config{
		ServerMetrics: []string{"mem.util"},
		WindowBins:    streamWindow,
		Obs:           col,
	}, funnel.StreamConfig{PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(streamChange()); err != nil {
		t.Fatal(err)
	}

	bo := monitor.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 1}
	pubs := make(map[string]*monitor.RobustPublisher, len(servers))
	for _, srv := range servers {
		p, err := monitor.DialRobustPublisher(proxy.Addr().String(),
			monitor.PublisherConfig{Backoff: bo})
		if err != nil {
			t.Fatal(err)
		}
		pubs[srv] = p
		defer p.Close()
	}

	publishBin := func(bin int) {
		for _, srv := range servers {
			m := monitor.Measurement{Key: key(srv), T: epoch.Add(time.Duration(bin) * time.Minute), V: value(srv, bin)}
			if err := pubs[srv].Publish(m); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pubs {
			p.Flush()
		}
	}
	waitComplete := func(bins int, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			complete := true
			for _, srv := range servers {
				if n, ok := store.SeriesLen(key(srv)); !ok || n < bins {
					complete = false
					pubs[srv].Flush()
				}
			}
			if complete {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("%s: feeds never completed to %d bins despite reconnect/replay", what, bins)
	}

	// Phase 1: flap hard while the observation window fills — two severs
	// before the change and one inside the window — then quiesce: every
	// flapped bin must have replayed home before the window closes.
	for bin := 0; bin < streamQuiesceBin; bin++ {
		switch bin {
		case 150, 250, 330:
			proxy.Sever()
		}
		publishBin(bin)
	}
	waitComplete(streamQuiesceBin, "quiesce")

	// Phase 2: verified lockstep to the end — each bin is confirmed
	// stored (for every server) before the next is published, so the
	// streamer's readiness fires against a store whose window content
	// cannot change afterwards.
	for bin := streamQuiesceBin; bin < streamTotalBins; bin++ {
		publishBin(bin)
		waitComplete(bin+1, "lockstep")
	}

	st := proxy.Stats()
	if st.Resets < 3 {
		t.Fatalf("only %d resets injected, want ≥ 3 — test is vacuous", st.Resets)
	}
	if st.PartialWrites == 0 {
		t.Fatal("no partial writes injected — test is vacuous")
	}
	var reconnects int64
	for _, p := range pubs {
		reconnects += p.Reconnects()
	}
	if reconnects == 0 {
		t.Fatal("no publisher reconnected despite injected severs")
	}

	var rep *funnel.Report
	select {
	case rep = <-sr.Reports():
	case <-time.After(30 * time.Second):
		t.Fatalf("no streaming report within 30s (pending %d)", sr.Pending())
	}
	if n := sr.Pending(); n != 0 {
		t.Fatalf("pending = %d after the report, want 0", n)
	}
	if col.Counter(obs.CtrStreamAdvances) == 0 {
		t.Fatal("streamer never advanced a score state — test is vacuous")
	}

	got := verdicts(rep)
	for _, srv := range servers {
		want := funnel.NoChange
		if treated[srv] {
			want = funnel.ChangedBySoftware
		}
		if got[srv] != want {
			t.Errorf("%s: streamed verdict %v, want %v", srv, got[srv], want)
		}
	}
	if d := testrig.ReportDiff(rep, batchReference(t, store), false); len(d) > 0 {
		t.Errorf("flap: streamed report differs from batch: %s", strings.Join(d, "; "))
	}
}

// TestStreamE2EDegradedDisk runs the streamer on a persistent store
// whose disk fills mid-window (ENOSPC via faultfs) and then recovers:
// durability degrades and re-arms underneath the streaming assessment,
// which must neither stall nor change a single verdict — the streamed
// report still matches the batch assessment of the same store exactly.
func TestStreamE2EDegradedDisk(t *testing.T) {
	ff := faultfs.New(faultfs.Plan{Seed: 7}, nil)
	opts := noBG
	opts.FS = ff
	opts.RearmBackoff = monitor.Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1}
	store, err := monitor.OpenPersistent(t.TempDir(), epoch, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	col := obs.NewCollector()
	store.SetCollector(col)

	sr, err := funnel.NewStreamer(store, streamTopo(), funnel.Config{
		ServerMetrics: []string{"mem.util"},
		WindowBins:    streamWindow,
		Obs:           col,
	}, funnel.StreamConfig{PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(streamChange()); err != nil {
		t.Fatal(err)
	}

	sawDegraded := false
	for bin := 0; bin < streamTotalBins; bin++ {
		if bin == changeBin+10 {
			ff.SetENOSPC(true) // the disk fills right inside the window
		}
		if bin == changeBin+35 {
			ff.SetENOSPC(false) // space returns; the persister re-arms
		}
		for _, srv := range servers {
			store.Append(monitor.Measurement{Key: key(srv), T: epoch.Add(time.Duration(bin) * time.Minute), V: value(srv, bin)})
		}
		if store.PersistState() == monitor.PersistDegraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("persistence never degraded — the ENOSPC episode was vacuous")
	}
	deadline := time.Now().Add(5 * time.Second)
	for store.PersistState() != monitor.PersistHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("persister never re-armed; state %v", store.PersistState())
		}
		time.Sleep(time.Millisecond)
	}

	var rep *funnel.Report
	select {
	case rep = <-sr.Reports():
	case <-time.After(30 * time.Second):
		t.Fatalf("no streaming report within 30s (pending %d)", sr.Pending())
	}
	got := verdicts(rep)
	for _, srv := range servers {
		want := funnel.NoChange
		if treated[srv] {
			want = funnel.ChangedBySoftware
		}
		if got[srv] != want {
			t.Errorf("%s: streamed verdict %v through the ENOSPC episode, want %v", srv, got[srv], want)
		}
	}
	if d := testrig.ReportDiff(rep, batchReference(t, store), false); len(d) > 0 {
		t.Errorf("degraded-disk: streamed report differs from batch: %s", strings.Join(d, "; "))
	}
}
