package e2e

import (
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/testrig"
)

// noBG disables the persister's background sync/compaction so an
// abandoned store has no goroutine racing the restarted one; every
// Append still flushes its WAL record to the OS before acking, which
// is exactly what a SIGKILL preserves.
var noBG = monitor.PersistOptions{SyncInterval: -1, CompactBytes: -1}

// TestCrashRecoveryE2E kills the serving side mid-ingest — after the
// software change lands, inside its observation window — and restarts
// it over the same data directory. The restarted store must replay
// head, segments and WAL back to the exact pre-crash contents, the
// publishers' reconnect/replay machinery must close the crash gap, and
// the final store and verdicts must be identical to a run that never
// crashed.
func TestCrashRecoveryE2E(t *testing.T) {
	dir := t.TempDir()
	const crashBin = changeBin + 20 // mid-observation-window

	// Reference: the uninterrupted run, appended directly.
	ref := monitor.NewStore(epoch, time.Minute)
	for bin := 0; bin < totalBins; bin++ {
		for _, srv := range servers {
			ref.Append(monitor.Measurement{Key: key(srv), T: epoch.Add(time.Duration(bin) * time.Minute), V: value(srv, bin)})
		}
	}

	// Phase 1: a persistent store served through a lossy faultnet proxy.
	storeA, err := monitor.OpenPersistent(dir, epoch, time.Minute, noBG)
	if err != nil {
		t.Fatal(err)
	}
	storeA.SetCollector(obs.NewCollector())
	ingestA := monitor.NewIngestServer(storeA)
	addrA, err := ingestA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxyA, err := faultnet.NewProxy("127.0.0.1:0", addrA.String(),
		faultnet.Plan{Seed: 42, PartialWriteProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	front := proxyA.Addr().String()

	bo := monitor.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 1}
	pubs := make(map[string]*monitor.RobustPublisher, len(servers))
	for _, srv := range servers {
		p, err := monitor.DialRobustPublisher(front, monitor.PublisherConfig{
			Backoff:        bo,
			ReplayCapacity: totalBins + 8, // ring covers the whole run: crash loss is always replayable
		})
		if err != nil {
			t.Fatal(err)
		}
		pubs[srv] = p
		t.Cleanup(func() { p.Close() })
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
	const settledBin = crashBin - 20
	for bin := 0; bin < settledBin; bin++ {
		publishBin(bin)
	}
	// Wait for the settled prefix to land in the store — publishers run
	// far ahead of the wire, and a crash is only worth recovering from
	// if it interrupts a store that already holds real data.
	settleDeadline := time.Now().Add(30 * time.Second)
	for {
		settled := true
		for _, srv := range servers {
			if s, ok := storeA.Series(key(srv)); !ok || s.Len() < settledBin || s.HasGaps() {
				settled = false
				pubs[srv].Flush()
			}
		}
		if settled {
			break
		}
		if time.Now().After(settleDeadline) {
			for _, srv := range servers {
				s, ok := storeA.Series(key(srv))
				p := pubs[srv]
				t.Logf("%s: ok=%v len=%d gaps=%v err=%v reconnects=%d dropped=%d",
					srv, ok, s.Len(), s.HasGaps(), p.Err(), p.Reconnects(), p.Dropped())
			}
			t.Logf("proxy stats: %+v", proxyA.Stats())
			t.Fatal("settled prefix never fully landed before the crash")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A scheduled mid-stream fault before the crash: every live link is
	// reset, so the pre-crash story already includes a reconnect+replay
	// cycle on top of the probabilistic torn writes.
	if severed := proxyA.Sever(); severed == 0 {
		t.Fatal("no live links to sever — test is vacuous")
	}

	// The last 20 pre-crash bins stay in flight: published, maybe acked,
	// maybe torn mid-frame when the kill lands.
	for bin := settledBin; bin < crashBin; bin++ {
		publishBin(bin)
	}

	// "kill -9": tear down the frontend and the ingest loop and abandon
	// storeA without Close — no compaction, no final sync. Whatever its
	// per-append WAL flushes pushed to the OS is all a restart gets.
	proxyA.Close()
	ingestA.Close()
	ingestA.Wait() // join the in-flight handlers: nothing reaches storeA after this

	// Phase 2: restart over the same directory, behind the same
	// frontend address, and let the publishers reconnect.
	storeB, err := monitor.OpenPersistent(dir, epoch, time.Minute, noBG)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer storeB.Close()
	rec := storeB.Recovered()
	if rec.SnapshotSeries == 0 && rec.WALRecords == 0 {
		t.Fatal("restart recovered nothing — the crash either lost everything or the test published nothing")
	}
	// The settled prefix was acked before the kill, so the WAL must
	// reproduce it exactly: every server's series back to at least the
	// settled bin, every recovered value bit-identical to what was sent.
	for _, srv := range servers {
		s, ok := storeB.Series(key(srv))
		if !ok || s.Len() < settledBin {
			t.Fatalf("%s: recovered series %v short of the settled %d bins (recovered %+v)", srv, s, settledBin, rec)
		}
		for i, v := range s.Values {
			if want := value(srv, i); v == v && v != want {
				t.Fatalf("%s bin %d: recovered %v, sent %v — WAL replay corrupted a value", srv, i, v, want)
			}
		}
	}
	storeB.SetCollector(obs.NewCollector())
	ingestB := monitor.NewIngestServer(storeB)
	addrB, err := ingestB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ingestB.Close() })
	var proxyB *faultnet.Proxy
	for deadline := time.Now().Add(5 * time.Second); ; {
		proxyB, err = faultnet.NewProxy(front, addrB.String(), faultnet.Plan{Seed: 43})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding frontend %s: %v", front, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() { proxyB.Close() })

	for bin := crashBin; bin < totalBins; bin++ {
		publishBin(bin)
	}

	// Drain: each publisher's ring replay must close the crash gap.
	deadline := time.Now().Add(30 * time.Second)
	for complete := false; !complete; time.Sleep(5 * time.Millisecond) {
		complete = true
		for _, srv := range servers {
			s, ok := storeB.Series(key(srv))
			if !ok || s.Len() < totalBins || s.HasGaps() {
				complete = false
				pubs[srv].Flush()
			}
		}
		if time.Now().After(deadline) {
			for _, srv := range servers {
				if s, ok := storeB.Series(key(srv)); !ok || s.Len() < totalBins || s.HasGaps() {
					t.Fatalf("%s: feed never completed after the crash restart", srv)
				}
			}
		}
	}

	var reconnects int64
	for _, p := range pubs {
		reconnects += p.Reconnects()
		if p.Dropped() != 0 {
			t.Errorf("publisher dropped %d measurements — the ring was sized to lose nothing", p.Dropped())
		}
	}
	if reconnects == 0 {
		t.Fatal("no publisher reconnected across the crash — test is vacuous")
	}
	if proxyA.Stats().Resets == 0 {
		t.Fatal("no resets injected before the crash — test is vacuous")
	}

	// The recovered-and-caught-up store must hold what the uninterrupted
	// run holds, bin for bit-identical bin.
	if d := testrig.StoreDiff(storeB, ref); d != "" {
		t.Fatalf("recovered store differs from uninterrupted run: %s", d)
	}

	// And the assessment over the recovered store must agree.
	wantV := verdicts(assess(t, ref))
	gotV := verdicts(assess(t, storeB))
	for _, srv := range servers {
		if gotV[srv] != wantV[srv] {
			t.Errorf("%s: post-crash verdict %v != uninterrupted verdict %v", srv, gotV[srv], wantV[srv])
		}
	}
	for _, srv := range servers {
		want := funnel.NoChange
		if treated[srv] {
			want = funnel.ChangedBySoftware
		}
		if gotV[srv] != want {
			t.Errorf("%s: verdict %v, want %v", srv, gotV[srv], want)
		}
	}
}

// TestCrashRecoveryChunkedSnapshot runs the crash/restart cycle with a
// chunk span small enough that sealed, compressed chunks exist — the
// 500-bin run never seals a default 512-bin chunk — and with a
// compaction mid-run, so recovery reads a head and a segment of sealed
// chunks plus a WAL suffix. The recovered store must hold what an
// uninterrupted chunked run holds, chunk layout and bits, and produce
// the same verdicts.
func TestCrashRecoveryChunkedSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := noBG
	opts.ChunkSpan = 64

	appendAll := func(s *monitor.Store, lo, hi int) {
		for bin := lo; bin < hi; bin++ {
			for _, srv := range servers {
				s.Append(monitor.Measurement{Key: key(srv), T: epoch.Add(time.Duration(bin) * time.Minute), V: value(srv, bin)})
			}
		}
	}

	ref := monitor.NewStore(epoch, time.Minute)
	ref.SetChunkSpan(opts.ChunkSpan)
	appendAll(ref, 0, totalBins)

	storeA, err := monitor.OpenPersistent(dir, epoch, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	const compactAt = changeBin + 10
	appendAll(storeA, 0, compactAt)
	if err := storeA.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(storeA, compactAt, totalBins)
	// Abandon without Close: the head and segment plus per-append WAL
	// flushes are all a restart gets.

	storeB, err := monitor.OpenPersistent(dir, epoch, time.Minute, opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer storeB.Close()
	rec := storeB.Recovered()
	if rec.SnapshotSeries == 0 {
		t.Fatal("compaction left no head — the segment path was not exercised")
	}
	if rec.WALRecords == 0 {
		t.Fatal("no WAL suffix replayed on top of the head — test is vacuous")
	}
	if st := storeB.Stats(); st.Chunks == 0 {
		t.Fatalf("recovered store holds no sealed chunks (stats %+v)", st)
	}

	if d := testrig.StoreDiff(storeB, ref); d != "" {
		t.Fatalf("recovered chunked store differs from uninterrupted run: %s", d)
	}

	gotV := verdicts(assess(t, storeB))
	wantV := verdicts(assess(t, ref))
	for _, srv := range servers {
		if gotV[srv] != wantV[srv] {
			t.Errorf("%s: chunked recovery verdict %v != reference %v", srv, gotV[srv], wantV[srv])
		}
		want := funnel.NoChange
		if treated[srv] {
			want = funnel.ChangedBySoftware
		}
		if gotV[srv] != want {
			t.Errorf("%s: verdict %v, want %v", srv, gotV[srv], want)
		}
	}
}

// TestCrashRecoveryColdRestart covers the other restart path: no
// publishers survive the crash (agents died with the server), so the
// recovered prefix is all the data there is — and the assessor must
// still run over it rather than erroring on the partial window.
func TestCrashRecoveryColdRestart(t *testing.T) {
	dir := t.TempDir()
	storeA, err := monitor.OpenPersistent(dir, epoch, time.Minute, noBG)
	if err != nil {
		t.Fatal(err)
	}
	const upTo = changeBin + 40 // full observation window persisted
	for bin := 0; bin < upTo; bin++ {
		for _, srv := range servers {
			storeA.Append(monitor.Measurement{Key: key(srv), T: epoch.Add(time.Duration(bin) * time.Minute), V: value(srv, bin)})
		}
	}
	// Abandon without Close, reopen cold.
	storeB, err := monitor.OpenPersistent(dir, epoch, time.Minute, noBG)
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()
	if got := storeB.Len(); got != len(servers) {
		t.Fatalf("cold restart recovered %d series, want %d", got, len(servers))
	}
	for _, srv := range servers {
		s, ok := storeB.Series(key(srv))
		if !ok || s.Len() != upTo || s.HasGaps() {
			t.Fatalf("%s: recovered series %v, want %d gap-free bins", srv, s, upTo)
		}
		for i, v := range s.Values {
			if want := value(srv, i); v != want {
				t.Fatalf("%s bin %d: recovered %v, appended %v", srv, i, v, want)
			}
		}
	}
	gotV := verdicts(assess(t, storeB))
	for _, srv := range servers {
		want := funnel.NoChange
		if treated[srv] {
			want = funnel.ChangedBySoftware
		}
		if gotV[srv] != want {
			t.Errorf("%s: cold-restart verdict %v, want %v", srv, gotV[srv], want)
		}
	}
}
