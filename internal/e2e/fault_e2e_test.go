// Package e2e exercises the full KPI dataflow — agent publishers →
// TCP ingest → central store → FUNNEL assessment — under injected
// network faults, asserting the robustness contract: a flapping
// network changes nothing about the verdicts, and a severed feed is
// reported as explicitly inconclusive, never as a false flag.
package e2e

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/faultnet"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/testrig"
	"repro/internal/topo"
)

const (
	totalBins = 500
	changeBin = 300
	shift     = 8.0
)

var (
	epoch   = time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	servers = []string{"srv-0", "srv-1", "srv-2", "srv-3"}
	treated = map[string]bool{"srv-0": true, "srv-1": true}
)

// value is the deterministic measurement for (server, bin): identical
// in every run, so the fault-free and faulty stores can be compared
// bitwise.
func value(srv string, bin int) float64 {
	var seed int64
	for _, c := range srv {
		seed = seed*131 + int64(c)
	}
	r := rand.New(rand.NewSource(seed + int64(bin)*7919))
	v := 55 + 0.6*r.NormFloat64()
	if treated[srv] && bin >= changeBin {
		v += shift
	}
	return v
}

func key(srv string) topo.KPIKey {
	return topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"}
}

// runIngest drives the 500-bin workload through real TCP publishers
// into a fresh store. dialAddr maps a server name to the address its
// publisher dials (a fault proxy or the ingest endpoint directly);
// onBin runs between bins (fault scheduling). Servers in severed keep
// publishing — like a real agent on a dead network segment — but the
// drain loop stops waiting for their data once their segment died.
func runIngest(t *testing.T, dialAddr func(srv string, ingest string) string, onBin func(bin int), severed map[string]int) (*monitor.Store, map[string]*monitor.RobustPublisher) {
	t.Helper()
	store := monitor.NewStore(epoch, time.Minute)
	store.SetCollector(obs.NewCollector())
	ingest := monitor.NewIngestServer(store)
	addr, err := ingest.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ingest.Close() })

	bo := monitor.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 1}
	pubs := make(map[string]*monitor.RobustPublisher, len(servers))
	for _, srv := range servers {
		p, err := monitor.DialRobustPublisher(dialAddr(srv, addr.String()),
			monitor.PublisherConfig{Backoff: bo})
		if err != nil {
			t.Fatal(err)
		}
		pubs[srv] = p
		t.Cleanup(func() { p.Close() })
	}

	for bin := 0; bin < totalBins; bin++ {
		if onBin != nil {
			onBin(bin)
		}
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

	// Drain: keep driving the reconnect/replay loops until every feed
	// on a live segment has landed completely.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		complete := true
		for _, srv := range servers {
			if _, dead := severed[srv]; dead {
				continue
			}
			s, ok := store.Series(key(srv))
			if !ok || s.Len() < totalBins || s.HasGaps() {
				complete = false
				pubs[srv].Flush()
			}
		}
		if complete {
			return store, pubs
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, srv := range servers {
		if _, dead := severed[srv]; dead {
			continue
		}
		if s, ok := store.Series(key(srv)); !ok || s.Len() < totalBins || s.HasGaps() {
			t.Fatalf("%s: feed never completed despite reconnect/replay", srv)
		}
	}
	return store, pubs
}

// assess runs the FUNNEL pipeline over a completed store: a dark
// launch with srv-0/srv-1 treated and srv-2/srv-3 the concurrent
// control group, so DiD needs no days of history.
func assess(t *testing.T, store *monitor.Store) *funnel.Report {
	t.Helper()
	tp := topo.NewTopology()
	for _, srv := range servers {
		tp.Deploy("kv.cache", srv)
	}
	a, err := funnel.NewAssessor(store, tp, funnel.Config{
		ServerMetrics: []string{"mem.util"},
		WindowBins:    40,
		Obs:           obs.NewCollector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Assess(changelog.Change{
		ID: "chg-e2e", Type: changelog.Upgrade, Service: "kv.cache",
		Servers: []string{"srv-0", "srv-1"},
		At:      epoch.Add(changeBin * time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func verdicts(rep *funnel.Report) map[string]funnel.Verdict {
	out := map[string]funnel.Verdict{}
	for _, a := range rep.Assessments {
		out[a.Key.Entity] = a.Verdict
	}
	return out
}

func TestFaultE2E(t *testing.T) {
	// Baseline: the same workload over a clean network.
	cleanStore, _ := runIngest(t, func(_, ingest string) string { return ingest }, nil, nil)
	cleanV := verdicts(assess(t, cleanStore))
	for _, srv := range servers {
		want := funnel.NoChange
		if treated[srv] {
			want = funnel.ChangedBySoftware
		}
		if cleanV[srv] != want {
			t.Fatalf("clean run: %s = %v, want %v (baseline broken, fault comparison meaningless)",
				srv, cleanV[srv], want)
		}
	}

	t.Run("flap", func(t *testing.T) {
		// All publishers dial through one fault proxy: 1% of writes are
		// torn mid-frame (killing the connection), and the proxy severs
		// every live link at three scheduled bins. The reconnect +
		// replay machinery must deliver a store — and verdicts —
		// identical to the clean run.
		var proxy *faultnet.Proxy
		store, pubs := runIngest(t,
			func(srv, ingest string) string {
				if proxy == nil {
					var err error
					proxy, err = faultnet.NewProxy("127.0.0.1:0", ingest,
						faultnet.Plan{Seed: 99, PartialWriteProb: 0.01})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { proxy.Close() })
				}
				return proxy.Addr().String()
			},
			func(bin int) {
				switch bin {
				case 150, 250, 350:
					proxy.Sever()
				}
			}, nil)

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
			if p.Dropped() != 0 {
				t.Errorf("publisher dropped %d measurements (ring overflow) — loss should be zero here", p.Dropped())
			}
		}
		if reconnects == 0 {
			t.Fatal("no publisher reconnected despite injected resets")
		}

		// The stored series must be bitwise identical to the clean run:
		// no lost bins, no duplicated or garbled values.
		for _, srv := range servers {
			want, _ := cleanStore.Series(key(srv))
			got, ok := store.Series(key(srv))
			if !ok || got.Len() != want.Len() {
				t.Fatalf("%s: faulty series length %v, clean %d", srv, got, want.Len())
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("%s bin %d: faulty %v != clean %v", srv, i, got.Values[i], want.Values[i])
				}
			}
		}
		faultyV := verdicts(assess(t, store))
		for _, srv := range servers {
			if faultyV[srv] != cleanV[srv] {
				t.Errorf("%s: faulty verdict %v != clean verdict %v", srv, faultyV[srv], cleanV[srv])
			}
		}
	})

	t.Run("severed", func(t *testing.T) {
		// srv-1's publisher goes through its own proxy whose segment
		// dies for good 10 bins after the change: the agent keeps
		// publishing into its replay ring, but nothing reaches the
		// store again. The assessment must say Inconclusive with the
		// gap on record — not flag the (real!) shift on a feed that
		// stopped reporting.
		var proxy *faultnet.Proxy
		store, pubs := runIngest(t,
			func(srv, ingest string) string {
				if srv != "srv-1" {
					return ingest
				}
				p, err := faultnet.NewProxy("127.0.0.1:0", ingest, faultnet.Plan{Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				proxy = p
				return p.Addr().String()
			},
			func(bin int) {
				if bin == changeBin+10 {
					proxy.Close() // the network segment dies permanently
				}
			},
			map[string]int{"srv-1": changeBin + 10})

		if err := pubs["srv-1"].Err(); err == nil {
			t.Error("severed publisher reports no error")
		}
		rep := assess(t, store)
		got := verdicts(rep)
		if got["srv-1"] != funnel.Inconclusive {
			t.Fatalf("severed feed verdict = %v, want inconclusive — a dead feed must never false-flag", got["srv-1"])
		}
		if got["srv-0"] != funnel.ChangedBySoftware {
			t.Errorf("healthy treated feed = %v, want changed-by-software", got["srv-0"])
		}
		for _, a := range rep.Assessments {
			if a.Key.Entity == "srv-1" && a.GapFraction <= 0 {
				t.Error("inconclusive assessment carries no gap fraction")
			}
		}
		found := false
		for _, k := range rep.Trace.KPIs {
			if k.Verdict == "inconclusive" && k.GapFraction > 0 {
				found = true
			}
		}
		if !found {
			t.Error("report trace carries no inconclusive KPI with its gap fraction")
		}
	})
}

// TestFaultE2EAcceptFailures covers the remaining injected fault: the
// ingest accept loop must ride out transient accept errors without
// losing the publishers queued behind them.
func TestFaultE2EAcceptFailures(t *testing.T) {
	store := monitor.NewStore(epoch, time.Minute)
	ingest := monitor.NewIngestServer(store)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.NewInjector(faultnet.Plan{Seed: 3, AcceptFailEvery: 3})
	ingest.Serve(in.WrapListener(raw))
	defer ingest.Close()

	for i := 0; i < 9; i++ {
		pub, err := monitor.DialPublisher(raw.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		m := monitor.Measurement{Key: key("srv-0"), T: epoch.Add(time.Duration(i) * time.Minute), V: float64(i)}
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := store.Series(key("srv-0")); ok && s.Len() == 9 && !s.HasGaps() {
			if in.Stats().AcceptFails == 0 {
				t.Fatal("no accept failures injected — test is vacuous")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	s, _ := store.Series(key("srv-0"))
	t.Fatalf("ingest did not survive accept failures: got %v", s)
}

// TestFaultE2EParallelAssessIdentical pins the per-KPI fan-out to the
// serial path on real ingested data: assessing the clean-run store with
// one worker and with many must produce identical reports — same
// assessment order, verdicts, DiD estimates and change bin — and, with
// no collector, no trace.
func TestFaultE2EParallelAssessIdentical(t *testing.T) {
	store, _ := runIngest(t, func(_, ingest string) string { return ingest }, nil, nil)
	tp := topo.NewTopology()
	for _, srv := range servers {
		tp.Deploy("kv.cache", srv)
	}
	run := func(workers int) *funnel.Report {
		a, err := funnel.NewAssessor(store, tp, funnel.Config{
			ServerMetrics: []string{"mem.util"},
			WindowBins:    40,
			AssessWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Assess(changelog.Change{
			ID: "chg-e2e", Type: changelog.Upgrade, Service: "kv.cache",
			Servers: []string{"srv-0", "srv-1"},
			At:      epoch.Add(changeBin * time.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trace != nil {
			t.Fatalf("workers=%d: report carries a trace without a collector", workers)
		}
		return rep
	}
	want := run(1)
	for _, workers := range []int{0, 8} {
		if d := testrig.ReportDiff(run(workers), want, false); len(d) > 0 {
			t.Fatalf("workers=%d: parallel e2e report differs from serial: %s", workers, strings.Join(d, "; "))
		}
	}
	for _, srv := range servers {
		wantV := funnel.NoChange
		if treated[srv] {
			wantV = funnel.ChangedBySoftware
		}
		if got := verdicts(want)[srv]; got != wantV {
			t.Fatalf("%s = %v, want %v", srv, got, wantV)
		}
	}
}
