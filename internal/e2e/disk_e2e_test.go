package e2e

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/faultfs"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The disk-fault workload is deliberately small — the crash sweep
// replays it once per injected crash index, so its size multiplies
// into the sweep's runtime.
const (
	dTotalBins = 60
	dChangeBin = 40
	dWindow    = 10
)

// dValue is the deterministic measurement for (server, bin) in the
// disk workload: reusing value()'s generator but shifting treated
// servers at this workload's own change bin.
func dValue(srv string, bin int) float64 {
	v := value(srv, bin)
	if treated[srv] && bin >= dChangeBin {
		v += shift
	}
	return v
}

// runDiskWorkload appends the whole workload directly (no network —
// the disk is the component under test), compacting three times so the
// crash schedule also lands inside WAL rotations, segment and head
// writes, and the third compaction's merge, which deletes the second's
// segment. Persistence errors are ignored: a degraded or fail-stopped
// disk must never stop ingest.
func runDiskWorkload(st *monitor.Store) {
	for bin := 0; bin < dTotalBins; bin++ {
		for _, srv := range servers {
			st.Append(monitor.Measurement{Key: key(srv), T: epoch.Add(time.Duration(bin) * time.Minute), V: dValue(srv, bin)})
		}
		if bin%(dTotalBins/4) == 0 && bin > 0 {
			st.Compact() //nolint:errcheck
		}
	}
	st.Sync() //nolint:errcheck
}

// assessDisk runs the FUNNEL pipeline over the disk workload's store.
func assessDisk(t *testing.T, store *monitor.Store) *funnel.Report {
	t.Helper()
	tp := topo.NewTopology()
	for _, srv := range servers {
		tp.Deploy("kv.cache", srv)
	}
	a, err := funnel.NewAssessor(store, tp, funnel.Config{
		ServerMetrics: []string{"mem.util"},
		WindowBins:    dWindow,
		Obs:           obs.NewCollector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Assess(changelog.Change{
		ID: "chg-disk", Type: changelog.Upgrade, Service: "kv.cache",
		Servers: []string{"srv-0", "srv-1"},
		At:      epoch.Add(dChangeBin * time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkRecovered asserts the recovery contract on a store reopened
// after a crash: every recovered bin is either the exact value that
// was ingested or an explicit NaN gap — never a silently wrong number
// — and the assessment never false-flags a control server.
func checkRecovered(t *testing.T, st *monitor.Store, tag string) {
	t.Helper()
	for _, srv := range servers {
		s, ok := st.Series(key(srv))
		if !ok {
			continue // fully lost: clean degradation
		}
		if s.Len() > dTotalBins {
			t.Fatalf("%s: %s recovered %d bins, more than were written", tag, srv, s.Len())
		}
		for i, v := range s.Values {
			if !math.IsNaN(v) && v != dValue(srv, i) {
				t.Fatalf("%s: %s bin %d recovered as %v, want %v or NaN", tag, srv, i, v, dValue(srv, i))
			}
		}
	}
	rep := assessDisk(t, st)
	for srv, v := range verdicts(rep) {
		if !treated[srv] && v == funnel.ChangedBySoftware {
			t.Fatalf("%s: control server %s attributed to software after crash recovery", tag, srv)
		}
	}
}

// TestCrashScheduleSweepE2E kills the persistence layer at every
// mutating filesystem operation of the workload — Create, Write, Sync,
// Rename, Remove, including the ones inside the three compactions: each
// segment write and fsync, each head write, fsync and rename, and each
// segment and log deletion —
// across several fault seeds (the seed varies how much of the crashing
// write lands). Every resulting directory must recover to a store that
// is byte-identical to the pre-crash truth where data survived and
// explicitly degraded where it did not, and must never flag a control
// server. A crash at the final op must lose nothing.
func TestCrashScheduleSweepE2E(t *testing.T) {
	// Learn the op schedule from one clean instrumented run. A span of 8
	// seals chunks, so the segments hold some.
	sweep := noBG
	sweep.ChunkSpan = 8
	probe := faultfs.New(faultfs.Plan{Seed: 1}, nil)
	{
		opts := sweep
		opts.FS = probe
		st, err := monitor.OpenPersistent(t.TempDir(), epoch, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		runDiskWorkload(st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	totalOps := probe.Ops()
	if totalOps < 50 {
		t.Fatalf("workload only issued %d mutating ops; the sweep would be vacuous", totalOps)
	}

	stride := int64(1)
	if testing.Short() {
		stride = 17
	}
	seeds := []int64{1, 2, 3}

	for _, seed := range seeds {
		for c := int64(1); c <= totalOps; c += stride {
			dir := t.TempDir()
			ff := faultfs.New(faultfs.Plan{Seed: seed, CrashAtOp: c}, nil)
			opts := sweep
			opts.FS = ff
			st, err := monitor.OpenPersistent(dir, epoch, time.Minute, opts)
			if err == nil {
				// The "process" runs until the crash op, then keeps
				// serving from memory with persistence fail-stopped;
				// dropping it without a clean Close is the kill.
				runDiskWorkload(st)
				st.Close() //nolint:errcheck
			}
			// else: died during startup; the directory still must recover.

			re, err := monitor.OpenPersistent(dir, epoch, time.Minute, noBG)
			if err != nil {
				t.Fatalf("seed %d crash@%d: recovery failed: %v", seed, c, err)
			}
			checkRecovered(t, re, tagFor(seed, c))
			if c == totalOps {
				// Crash on the very last op: everything before it was
				// durable, so recovery must be complete.
				for _, srv := range servers {
					s, ok := re.Series(key(srv))
					if !ok || s.Len() != dTotalBins || s.HasGaps() {
						t.Fatalf("seed %d crash@final-op: %s lost data", seed, srv)
					}
				}
			}
			if err := re.Close(); err != nil {
				t.Fatalf("seed %d crash@%d: close after recovery: %v", seed, c, err)
			}
		}
	}
}

func tagFor(seed, c int64) string {
	return fmt.Sprintf("seed %d crash@op %d", seed, c)
}

// TestENOSPCSelfHealingE2E runs the full degraded→re-armed lifecycle
// against the telemetry surface: the disk fills mid-ingest, the store
// degrades but keeps serving, the episode clears, the persister
// re-arms itself, and a subsequent kill loses nothing — with every
// transition observable through /metrics.
func TestENOSPCSelfHealingE2E(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.New(faultfs.Plan{Seed: 7}, nil)
	opts := noBG
	opts.FS = ff
	opts.RearmBackoff = monitor.Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1}
	st, err := monitor.OpenPersistent(dir, epoch, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	st.SetCollector(col)
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	appendBin := func(bin int) {
		for _, s := range servers {
			st.Append(monitor.Measurement{Key: key(s), T: epoch.Add(time.Duration(bin) * time.Minute), V: dValue(s, bin)})
		}
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics?format=prom")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	for bin := 0; bin < 20; bin++ {
		appendBin(bin)
	}
	if !strings.Contains(scrape(), "monitor_persist_state 0") {
		t.Fatal("/metrics does not report a healthy persist_state")
	}

	// The disk fills. Ingest continues; durability degrades.
	ff.SetENOSPC(true)
	for bin := 20; bin < 30; bin++ {
		appendBin(bin)
	}
	if st.PersistState() != monitor.PersistDegraded {
		t.Fatalf("persist state %v during ENOSPC, want degraded", st.PersistState())
	}
	if !strings.Contains(scrape(), "monitor_persist_state 1") {
		t.Fatal("/metrics does not report the degraded persist_state")
	}

	// Space returns; the re-arm loop heals durability on its own.
	ff.SetENOSPC(false)
	deadline := time.Now().Add(5 * time.Second)
	for st.PersistState() != monitor.PersistHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("persister never re-armed; state %v", st.PersistState())
		}
		time.Sleep(time.Millisecond)
	}
	// The state flips healthy under the shard locks, a beat before the
	// re-arm counter lands (it counts only a fully installed snapshot
	// pipeline), so give the scrape the same deadline.
	for {
		prom := scrape()
		if strings.Contains(prom, "monitor_persist_state 0") &&
			strings.Contains(prom, "monitor_wal_rearms_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed healed state + re-arm:\n%s", prom)
		}
		time.Sleep(time.Millisecond)
	}

	// Post-heal ingest, then a kill: everything — the clean prefix, the
	// bins ingested while degraded (captured by the re-arm snapshot),
	// and the post-heal bins — must recover.
	for bin := 30; bin < dTotalBins; bin++ {
		appendBin(bin)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync after re-arm: %v", err)
	}
	// Kill: drop st without Close.

	re, err := monitor.OpenPersistent(dir, epoch, time.Minute, noBG)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, s := range servers {
		series, ok := re.Series(key(s))
		if !ok || series.Len() != dTotalBins || series.HasGaps() {
			t.Fatalf("%s: data lost across degrade/re-arm/kill (len=%d)", s, series.Len())
		}
		for i, v := range series.Values {
			if v != dValue(s, i) {
				t.Fatalf("%s bin %d = %v, want %v", s, i, v, dValue(s, i))
			}
		}
	}
	rep := assessDisk(t, re)
	vd := verdicts(rep)
	for s, v := range vd {
		if !treated[s] && v == funnel.ChangedBySoftware {
			t.Fatalf("control server %s false-flagged", s)
		}
	}
	if vd["srv-0"] != funnel.ChangedBySoftware || vd["srv-1"] != funnel.ChangedBySoftware {
		t.Fatalf("treated servers not flagged after full recovery: %v", vd)
	}
}
