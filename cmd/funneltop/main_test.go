package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fixtureServer runs a real collector behind its debug handler, with a
// populated history ring and one stored trace — funneltop's poll path
// exercised against the same surface funnelserve serves.
func fixtureServer(t *testing.T) *httptest.Server {
	t.Helper()
	c := obs.NewCollector()
	c.Add(obs.CtrIngested, 5000)
	c.Add(obs.CtrConnsActive, 2)
	c.Add(obs.CtrBatchFrames, 12)
	c.Add(obs.CtrIngestKeyResolves, 88)
	c.Add(obs.CtrIngestKeyLookups, 7)
	c.SetGaugeFunc("monitor.wal_bytes", func() int64 { return 3 << 20 })
	c.SetGaugeFunc(obs.GaugeWALRotations, func() int64 { return 5 })
	c.SetGaugeFunc(obs.LabeledName("monitor.shard_series", "shard", "0"), func() int64 { return 40 })
	c.SetGaugeFunc(obs.LabeledName("monitor.shard_series", "shard", "1"), func() int64 { return 44 })
	c.SetGaugeFunc("monitor.store_chunks", func() int64 { return 672 })
	c.SetGaugeFunc("monitor.store_compressed_bytes", func() int64 { return 1 << 20 })
	c.SetGaugeFunc("monitor.store_raw_bytes", func() int64 { return 4 << 20 })
	c.Observe(obs.StageAssess, 3*time.Millisecond)
	c.Observe(obs.StageBinToVerdict, 42*time.Second)
	c.Add(obs.CtrStreamAdvances, 4821)
	c.Add(obs.CtrStreamCacheHits, 97)
	c.Add(obs.CtrStreamCacheMisses, 3)
	c.Add(obs.CtrStreamInvalidations, 2)
	c.Add(obs.CtrStreamTailReads, 4809)
	c.Add(obs.CtrStreamFullReads, 12)
	c.Add(obs.CtrWindowsBounded, 1060)
	c.Add(obs.CtrWindowsSolved, 150)
	c.Add(obs.CtrHistoryFetches, 4)
	c.SetGaugeFunc(obs.GaugeStreamQueue, func() int64 { return 3 })
	c.SetGaugeFunc(obs.GaugeStreamTracked, func() int64 { return 12 })
	c.SetGaugeFunc(obs.GaugeStreamPending, func() int64 { return 1 })
	// Hour-long step: the synchronous first scrape fills the ring and
	// the ticker stays quiet for the test's lifetime.
	c.StartHistory(time.Hour, 2*time.Hour)
	t.Cleanup(c.StopHistory)

	tr := &obs.Trace{
		ChangeID: "chg-9", Service: "kv.cache", Nanos: 1_500_000,
		BinToVerdictNanos: 42_000_000_000,
	}
	tr.Add(&obs.KPITrace{Key: "server/s-0/mem.util", Verdict: "changed-by-software",
		BinToVerdictNanos: 42_000_000_000})
	tr.Add(&obs.KPITrace{Key: "server/s-1/mem.util", Verdict: "no-change"})
	c.PutTrace(tr)

	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestPollAndRender drives the full dashboard path: poll the debug
// surface, render a frame, and check every panel shows up with the
// fixture's numbers.
func TestPollAndRender(t *testing.T) {
	srv := fixtureServer(t)
	snap, err := poll(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.hist.Times) == 0 {
		t.Fatal("poll returned an empty history ring")
	}
	if len(snap.traces) != 1 || snap.traces[0].ChangeID != "chg-9" {
		t.Fatalf("traces = %+v", snap.traces)
	}

	var buf bytes.Buffer
	render(&buf, "127.0.0.1:7104", snap)
	out := buf.String()
	for _, want := range []string{
		"funneltop — 127.0.0.1:7104",
		"total 5000",      // ingest lifetime counter
		"key resolves 88", // handle-table lookups on the ingest line
		"2 stripes",       // shard panel found both gauges
		"min 40 max 44",   // per-shard spread
		"(balanced)",      //
		"1.0MiB resident", // compressed-store panel
		"chunks 672",      //
		"ratio 4.0×",      //
		"bin_to_verdict",  // stage panel includes the new stage
		"tracked 12",      // streaming panel: score-state population
		"advances 4821",   //
		"cache-hit 97%",   //
		"b2v p99",         // freshness-SLO sparkline line
		"verdicts 1",      //
		"windows 1210",    // scoring line: sweep positions
		"bounded 1060 (88%)",
		"solved 150",
		"reads tail 4809 full 12",
		"history fetches 4",
		"key resolves 88 lookups 7",
		"wal      3.0MiB on disk",
		"rotations 5",
		"chg-9",           // recent-verdicts panel
		" 1/ 2 flagged",   // one flagged KPI of two
		"b2v 42s",         // end-to-end latency rendered
		"recent verdicts", //
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

// TestRenderEmpty pins the no-data frame: a daemon that just started
// (empty ring, no traces) must render, not crash.
func TestRenderEmpty(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, "x", &snapshot{})
	if !strings.Contains(buf.String(), "none yet") {
		t.Fatalf("empty frame = %q", buf.String())
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 1, 2, 4, 8}, 5); got != "▁▁▂▄█" {
		t.Errorf("sparkline = %q", got)
	}
	// Short series left-pad to the window width.
	if got := sparkline([]float64{1}, 3); got != "··█" {
		t.Errorf("padded sparkline = %q", got)
	}
	// Flat-zero and empty series render at the floor.
	if got := sparkline(nil, 2); got != "··" {
		t.Errorf("empty sparkline = %q", got)
	}
	if got := sparkline([]float64{0, 0}, 2); got != "▁▁" {
		t.Errorf("flat sparkline = %q", got)
	}
}

func TestShardIndex(t *testing.T) {
	if idx, ok := shardIndex(`monitor.shard_series{shard="7"}`, "monitor.shard_series"); !ok || idx != 7 {
		t.Errorf("shardIndex = %d, %v", idx, ok)
	}
	for _, bad := range []string{
		"monitor.shard_series",                      // no labels
		`monitor.shard_series{shard="x"}`,           // non-numeric
		`monitor.shard_rotations{shard="1"}`,        // different base
		`monitor.shard_series{shard="1",extra="y"}`, // trailing labels
	} {
		if _, ok := shardIndex(bad, "monitor.shard_series"); ok {
			t.Errorf("shardIndex accepted %q", bad)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0B"}, {512, "512B"}, {2048, "2.0KiB"},
		{3 << 20, "3.0MiB"}, {5 << 30, "5.0GiB"},
	} {
		if got := formatBytes(tc.in); got != tc.want {
			t.Errorf("formatBytes(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBalanceNote(t *testing.T) {
	if got := balanceNote(10, 12); got != "(balanced)" {
		t.Errorf("balanceNote(10,12) = %q", got)
	}
	if got := balanceNote(1, 100); got != "(skewed)" {
		t.Errorf("balanceNote(1,100) = %q", got)
	}
}

func TestStreamPanel(t *testing.T) {
	// A pull-mode daemon exposes no streamer telemetry: no panel.
	if lines := streamPanel(&obs.HistoryDump{Series: map[string][]float64{}}); lines != nil {
		t.Fatalf("pull-mode daemon rendered a stream panel: %q", lines)
	}

	// An attached-but-idle streamer (queue gauge registered, nothing
	// advanced yet) still surfaces, so the operator sees it is wired up.
	h := &obs.HistoryDump{Series: map[string][]float64{
		obs.GaugeStreamQueue: {0},
	}}
	lines := streamPanel(h)
	if len(lines) != 1 || !strings.Contains(lines[0], "cache-hit n/a") {
		t.Fatalf("idle streamer panel = %q", lines)
	}

	// Sheds are an incident, not a statistic: they render in caps.
	h.Series[obs.CtrStreamSheds] = []float64{7}
	h.Series[obs.CtrStreamCacheHits] = []float64{3}
	h.Series[obs.CtrStreamCacheMisses] = []float64{1}
	lines = streamPanel(h)
	if len(lines) != 1 || !strings.Contains(lines[0], "SHEDS 7") || !strings.Contains(lines[0], "cache-hit 75%") {
		t.Fatalf("shedding streamer panel = %q", lines)
	}
}

func TestDiskHealthLine(t *testing.T) {
	// No persistence telemetry at all: the panel stays hidden.
	if line := diskHealthLine(&obs.HistoryDump{Series: map[string][]float64{}}); line != "" {
		t.Fatalf("in-memory store rendered a disk panel: %q", line)
	}

	h := &obs.HistoryDump{Series: map[string][]float64{
		"monitor.persist_state": {0},
	}}
	if line := diskHealthLine(h); line != "HEALTHY" {
		t.Fatalf("healthy line = %q", line)
	}

	h.Series[obs.CtrRecoveryMillis] = []float64{187}
	if line := diskHealthLine(h); line != "HEALTHY  recovery took 187 ms" {
		t.Fatalf("recovered line = %q", line)
	}

	h.Series[obs.CtrRecoveryGenerations] = []float64{3}
	h.Series[obs.CtrRecoveryLogBytes] = []float64{3 << 20}
	if line := diskHealthLine(h); line != "HEALTHY  recovery took 187 ms  replayed 3.0MiB of log in 3 generations" {
		t.Fatalf("recovered line = %q", line)
	}

	h.Series["monitor.persist_state"] = []float64{1}
	h.Series["monitor.disk_errors"] = []float64{3}
	h.Series["monitor.wal_rearms"] = []float64{0}
	line := diskHealthLine(h)
	if !strings.Contains(line, "DEGRADED") || !strings.Contains(line, "errors 3") {
		t.Fatalf("degraded line = %q", line)
	}

	h.Series["monitor.persist_state"] = []float64{2}
	h.Series["monitor.quarantined_chunks"] = []float64{2}
	h.Series["monitor.degraded_reads"] = []float64{17}
	line = diskHealthLine(h)
	if !strings.Contains(line, "FAILED") || !strings.Contains(line, "QUARANTINED CHUNKS 2") ||
		!strings.Contains(line, "degraded reads 17") {
		t.Fatalf("failed+quarantine line = %q", line)
	}

	// Quarantines alone (in-memory store restored from a damaged
	// snapshot) surface the panel too.
	q := &obs.HistoryDump{Series: map[string][]float64{
		"monitor.quarantined_chunks": {1},
	}}
	if line := diskHealthLine(q); !strings.Contains(line, "QUARANTINED CHUNKS 1") {
		t.Fatalf("quarantine-only line = %q", line)
	}
}
