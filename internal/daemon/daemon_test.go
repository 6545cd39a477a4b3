package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/testrig"
	"repro/internal/topo"
)

const changeMin = 2*1440 + 240

// startDaemon launches a daemon with all endpoints on loopback.
func startDaemon(t *testing.T) (*Daemon, time.Time) {
	t.Helper()
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := monitor.NewStore(start, time.Minute)
	d, err := Start(Config{
		Store: store,
		Pipeline: funnel.Config{
			ServerMetrics: []string{"mem.util"},
			HistoryDays:   2,
		},
		IngestAddr:    "127.0.0.1:0",
		SubscribeAddr: "127.0.0.1:0",
		AdminAddr:     "127.0.0.1:0",
		DebugAddr:     "127.0.0.1:0",
		// Fast self-scrape so the debug-surface test sees history samples.
		HistoryStep:      50 * time.Millisecond,
		HistoryRetention: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, start
}

// publishScenario streams a 3-server service with a leak on srv-0
// through the network ingest path.
func publishScenario(t *testing.T, addr net.Addr, start time.Time, total int) {
	t.Helper()
	pub, err := monitor.DialPublisher(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	rng := rand.New(rand.NewSource(500))
	for bin := 0; bin < total; bin++ {
		ts := start.Add(time.Duration(bin) * time.Minute)
		for i := 0; i < 3; i++ {
			v := 58 + 0.6*rng.NormFloat64()
			if i == 0 && bin >= changeMin {
				v += 9
			}
			m := monitor.Measurement{
				Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("d-%d", i), Metric: "mem.util"},
				T:   ts, V: v,
			}
			if err := pub.Publish(m); err != nil {
				t.Fatal(err)
			}
		}
		if bin%1440 == 0 {
			if err := pub.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	d, start := startDaemon(t)
	defer d.Close()

	// The control servers exist in the topology (agents for them
	// publish too, but topology placement comes from deployment data).
	if err := d.DeployService("kv.cache", "d-0", "d-1", "d-2"); err != nil {
		t.Fatal(err)
	}

	// Register the change over the admin endpoint.
	admin, err := net.Dial("tcp", d.AdminAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	at := start.Add(changeMin * time.Minute).Format(time.RFC3339)
	fmt.Fprintf(admin, `{"id":"d-chg","type":"config","service":"kv.cache","servers":["d-0"],"at":"%s"}`+"\n", at)
	resp, err := bufio.NewReader(admin).ReadString('\n')
	if err != nil || strings.TrimSpace(resp) != "ok" {
		t.Fatalf("admin response %q err %v", resp, err)
	}

	publishScenario(t, d.IngestAddr(), start, changeMin+200)

	select {
	case rep := <-d.Reports():
		flagged := rep.Flagged()
		if len(flagged) != 1 || flagged[0].Key.Entity != "d-0" {
			t.Fatalf("flagged = %+v", flagged)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no report from the daemon")
	}
	// Started with no engine setting, the daemon streams.
	col := d.Collector()
	if col.Counter(obs.CtrStreamAdvances) == 0 {
		t.Fatal("daemon never advanced a score state")
	}

	// The connection gauge counts admin connections too: the admin
	// session above plus one publisher read 2, and Close takes both
	// down.
	pub, err := monitor.DialPublisher(d.IngestAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for col.Counter(obs.CtrConnsActive) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d with one admin and one ingest connection open, want 2", obs.CtrConnsActive, col.Counter(obs.CtrConnsActive))
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Close()
	if got := col.Counter(obs.CtrConnsActive); got != 0 {
		t.Fatalf("%s = %d after Close, want 0", obs.CtrConnsActive, got)
	}
}

// TestDaemonCloseWithOpenAdmin: an operator session left open must not
// hold shutdown hostage until its idle timeout.
func TestDaemonCloseWithOpenAdmin(t *testing.T) {
	d, _ := startDaemon(t)
	admin, err := net.Dial("tcp", d.AdminAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	// One round trip, so the session's handler is live before Close.
	fmt.Fprintln(admin, `{}`)
	if resp, err := bufio.NewReader(admin).ReadString('\n'); !strings.HasPrefix(resp, "error: ") {
		t.Fatalf("admin response %q err %v", resp, err)
	}
	done := make(chan struct{})
	go func() {
		d.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked on an open admin connection after 2s")
	}
}

// TestDaemonCloseEndsIngest: Close disconnects live publishers and joins
// their handlers, so nothing they send afterwards reaches the store and
// no handler goroutine outlives the daemon.
func TestDaemonCloseEndsIngest(t *testing.T) {
	base := runtime.NumGoroutine()
	d, start := startDaemon(t)
	col := d.Collector()
	pub, err := monitor.DialPublisher(d.IngestAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	key := topo.KPIKey{Scope: topo.ScopeServer, Entity: "d-0", Metric: "mem.util"}
	send := func(bin int) {
		t.Helper()
		if err := pub.Publish(monitor.Measurement{Key: key, T: start.Add(time.Duration(bin) * time.Minute), V: 1}); err != nil {
			t.Fatal(err)
		}
		pub.Flush()
	}
	send(0)
	waitForBins(t, d.store, 1)

	d.Close()
	if got := col.Counter(obs.CtrConnsActive); got != 0 {
		t.Fatalf("%s = %d after Close, want 0", obs.CtrConnsActive, got)
	}
	send(1)
	time.Sleep(100 * time.Millisecond)
	if n, _ := d.store.SeriesLen(key); n != 1 {
		t.Fatalf("series holds %d bins after a post-Close publish, want 1", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Start", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDaemonAdminErrors(t *testing.T) {
	d, _ := startDaemon(t)
	defer d.Close()
	admin, err := net.Dial("tcp", d.AdminAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	r := bufio.NewReader(admin)

	// One good registration first, so the duplicate case below has
	// something to collide with.
	good := `{"id":"dup","type":"upgrade","service":"svc","servers":["s1"],"at":"2015-12-01T04:00:00Z"}`
	fmt.Fprintln(admin, good)
	if resp, _ := r.ReadString('\n'); strings.TrimSpace(resp) != "ok" {
		t.Fatalf("valid registration got %q", resp)
	}

	cases := []struct {
		name, line, wantSub string
	}{
		{"broken json", `{broken json`, "invalid character"},
		{"wrong field type", `{"id":42,"service":"svc","servers":["s1"],"at":"2015-12-01T04:00:00Z"}`, "cannot unmarshal"},
		{"empty registration", `{"id":"","service":"","servers":[]}`, "needs id, service and servers"},
		{"unknown change type", `{"id":"t1","type":"rollback","service":"svc","servers":["s1"],"at":"2015-12-01T04:00:00Z"}`, `unknown change type "rollback"`},
		{"missing at", `{"id":"t2","type":"upgrade","service":"svc","servers":["s1"]}`, "needs a change time"},
		{"duplicate change id", good, `"dup" already registered`},
	}
	for _, tc := range cases {
		fmt.Fprintln(admin, tc.line)
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		if !strings.HasPrefix(resp, "error: ") {
			t.Errorf("%s: got %q, want error-prefixed line", tc.name, resp)
		}
		if !strings.Contains(resp, tc.wantSub) {
			t.Errorf("%s: got %q, want substring %q", tc.name, resp, tc.wantSub)
		}
	}

	col := d.Collector()
	if got := col.Counter(obs.CtrAdminErrors); got != int64(len(cases)) {
		t.Errorf("%s = %d, want %d", obs.CtrAdminErrors, got, len(cases))
	}
	if got := col.Counter(obs.CtrRegistrations); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrRegistrations, got)
	}
}

// TestDaemonDebugSurface drives the full deployed loop — register over
// the admin endpoint, publish the scenario over ingest, receive the
// report — then reads the telemetry HTTP surface back: /metrics must
// show nonzero pipeline stage counters and /traces/<change-id> must
// hold the per-KPI stage trace with the DiD verdict.
func TestDaemonDebugSurface(t *testing.T) {
	wall0 := time.Now()
	d, start := startDaemon(t)
	defer d.Close()
	if err := d.DeployService("kv.cache", "d-0", "d-1", "d-2"); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(RegisterRequest{
		ID: "d-chg", Type: "config", Service: "kv.cache",
		Servers: []string{"d-0"}, At: start.Add(changeMin * time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	publishScenario(t, d.IngestAddr(), start, changeMin+200)
	select {
	case rep := <-d.Reports():
		if len(rep.Flagged()) != 1 {
			t.Fatalf("flagged = %+v", rep.Flagged())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no report from the daemon")
	}

	base := "http://" + d.DebugAddr().String()

	// /metrics: expvar JSON with counters and stage histograms.
	var metrics map[string]any
	getJSON(t, base+"/metrics", &metrics)
	if v, _ := metrics[obs.CtrChangesAssessed].(float64); v < 1 {
		t.Errorf("%s = %v, want >= 1", obs.CtrChangesAssessed, metrics[obs.CtrChangesAssessed])
	}
	if v, _ := metrics[obs.CtrIngested].(float64); v == 0 {
		t.Errorf("%s missing from /metrics", obs.CtrIngested)
	}
	for _, stage := range []string{obs.StageImpactSet, obs.StageSSTWindow, obs.StageSSTScore, obs.StagePersist, obs.StageAssess, obs.StageBinToVerdict} {
		h, ok := metrics["stage."+stage].(map[string]any)
		if !ok {
			t.Errorf("stage.%s missing from /metrics", stage)
			continue
		}
		if cnt, _ := h["count"].(float64); cnt < 1 {
			t.Errorf("stage.%s count = %v, want >= 1", stage, h["count"])
		}
	}

	// /traces/<change-id>: the per-assessment trace.
	var trace struct {
		ChangeID string `json:"change_id"`
		TotalNS  int64  `json:"total_ns"`
		B2VNS    int64  `json:"bin_to_verdict_ns"`
		KPIs     []struct {
			Key     string `json:"key"`
			Verdict string `json:"verdict"`
			Alpha   float64
			B2VNS   int64 `json:"bin_to_verdict_ns"`
			Stages  []struct {
				Stage string `json:"stage"`
				NS    int64  `json:"ns"`
			} `json:"stages"`
		} `json:"kpis"`
	}
	getJSON(t, base+"/traces/d-chg", &trace)
	if trace.ChangeID != "d-chg" || trace.TotalNS <= 0 || len(trace.KPIs) == 0 {
		t.Fatalf("trace = %+v", trace)
	}
	flagged := 0
	for _, k := range trace.KPIs {
		if len(k.Stages) == 0 {
			t.Errorf("KPI %s trace has no stage timings", k.Key)
		}
		for _, s := range k.Stages {
			if s.NS < 0 {
				t.Errorf("KPI %s stage %s has negative duration", k.Key, s.Stage)
			}
		}
		if k.Verdict == "changed-by-software" {
			flagged++
			if k.Alpha == 0 {
				t.Errorf("flagged KPI %s has zero alpha in trace", k.Key)
			}
		}
	}
	if flagged != 1 {
		t.Errorf("trace flagged KPIs = %d, want 1", flagged)
	}

	// Bin-to-verdict latency: populated and monotone-sane. The verdict
	// emitted after the last bin arrived, so the recorded latency is
	// positive and bounded by the test's own wall-clock elapsed time.
	wall := time.Since(wall0)
	if trace.B2VNS <= 0 || trace.B2VNS > int64(wall) {
		t.Errorf("trace bin_to_verdict_ns = %d, want in (0, %d]", trace.B2VNS, int64(wall))
	}
	b2vKPIs := 0
	for _, k := range trace.KPIs {
		if k.B2VNS < 0 {
			t.Errorf("KPI %s has negative bin-to-verdict latency", k.Key)
		}
		if k.B2VNS > trace.B2VNS {
			t.Errorf("KPI %s b2v %d exceeds the trace-level worst case %d", k.Key, k.B2VNS, trace.B2VNS)
		}
		if k.B2VNS > 0 {
			b2vKPIs++
		}
	}
	if b2vKPIs == 0 {
		t.Error("no KPI carries a bin-to-verdict latency")
	}

	// /metrics?format=prom: the Prometheus text exposition.
	resp2, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?format=prom status = %d", resp2.StatusCode)
	}
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE funnel_monitor_ingested_total counter",
		"# TYPE funnel_stage_duration_seconds histogram",
		`stage="bin_to_verdict"`,
		`le="+Inf"`,
	} {
		if !strings.Contains(string(promBody), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// /metrics/history: the self-scrape ring has samples covering the
	// run, with ingest counter series and per-second rates. The ring
	// ticks every 50ms (startDaemon), so wait out at least one tick.
	var hist obs.HistoryDump
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, base+"/metrics/history", &hist)
		if len(hist.Times) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history has %d samples, want >= 2", len(hist.Times))
		}
		time.Sleep(20 * time.Millisecond)
	}
	ing := hist.Series[obs.CtrIngested]
	if len(ing) != len(hist.Times) || ing[len(ing)-1] == 0 {
		t.Errorf("history ingest series = %v", ing)
	}
	if _, ok := hist.Rates[obs.CtrIngested]; !ok {
		t.Error("history has no rate series for the ingest counter")
	}

	// Unknown change IDs 404.
	resp, err := http.Get(base + "/traces/no-such-change")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestDaemonRejectsNilStore(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("nil store should be rejected")
	}
}

func TestDaemonCloseIdempotent(t *testing.T) {
	d, _ := startDaemon(t)
	d.Close()
	d.Close()
	if err := d.DeployService("x", "y"); err == nil {
		t.Fatal("deploy after close should fail")
	}
}

// The durability story end to end: a daemon accumulates history, is
// compacted and torn down; a replacement daemon restores the store,
// receives only the post-restart data, and still has enough baseline to
// assess a change registered after the restart.
func TestDaemonRestartFromSnapshot(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	firstStore, err := monitor.OpenPersistent(dir, start, time.Minute, monitor.PersistOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	pipeline := funnel.Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2}

	d1, err := Start(Config{Store: firstStore, Pipeline: pipeline, IngestAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	// Two days of history arrive before the "crash".
	historyBins := 2 * 1440
	feed := func(addr net.Addr, fromBin, toBin int, seedBase int64) {
		pub, err := monitor.DialPublisher(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		for bin := fromBin; bin < toBin; bin++ {
			ts := start.Add(time.Duration(bin) * time.Minute)
			for i := 0; i < 3; i++ {
				rng := rand.New(rand.NewSource(seedBase + int64(bin*3+i)))
				v := 58 + 0.6*rng.NormFloat64()
				if i == 0 && bin >= changeMin {
					v += 9
				}
				if err := pub.Publish(monitor.Measurement{
					Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("d-%d", i), Metric: "mem.util"},
					T:   ts, V: v,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	feed(d1.IngestAddr(), 0, historyBins, 42)
	waitForBins(t, firstStore, historyBins)

	// Compact and tear down: the directory then holds the head and its
	// segment, and an empty log.
	if err := firstStore.Compact(); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	if err := firstStore.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on a store opened from that directory.
	restored, err := monitor.OpenPersistent(dir, start, time.Minute, monitor.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	d2, err := Start(Config{Store: restored, Pipeline: pipeline, IngestAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.DeployService("kv.cache", "d-0", "d-1", "d-2"); err != nil {
		t.Fatal(err)
	}
	if err := d2.Register(RegisterRequest{
		ID: "post-restart", Type: "config", Service: "kv.cache",
		Servers: []string{"d-0"}, At: start.Add(changeMin * time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	feed(d2.IngestAddr(), historyBins, changeMin+200, 42)

	select {
	case rep := <-d2.Reports():
		flagged := rep.Flagged()
		if len(flagged) != 1 || flagged[0].Key.Entity != "d-0" {
			t.Fatalf("flagged after restart = %+v", flagged)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no report after restart")
	}
}

// waitForBins blocks until the store has at least n bins for the probe
// key.
func waitForBins(t *testing.T, store *monitor.Store, n int) {
	t.Helper()
	key := topo.KPIKey{Scope: topo.ScopeServer, Entity: "d-0", Metric: "mem.util"}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := store.Series(key); ok && s.Len() >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("store never caught up")
}

// TestDaemonStreamMode drives the end-to-end scenario through the
// daemon's streaming assessor: network ingest feeds the bin feed, the
// streamer advances scores per bin, and the report equals what batch
// Assess makes of the same store, field by field (traces excepted).
func TestDaemonStreamMode(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := monitor.NewStore(start, time.Minute)
	pipeline := funnel.Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2}
	col := obs.NewCollector()
	d, err := Start(Config{
		Store:      store,
		Pipeline:   pipeline,
		IngestAddr: "127.0.0.1:0",
		AdminAddr:  "127.0.0.1:0",
		Obs:        col,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	servers := []string{"d-0", "d-1", "d-2"}
	if err := d.DeployService("kv.cache", servers...); err != nil {
		t.Fatal(err)
	}
	req := RegisterRequest{
		ID: "d-stream", Type: "config", Service: "kv.cache",
		Servers: servers[:1], At: start.Add(changeMin * time.Minute),
	}
	if err := d.Register(req); err != nil {
		t.Fatal(err)
	}
	publishScenario(t, d.IngestAddr(), start, changeMin+200)

	var got *funnel.Report
	select {
	case got = <-d.Reports():
	case <-time.After(60 * time.Second):
		t.Fatal("no report from the daemon")
	}
	flagged := got.Flagged()
	if len(flagged) != 1 || flagged[0].Key.Entity != "d-0" {
		t.Fatalf("flagged = %+v", flagged)
	}
	if col.Counter(obs.CtrStreamAdvances) == 0 {
		t.Fatal("daemon never advanced a score state")
	}
	if col.Counter(obs.CtrStreamCacheHits) == 0 {
		t.Fatal("report was not served from the score cache")
	}

	tp := topo.NewTopology()
	for _, srv := range servers {
		tp.Deploy("kv.cache", srv)
	}
	batch, err := funnel.NewAssessor(store, tp, pipeline)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Assess(got.Change)
	if err != nil {
		t.Fatal(err)
	}
	if d := testrig.ReportDiff(got, want, false); len(d) > 0 {
		t.Errorf("daemon report differs from batch: %s", strings.Join(d, "; "))
	}
}

// A daemon started on a recovered store exports what the recovery
// replayed and how long the store was blind for.
func TestDaemonExportsRecoveryCost(t *testing.T) {
	dir := t.TempDir()
	epoch := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	opts := monitor.PersistOptions{SyncInterval: -1, CompactBytes: -1}
	st, err := monitor.OpenPersistent(dir, epoch, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := topo.KPIKey{Scope: topo.ScopeServer, Entity: "d-0", Metric: "mem.util"}
	for bin := 0; bin < 50; bin++ {
		st.Append(monitor.Measurement{Key: key, T: epoch.Add(time.Duration(bin) * time.Minute), V: float64(bin)})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	st, err = monitor.OpenPersistent(dir, time.Time{}, 0, opts)
	wall := time.Since(began)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The three phases partition the open: each took time, and together
	// no more than the open did.
	rec := st.Recovered()
	if rec.WALRecords != 50 || rec.Generations != 1 || rec.LogBytes <= 0 ||
		rec.SnapshotTime <= 0 || rec.ReplayTime <= 0 || rec.AttachTime <= 0 || rec.Total() > wall {
		t.Fatalf("recovery stats %+v, open took %v", rec, wall)
	}
	col := obs.NewCollector()
	d, err := Start(Config{Store: st, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := col.Counter(obs.CtrWALReplayed); got != 50 {
		t.Fatalf("%s = %d, want 50", obs.CtrWALReplayed, got)
	}
	if got, want := col.Counter(obs.CtrRecoveryMillis), rec.Total().Milliseconds(); got != want {
		t.Fatalf("%s = %d, want %d", obs.CtrRecoveryMillis, got, want)
	}
	if got := col.Counter(obs.CtrRecoveryGenerations); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrRecoveryGenerations, got)
	}
	if got := col.Counter(obs.CtrRecoveryLogBytes); got != rec.LogBytes {
		t.Fatalf("%s = %d, want %d", obs.CtrRecoveryLogBytes, got, rec.LogBytes)
	}
}
