package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/changelog"
	"repro/internal/chunk"
	"repro/internal/detect"
	"repro/internal/did"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sst"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// perLayer lists every per-layer metric a traced run prints, in print
// order, with its unit. Layer names are the repository's packages. A
// metric a workload has nothing to say about is printed as 0 with n=0:
// on the workload that bypasses a layer, that zero is the measurement.
var perLayer = []struct{ name, unit string }{
	{"monitor.wire.encode_ns_per_meas", "ns"},
	{"monitor.wire.decode_ns_per_meas", "ns"},
	{"monitor.wire.bytes_per_meas", "B"},
	{"monitor.store.append_ns_per_meas", "ns"},
	{"monitor.store.chunks_sealed", "count"},
	{"monitor.store.range_ns_per_call", "ns"},
	{"monitor.store.range_bins_per_call", "count"},
	{"monitor.wal.append_ns_per_meas", "ns"},
	{"monitor.wal.bytes_per_meas", "B"},
	{"monitor.wal.sync_ms", "ms"},
	{"monitor.wal.compact_ms", "ms"},
	{"monitor.wal.compactions", "count"},
	{"monitor.wal.appends", "count"},
	{"monitor.wal.reopen_empty_ms", "ms"},
	{"monitor.wal.replay_ns_per_record", "ns"},
	{"monitor.snapshot.read_ns_per_meas", "ns"},
	{"monitor.snapshot.bytes_per_meas", "B"},
	{"monitor.ingest.bin_visible_p50_ms", "ms"},
	{"monitor.ingest.bin_visible_p90_ms", "ms"},
	{"monitor.ingest.batch_frames", "count"},
	{"monitor.ingest.conn_drops", "count"},
	{"monitor.ingest.frame_rejects", "count"},
	{"monitor.feed.append_overhead_ratio", "ratio"},
	{"chunk.encode_ns_per_bin", "ns"},
	{"chunk.decode_ns_per_bin", "ns"},
	{"chunk.bytes_per_bin", "B"},
	{"topo.impact_set_ns", "ns"},
	{"sst.window_ns", "ns"},
	{"sst.sweep_ns_per_window", "ns"},
	{"sst.stream_next_ns", "ns"},
	{"detect.gate_ns_per_kpi", "ns"},
	{"did.estimate_ns", "ns"},
	{"did.historical_control_ns", "ns"},
	{"funnel.stage.impact_set_us", "us"},
	{"funnel.stage.sst_score_us", "us"},
	{"funnel.stage.persist_us", "us"},
	{"funnel.stage.did_control_us", "us"},
	{"funnel.stage.did_estimate_us", "us"},
	{"funnel.stage.assess_us", "us"},
	{"funnel.kpis_per_change", "count"},
	{"funnel.kpis_flagged", "count"},
	{"funnel.kpis_inconclusive", "count"},
	{"funnel.verdict_accuracy", "ratio"},
	{"funnel.stream.advances", "count"},
	{"funnel.stream.advances_per_meas", "ratio"},
	{"funnel.stream.cache_hits", "count"},
	{"funnel.stream.cache_misses", "count"},
	{"funnel.stream.cache_hit_ratio", "ratio"},
	{"funnel.stream.invalidations", "count"},
	{"funnel.stream.sheds", "count"},
	{"funnel.stream.b2v_p50_ms", "ms"},
	{"daemon.register_p50_ms", "ms"},
	{"report.json_ns_per_report", "ns"},
	{"report.text_ns_per_report", "ns"},
	{"obs.metrics_render_ms", "ms"},
	{"obs.observe_ns", "ns"},
	{"harness.generate_ns_per_meas", "ns"},
	{"harness.publish_p50_ms", "ms"},
	{"harness.wait_verdict_self_ms", "ms"},
	{"harness.whole_run.latency_p50_ms", "ms"},
	{"harness.whole_run.ops_per_s", "1/s"},
	{"harness.whole_run.cpu_ms_per_op", "ms"},
	{"harness.quiet_rounds", "count"},
	{"harness.latency_p90_ms", "ms"},
	{"harness.latency_p99_ms", "ms"},
	{"harness.latency_max_ms", "ms"},
	{"harness.trace_overhead_ratio", "ratio"},
	{"harness.spans", "count"},
	{"host.calibration_ns", "ns"},
	{"host.yardstick_factor", "ratio"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_total_ms", "ms"},
	{"process.goroutines_leaked", "count"},
	{"process.peak_rss_mb", "MiB"},
}

// layer records one per-layer metric, with the unit perLayer gives it.
func (r *result) layer(name string, value float64, n int) {
	for _, l := range perLayer {
		if l.name == name {
			r.add(name, value, l.unit, n)
			return
		}
	}
	panic("benchmark: undeclared per-layer metric " + name)
}

// fillLayers adds a zero for every per-layer metric the workload left
// out and orders the per-layer metrics as perLayer lists them.
func (r *result) fillLayers() {
	var rest, layers []metric
	for _, m := range r.metrics {
		if isEndToEnd(m.Name) {
			rest = append(rest, m)
		}
	}
	for _, l := range perLayer {
		if m, ok := r.get(l.name); ok {
			layers = append(layers, m)
		} else {
			layers = append(layers, metric{Name: l.name, Unit: l.unit})
		}
	}
	r.metrics = append(rest, layers...)
}

// layerInputs is what a workload hands the per-layer report: the rounds
// it ran, the program's own read-outs, and its own generated inputs for
// the ladder to replay through one layer at a time.
type layerInputs struct {
	rounds     []*round
	store      *monitor.Store // live store holding the workload's data
	col        *obs.Collector // the daemon's collector; nil without a daemon
	debugAddr  string         // telemetry HTTP address; empty without a daemon
	fleet      *fleet         // nil when the input is not a generated fleet
	ingested   int64          // measurements the timed region pushed through ingest
	reports    []*funnel.Report
	changes    []changelog.Change // the changes behind reports (or merely registered)
	topo       *topo.Topology
	cfg        funnel.Config
	batches    [][]monitor.Measurement // consecutive units of the workload's input
	registerMs []float64
	accuracy   [2]int // verdicts agreeing with the generator's truth, of how many
	// trackedEvery says that the workload's streamer tracked about one
	// key in this many (0: the workload has no streamer, so no feed).
	trackedEvery int
}

// timeLoop calls f for about budget, in three slices, and returns the
// median nanoseconds per call over the slices and the number of calls.
func timeLoop(budget time.Duration, f func()) (nsPerCall float64, calls int) {
	var per []float64
	for s := 0; s < 3; s++ {
		n := 0
		t0 := time.Now()
		for {
			f()
			n++
			if time.Since(t0) >= budget/3 {
				break
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		calls += n
	}
	return median(per), calls
}

// reportLayers prints the per-layer view of a traced run from three
// outside-only sources: the harness spans and samples, a ladder that
// replays the workload's own inputs through single layers, and the
// program's public read-outs.
func reportLayers(e *env, in *layerInputs) {
	res := e.res
	budget := time.Duration(e.opt.seconds * float64(time.Second) / 2 / 16) // per ladder step

	// Harness view of the timed region.
	lat := pooled(in.rounds, latOf)
	// What the end-to-end metrics would read over every round instead
	// of the quiet ones: compactions and neighbours included.
	ops, secs, cpuMs := totals(in.rounds)
	res.layer("harness.whole_run.latency_p50_ms", percentile(lat, 0.5), len(lat))
	res.layer("harness.whole_run.ops_per_s", float64(ops)/secs, ops)
	res.layer("harness.whole_run.cpu_ms_per_op", cpuMs/float64(ops), ops)
	res.layer("host.yardstick_factor", e.factor, len(in.rounds)+1)
	res.layer("harness.quiet_rounds", float64(len(quietRounds(in.rounds))), len(in.rounds))
	res.layer("harness.latency_p90_ms", percentile(lat, 0.9), len(lat))
	res.layer("harness.latency_p99_ms", percentile(lat, 0.99), len(lat))
	res.layer("harness.latency_max_ms", percentile(lat, 1), len(lat))
	traced, nT := medianOfRounds(in.rounds, func(r *round) float64 {
		if !r.traced {
			return math.NaN()
		}
		return percentile(r.lat, 0.5)
	})
	untraced, nU := medianOfRounds(in.rounds, func(r *round) float64 {
		if r.traced {
			return math.NaN()
		}
		return percentile(r.lat, 0.5)
	})
	if nT > 0 && nU > 0 {
		res.layer("harness.trace_overhead_ratio", traced/untraced, nT+nU)
		res.info = append(res.info, "harness.trace_overhead_ratio = traced-round p50 ÷ untraced-round p50 of the same run")
	}
	if vis := pooled(in.rounds, auxOf("bin_visible")); len(vis) > 0 {
		res.layer("monitor.ingest.bin_visible_p50_ms", percentile(vis, 0.5), len(vis))
		res.layer("monitor.ingest.bin_visible_p90_ms", percentile(vis, 0.9), len(vis))
	}
	if pub := pooled(in.rounds, auxOf("publish")); len(pub) > 0 {
		res.layer("harness.publish_p50_ms", percentile(pub, 0.5), len(pub))
	}
	if waits := spanDurations(e.tr.spans, "wait_verdict"); len(waits) > 0 {
		self := selfTimes(e.tr.spans)["wait_verdict"]
		res.layer("harness.wait_verdict_self_ms", float64(self)/1e6/float64(len(waits)), len(waits))
	}
	if len(in.registerMs) > 0 {
		res.layer("daemon.register_p50_ms", percentile(in.registerMs, 0.5), len(in.registerMs))
	}

	// The program's own read-outs.
	st := in.store.Stats()
	res.layer("monitor.store.chunks_sealed", float64(st.Chunks), st.SeriesCount)
	if col := in.col; col != nil {
		res.layer("monitor.ingest.batch_frames", float64(col.Counter(obs.CtrBatchFrames)), 1)
		res.layer("monitor.ingest.conn_drops", float64(col.Counter(obs.CtrConnDrops)), 1)
		res.layer("monitor.ingest.frame_rejects", float64(col.Counter(obs.CtrFrameRejects)), 1)
		res.layer("monitor.wal.compactions", float64(col.Counter(obs.CtrCompactions)), 1)
		res.layer("monitor.wal.appends", float64(col.Counter(obs.CtrWALAppends)), 1)
		adv := col.Counter(obs.CtrStreamAdvances)
		hits, misses := col.Counter(obs.CtrStreamCacheHits), col.Counter(obs.CtrStreamCacheMisses)
		res.layer("funnel.stream.advances", float64(adv), 1)
		if in.ingested > 0 {
			res.layer("funnel.stream.advances_per_meas", float64(adv)/float64(in.ingested), int(in.ingested))
		}
		res.layer("funnel.stream.cache_hits", float64(hits), 1)
		res.layer("funnel.stream.cache_misses", float64(misses), 1)
		if hits+misses > 0 {
			res.layer("funnel.stream.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
		}
		res.layer("funnel.stream.invalidations", float64(col.Counter(obs.CtrStreamInvalidations)), 1)
		res.layer("funnel.stream.sheds", float64(col.Counter(obs.CtrStreamSheds)), 1)
		if h := col.Stage(obs.StageImpactSet); h.Count() > 0 {
			res.layer("funnel.stage.impact_set_us", float64(h.Mean())/1e3, int(h.Count()))
		}
	}
	reportStages(res, in.reports)
	if in.accuracy[1] > 0 {
		res.layer("funnel.verdict_accuracy", float64(in.accuracy[0])/float64(in.accuracy[1]), in.accuracy[1])
	}
	if in.debugAddr != "" {
		renderMetrics(res, in.debugAddr)
	}

	// The ladder.
	ladderWire(res, in, budget)
	ladderStore(e, in, budget)
	ladderRange(res, in, budget)
	series := sampleSeries(in)
	ladderChunk(res, series, budget)
	ladderScoring(res, series, in.cfg, budget)
	ladderTopo(res, in, budget)
	ladderReports(res, in.reports, budget)
	col := obs.NewCollector()
	ns, n := timeLoop(budget/4, func() { col.Observe(obs.StageAssess, time.Millisecond) })
	res.layer("obs.observe_ns", ns, n)
	if f := in.fleet; f != nil {
		batch := make([]monitor.Measurement, 0, len(f.keys))
		ns, n := timeLoop(budget/2, func() { batch = f.fillBin(batch[:0], 7) })
		res.layer("harness.generate_ns_per_meas", ns/float64(len(f.keys)), n*len(f.keys))
	}
}

// reportStages reads the stage timings off the reports' own traces
// (exact values; the collector's histograms have power-of-two buckets)
// and the impact-set sizes and outcomes off the reports themselves.
func reportStages(res *result, reports []*funnel.Report) {
	if len(reports) == 0 {
		return
	}
	stages := map[string][]float64{}
	var assess, b2v []float64
	var kpis, flagged, inconclusive int
	for _, rep := range reports {
		kpis += len(rep.Assessments)
		flagged += len(rep.Flagged())
		for _, a := range rep.Assessments {
			if a.Verdict == funnel.Inconclusive {
				inconclusive++
			}
		}
		if rep.Trace == nil {
			continue
		}
		assess = append(assess, float64(rep.Trace.Nanos)/1e3)
		if rep.Trace.BinToVerdictNanos > 0 {
			b2v = append(b2v, float64(rep.Trace.BinToVerdictNanos)/1e6)
		}
		for _, k := range rep.Trace.KPIs {
			for _, s := range k.Stages {
				stages[s.Stage] = append(stages[s.Stage], float64(s.Nanos)/1e3)
			}
		}
	}
	res.layer("funnel.kpis_per_change", float64(kpis)/float64(len(reports)), len(reports))
	res.layer("funnel.kpis_flagged", float64(flagged), kpis)
	res.layer("funnel.kpis_inconclusive", float64(inconclusive), kpis)
	for stage, name := range map[string]string{
		obs.StageSSTScore:    "funnel.stage.sst_score_us",
		obs.StagePersist:     "funnel.stage.persist_us",
		obs.StageDiDControl:  "funnel.stage.did_control_us",
		obs.StageDiDEstimate: "funnel.stage.did_estimate_us",
	} {
		if v := stages[stage]; len(v) > 0 {
			res.layer(name, percentile(v, 0.5), len(v))
		}
	}
	if len(assess) > 0 {
		res.layer("funnel.stage.assess_us", percentile(assess, 0.5), len(assess))
	}
	if len(b2v) > 0 {
		res.layer("funnel.stream.b2v_p50_ms", percentile(b2v, 0.5), len(b2v))
	}
}

// renderMetrics times GET /metrics?format=prom on the daemon's
// telemetry surface.
func renderMetrics(res *result, addr string) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: waitTimeout}
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		resp, err := client.Get("http://" + addr + "/metrics?format=prom")
		if err != nil {
			res.op(1)
			res.fail("GET /metrics: %v", err)
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			res.op(1)
			res.fail("GET /metrics: status %d, %v", resp.StatusCode, err)
			return
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	res.layer("obs.metrics_render_ms", median(ms), len(ms))
}

// ladderWire encodes and decodes the workload's batches as 0x04 frames
// with a warm key cache.
func ladderWire(res *result, in *layerInputs, budget time.Duration) {
	if len(in.batches) == 0 {
		return
	}
	// Frames hold at most 64 KiB; 1024 measurements of these key sizes
	// stay well under it.
	var frames [][]monitor.Measurement
	total := 0
	for _, b := range in.batches {
		for len(b) > 0 && total < 1<<18 {
			n := len(b)
			if n > 1024 {
				n = 1024
			}
			frames = append(frames, b[:n])
			total += n
			b = b[n:]
		}
	}
	var buf []byte
	var size int
	ns, n := timeLoop(budget, func() {
		size = 0
		for _, fr := range frames {
			var err error
			if buf, err = monitor.EncodeBatchInto(buf[:0], fr); err != nil {
				panic(err)
			}
			size += len(buf)
		}
	})
	res.layer("monitor.wire.encode_ns_per_meas", ns/float64(total), n*total)
	res.layer("monitor.wire.bytes_per_meas", float64(size)/float64(total), total)

	payloads := make([][]byte, len(frames))
	for i, fr := range frames {
		p, err := monitor.EncodeBatch(fr)
		if err != nil {
			panic(err)
		}
		payloads[i] = p
	}
	cache := monitor.NewKeyCache()
	var dst []monitor.Measurement
	ns, n = timeLoop(budget, func() {
		for _, p := range payloads {
			var err error
			if dst, err = monitor.DecodeBatchInto(dst[:0], p, cache); err != nil {
				panic(err)
			}
		}
	})
	res.layer("monitor.wire.decode_ns_per_meas", ns/float64(total), n*total)
}

// ladderStore appends the workload's batches to a bare in-memory store,
// to one with a bin feed attached, and to a persistent one, then takes
// the persistent one through sync, crash, replay, compaction and
// snapshot read.
func ladderStore(e *env, in *layerInputs, budget time.Duration) {
	res := e.res
	if len(in.batches) == 0 {
		return
	}
	total := 0
	for _, b := range in.batches {
		total += len(b)
	}
	start, step := in.store.Start(), in.store.Step()
	appendAll := func(st *monitor.Store) {
		for _, b := range in.batches {
			st.AppendBatch(b)
		}
	}
	// The feed tracks the share of keys the workload's own streamer
	// tracked.
	tracked := map[topo.KPIKey]bool{}
	if in.trackedEvery > 0 {
		for i, m := range in.batches[0] {
			if i%in.trackedEvery == 0 {
				tracked[m.Key] = true
			}
		}
	}
	// The first batch goes in untimed: it creates the series, which a
	// long-running store does once and a fresh ladder store would
	// otherwise pay on every pass.
	timed := total - len(in.batches[0])
	var drained []topo.KPIKey
	appendNs := func(withFeed bool) (float64, int) {
		var per []float64
		passes := 0
		for s := 0; s < 3; s++ {
			var spent time.Duration
			n := 0
			for spent < budget/3 {
				st := monitor.NewStoreShards(start, step, monitor.StoreShards)
				var feed *monitor.BinFeed
				if withFeed {
					feed = st.NewBinFeed(func(k topo.KPIKey) bool { return tracked[k] }, 0)
				}
				st.AppendBatch(in.batches[0])
				t0 := time.Now()
				for _, b := range in.batches[1:] {
					st.AppendBatch(b)
					if feed != nil {
						drained, _, _ = feed.Drain(drained[:0])
					}
				}
				spent += time.Since(t0)
				n++
				if feed != nil {
					feed.Close()
				}
			}
			per = append(per, float64(spent.Nanoseconds())/float64(n*timed))
			passes += n
		}
		return median(per), passes
	}
	if timed > 0 {
		detached, n := appendNs(false)
		res.layer("monitor.store.append_ns_per_meas", detached, n*timed)
		if len(tracked) > 0 {
			attached, n := appendNs(true)
			res.layer("monitor.feed.append_overhead_ratio", attached/detached, n*timed)
			res.info = append(res.info, fmt.Sprintf("monitor.feed.append_overhead_ratio = AppendBatch ns/meas with a bin feed tracking every %dth key ÷ monitor.store.append_ns_per_meas", in.trackedEvery))
		}
	}

	// Persistent: background fsync and compaction off, so each step
	// below is the only disk work running.
	opts := monitor.PersistOptions{CompactBytes: -1, SyncInterval: -1}
	fail := func(what string, err error) {
		res.op(1)
		res.fail("ladder %s: %v", what, err)
	}
	dir, err := e.subdir("ladder-")
	if err != nil {
		fail("mkdir", err)
		return
	}
	defer removeAll(dir)
	st, err := monitor.OpenPersistent(dir, start, step, opts)
	if err != nil {
		fail("open", err)
		return
	}
	closeStore := registry.push(func() { st.Close() })
	defer closeStore()
	t0 := time.Now()
	appendAll(st)
	res.layer("monitor.wal.append_ns_per_meas", float64(time.Since(t0).Nanoseconds())/float64(total), total)
	t0 = time.Now()
	if err := st.Sync(); err != nil {
		fail("sync", err)
		return
	}
	res.layer("monitor.wal.sync_ms", float64(time.Since(t0))/1e6, 1)
	if size, err := dirBytes(dir); err == nil {
		res.layer("monitor.wal.bytes_per_meas", float64(size)/float64(total), total)
	}
	// reopen recovers a copy of src and returns how long OpenPersistent
	// took and how many bins came back.
	reopen := func(what, src string) (time.Duration, int, bool) {
		img, err := e.subdir("ladder-" + what + "-")
		if err != nil {
			fail(what, err)
			return 0, 0, false
		}
		defer removeAll(img)
		if err := copyDir(src, img); err != nil {
			fail(what, err)
			return 0, 0, false
		}
		t0 := time.Now()
		re, err := monitor.OpenPersistent(img, start, step, opts)
		d := time.Since(t0)
		if err != nil {
			fail(what, err)
			return 0, 0, false
		}
		bins := re.Stats().Bins
		re.Close()
		return d, bins, true
	}
	// Every recovery pays for fresh logs, a snapshot rewrite and their
	// fsyncs whatever it recovers; an empty directory prices that, and
	// the per-record figures below are net of it.
	empty, err := e.subdir("ladder-empty-")
	if err != nil {
		fail("mkdir", err)
		return
	}
	defer removeAll(empty)
	fixed, _, ok := reopen("empty", empty)
	if !ok {
		return
	}
	res.layer("monitor.wal.reopen_empty_ms", float64(fixed)/1e6, 1)
	recovered := func(what, metric string) {
		d, bins, ok := reopen(what, dir)
		if !ok {
			return
		}
		if want := st.Stats().Bins; bins != want {
			res.op(1)
			res.fail("ladder %s: %d bins came back, %d went in", what, bins, want)
		}
		if d -= fixed; d < 0 {
			d = 0
		}
		res.layer(metric, float64(d.Nanoseconds())/float64(total), total)
	}
	// A logs-only image: everything comes back through replay (and the
	// compaction every recovery ends with).
	recovered("replay", "monitor.wal.replay_ns_per_record")
	t0 = time.Now()
	if err := st.Compact(); err != nil {
		fail("compact", err)
		return
	}
	res.layer("monitor.wal.compact_ms", float64(time.Since(t0))/1e6, 1)
	if size, err := dirBytes(dir); err == nil {
		res.layer("monitor.snapshot.bytes_per_meas", float64(size)/float64(total), total)
	}
	// A snapshot-only image.
	recovered("snapshot", "monitor.snapshot.read_ns_per_meas")
}

// readWindow is one RangeInto call an assessment makes.
type readWindow struct {
	key      topo.KPIKey
	from, to time.Time
}

// assessmentWindows lists the windows the workload's changes make the
// assessor fetch — treated and control KPIs over the bounds the
// windowed fetcher uses — or, for a workload without assessable
// changes, windows of the same length at the end of sampled series.
func assessmentWindows(in *layerInputs) []readWindow {
	cfg := in.cfg
	if cfg.HistoryDays <= 0 {
		cfg.HistoryDays = 1
	}
	span := sst.Config{}.PastSpan()
	back := time.Duration(cfg.HistoryDays*1440+2*30+60+span+16) * time.Minute
	fwd := time.Duration(60+span+16) * time.Minute
	var out []readWindow
	last := in.store.Start().Add(time.Duration(in.store.Stats().LastBin) * in.store.Step())
	for _, c := range in.changes {
		if c.At.After(last) || len(out) >= 2048 {
			continue
		}
		set, err := in.topo.IdentifyImpactSet(c.Service, c.Servers)
		if err != nil {
			continue
		}
		for _, k := range set.TreatedKPIs(cfg.ServerMetrics, cfg.InstanceMetrics) {
			if k.Scope == topo.ScopeService {
				continue
			}
			out = append(out, readWindow{k, c.At.Add(-back), c.At.Add(fwd)})
			for _, ck := range set.ControlKPIs(k) {
				out = append(out, readWindow{ck, c.At.Add(-back), c.At.Add(fwd)})
			}
		}
	}
	if len(out) == 0 {
		for _, k := range sampleKeys(in.store, 64) {
			out = append(out, readWindow{k, last.Add(-back), last.Add(time.Minute)})
		}
	}
	return out
}

// ladderRange replays the assessment's window reads against the
// workload's own store.
func ladderRange(res *result, in *layerInputs, budget time.Duration) {
	wins := assessmentWindows(in)
	if len(wins) == 0 {
		return
	}
	var buf []float64
	bins := 0
	ns, n := timeLoop(budget, func() {
		bins = 0
		for _, w := range wins {
			buf, _, _ = in.store.RangeInto(w.key, w.from, w.to, buf[:0])
			bins += len(buf)
		}
	})
	res.layer("monitor.store.range_ns_per_call", ns/float64(len(wins)), n*len(wins))
	res.layer("monitor.store.range_bins_per_call", float64(bins)/float64(len(wins)), len(wins))
}

// sampleSeries reads up to 32 of the workload's real series in full:
// the KPIs its changes treat when it has any, evenly sampled keys
// otherwise.
func sampleSeries(in *layerInputs) [][]float64 {
	var keys []topo.KPIKey
	for _, c := range in.changes {
		if set, err := in.topo.IdentifyImpactSet(c.Service, c.Servers); err == nil {
			for _, k := range set.TreatedKPIs(in.cfg.ServerMetrics, in.cfg.InstanceMetrics) {
				if k.Scope != topo.ScopeService && len(keys) < 32 {
					keys = append(keys, k)
				}
			}
		}
	}
	if len(keys) == 0 {
		keys = sampleKeys(in.store, 32)
	}
	var out [][]float64
	for _, k := range keys {
		if s, ok := in.store.Series(k); ok && s.Len() >= 256 {
			out = append(out, s.Clone().FillGaps().Values)
		}
	}
	return out
}

// ladderChunk encodes and decodes the sampled series in sealed-chunk
// spans.
func ladderChunk(res *result, series [][]float64, budget time.Duration) {
	var spans [][]float64
	for _, s := range series {
		for len(s) >= chunk.DefaultSpan {
			spans = append(spans, s[:chunk.DefaultSpan])
			s = s[chunk.DefaultSpan:]
		}
	}
	if len(spans) == 0 {
		for _, s := range series {
			spans = append(spans, s)
		}
	}
	if len(spans) == 0 {
		return
	}
	bins := 0
	for _, s := range spans {
		bins += len(s)
	}
	chunks := make([]*chunk.Chunk, len(spans))
	ns, n := timeLoop(budget, func() {
		for i, s := range spans {
			chunks[i] = chunk.Encode(s)
		}
	})
	res.layer("chunk.encode_ns_per_bin", ns/float64(bins), n*bins)
	size := 0
	for _, c := range chunks {
		size += c.EncodedBytes()
	}
	res.layer("chunk.bytes_per_bin", float64(size)/float64(bins), bins)
	dst := make([]float64, chunk.DefaultSpan)
	ns, n = timeLoop(budget, func() {
		for _, c := range chunks {
			c.DecodeInto(dst[:c.Count()], 0, c.Count())
		}
	})
	res.layer("chunk.decode_ns_per_bin", ns/float64(bins), n*bins)
}

// ladderScoring runs the three SST entry points, the persistence gate
// and the two DiD entry points over assessment-sized windows cut from
// the sampled series.
func ladderScoring(res *result, series [][]float64, cfg funnel.Config, budget time.Duration) {
	scfg := sst.Config{Normalize: true, RobustFilter: true} // funnel.Config's default SST
	past, fut := scfg.PastSpan(), scfg.FutureSpan()
	const window = 60
	segLen := 2*window + past + fut
	var segs [][]float64
	for _, s := range series {
		if len(s) >= segLen {
			segs = append(segs, s[len(s)-segLen:])
		}
	}
	if len(segs) == 0 {
		return
	}
	positions := segLen - past - fut + 1

	// The per-window path a collector selects today.
	ika := sst.NewIKA(scfg)
	var sink float64
	ns, n := timeLoop(budget, func() {
		for _, x := range segs {
			for t := past; t+fut <= len(x); t++ {
				sink += ika.ScoreAt(x, t)
			}
		}
	})
	res.layer("sst.window_ns", ns/float64(len(segs)*positions), n*len(segs)*positions)

	// The incremental sweep the batch path takes without a collector.
	sliding := sst.NewSliding(sst.NewIKA(scfg))
	sliding.WarmStart = true
	scores := make([][]float64, len(segs))
	for i := range scores {
		scores[i] = make([]float64, segLen)
	}
	ns, n = timeLoop(budget, func() {
		for i, x := range segs {
			sliding.ScoreRangeInto(scores[i], x, past, len(x)-fut+1)
		}
	})
	res.layer("sst.sweep_ns_per_window", ns/float64(len(segs)*positions), n*len(segs)*positions)

	// The resumable sweep a streamer advances bin by bin.
	ns, n = timeLoop(budget, func() {
		for _, x := range segs {
			sw := sliding.NewStream()
			sw.Reset(0)
			for t := past; t+fut <= len(x); t++ {
				sink += sw.Next(x[:t+fut])
			}
		}
	})
	res.layer("sst.stream_next_ns", ns/float64(len(segs)*positions), n*len(segs)*positions)

	for i, x := range segs {
		scores[i] = sst.ScoreSeries(sliding, x)
	}
	gate := detect.New(sliding, funnel.DefaultDetectorThreshold)
	gate.MaxGap = 5
	ns, n = timeLoop(budget/2, func() {
		for i, x := range segs {
			sink += float64(len(gate.DetectScored(x, scores[i])))
		}
	})
	res.layer("detect.gate_ns_per_kpi", ns/float64(len(segs)), n*len(segs))

	const period = 30 // funnel.Config's default DiDWindow
	ns, n = timeLoop(budget/2, func() {
		for i, x := range segs {
			c := segs[(i+1)%len(segs)]
			mid := len(x) / 2
			r, _ := did.Estimate(x[mid-period:mid], x[mid:mid+period], c[mid-period:mid], c[mid:mid+period])
			sink += r.Alpha
		}
	})
	res.layer("did.estimate_ns", ns/float64(len(segs)), n*len(segs))

	days := cfg.HistoryDays
	if days <= 0 {
		days = 1
	}
	var full []*timeseries.Series
	for _, s := range series {
		if len(s) > 1440+2*period {
			full = append(full, timeseries.New(epoch, time.Minute, s))
		}
	}
	if len(full) > 0 {
		ns, n = timeLoop(budget/2, func() {
			for _, s := range full {
				pre, _, _ := did.HistoricalControl(s, s.Len()-period, period, days)
				sink += float64(len(pre))
			}
		})
		res.layer("did.historical_control_ns", ns/float64(len(full)), n*len(full))
	}
	calibrationSink += uint64(math.Float64bits(sink) & 1)
}

// ladderTopo times impact-set identification for the workload's
// changes.
func ladderTopo(res *result, in *layerInputs, budget time.Duration) {
	if len(in.changes) == 0 {
		return
	}
	changes := in.changes
	if len(changes) > 256 {
		changes = changes[:256]
	}
	kpis := 0
	ns, n := timeLoop(budget/2, func() {
		for _, c := range changes {
			if set, err := in.topo.IdentifyImpactSet(c.Service, c.Servers); err == nil {
				kpis += len(set.TreatedKPIs(in.cfg.ServerMetrics, in.cfg.InstanceMetrics))
			}
		}
	})
	res.layer("topo.impact_set_ns", ns/float64(len(changes)), n*len(changes))
}

// ladderReports renders the run's reports as JSON and as operator text.
func ladderReports(res *result, reports []*funnel.Report, budget time.Duration) {
	if len(reports) == 0 {
		return
	}
	if len(reports) > 256 {
		reports = reports[:256]
	}
	var buf bytes.Buffer
	ns, n := timeLoop(budget/2, func() {
		buf.Reset()
		if err := report.WriteJSON(&buf, reports); err != nil {
			panic(err)
		}
	})
	res.layer("report.json_ns_per_report", ns/float64(len(reports)), n*len(reports))
	ns, n = timeLoop(budget/2, func() {
		buf.Reset()
		for _, r := range reports {
			if err := report.WriteText(&buf, r, true); err != nil {
				panic(err)
			}
		}
	})
	res.layer("report.text_ns_per_report", ns/float64(len(reports)), n*len(reports))
}
