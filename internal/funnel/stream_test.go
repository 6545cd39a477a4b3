package funnel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// streamFixture is a 3-server service with a +9 shift on on-0 at
// changeMin. Values are precomputed so the streaming and batch paths
// can consume the exact same measurements in the exact same order.
type streamFixture struct {
	start     time.Time
	servers   []string
	values    [][]float64 // [server][bin]
	change    changelog.Change
	changeMin int
	total     int
}

func newStreamFixture() *streamFixture {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	const changeMin = 2*1440 + 300
	total := changeMin + 200
	servers := []string{"on-0", "on-1", "on-2"}
	rng := rand.New(rand.NewSource(91))
	values := make([][]float64, len(servers))
	for i := range servers {
		values[i] = make([]float64, total)
	}
	for bin := 0; bin < total; bin++ {
		for i := range servers {
			v := 58 + 0.6*rng.NormFloat64()
			if i == 0 && bin >= changeMin {
				v += 9
			}
			values[i][bin] = v
		}
	}
	return &streamFixture{
		start:   start,
		servers: servers,
		values:  values,
		change: changelog.Change{
			ID: "kv-s1", Type: changelog.Config, Service: "kv.cache",
			Servers: []string{"on-0"}, At: start.Add(changeMin * time.Minute),
		},
		changeMin: changeMin,
		total:     total,
	}
}

func (f *streamFixture) buildTopo() *topo.Topology {
	tp := topo.NewTopology()
	for _, srv := range f.servers {
		tp.Deploy("kv.cache", srv)
	}
	return tp
}

func (f *streamFixture) key(srv string) topo.KPIKey {
	return topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"}
}

// feed appends bins [from, to) for every server, skipping (srv, bin)
// pairs the gap function claims.
func (f *streamFixture) feed(store *monitor.Store, from, to int, gap func(srv string, bin int) bool) {
	for bin := from; bin < to; bin++ {
		ts := f.start.Add(time.Duration(bin) * time.Minute)
		for i, srv := range f.servers {
			if gap != nil && gap(srv, bin) {
				continue
			}
			store.Append(monitor.Measurement{Key: f.key(srv), T: ts, V: f.values[i][bin]})
		}
	}
}

// countingCache wraps the streamer's score cache so tests can prove
// the fast path actually served the assessment, independent of the
// obs-collector configuration.
type countingCache struct {
	inner        scoreCache
	hits, misses atomic.Int64
}

func (c *countingCache) cachedScores(key topo.KPIKey, absLo int, segment []float64) []float64 {
	out := c.inner.cachedScores(key, absLo, segment)
	if out != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return out
}

// sameFloat compares bit-for-bit, treating any-NaN-equals-any-NaN as
// the report comparison needs (payload bits are not meaningful).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// assessmentDiff names the first field on which two assessments of the
// same KPI differ, "" when none does. Floats compare bit-for-bit.
func assessmentDiff(a, b Assessment) string {
	ae, be := "", ""
	if a.Err != nil {
		ae = a.Err.Error()
	}
	if b.Err != nil {
		be = b.Err.Error()
	}
	switch {
	case a.Key != b.Key:
		return fmt.Sprintf("key: %v vs %v", a.Key, b.Key)
	case a.Verdict != b.Verdict:
		return fmt.Sprintf("verdict: %v vs %v", a.Verdict, b.Verdict)
	case a.Detection != b.Detection:
		return fmt.Sprintf("detection: %+v vs %+v", a.Detection, b.Detection)
	case !sameFloat(a.Alpha, b.Alpha) || !sameFloat(a.TStat, b.TStat):
		return fmt.Sprintf("DiD: (%v, %v) vs (%v, %v)", a.Alpha, a.TStat, b.Alpha, b.TStat)
	case a.ControlKind != b.ControlKind || a.TrendWarning != b.TrendWarning:
		return fmt.Sprintf("control: (%v, %v) vs (%v, %v)", a.ControlKind, a.TrendWarning, b.ControlKind, b.TrendWarning)
	case !sameFloat(a.GapFraction, b.GapFraction) || !sameFloat(a.ControlSimilarity, b.ControlSimilarity):
		return fmt.Sprintf("gap/similarity: (%v, %v) vs (%v, %v)", a.GapFraction, a.ControlSimilarity, b.GapFraction, b.ControlSimilarity)
	case ae != be:
		return fmt.Sprintf("err: %q vs %q", ae, be)
	}
	return ""
}

// compareReports requires the streaming report to be indistinguishable
// from the batch one, field by field (traces excluded: they carry
// wall-clock latencies).
func compareReports(t *testing.T, stream, batch *Report) {
	t.Helper()
	if stream.ChangeBin != batch.ChangeBin {
		t.Fatalf("ChangeBin: stream %d, batch %d", stream.ChangeBin, batch.ChangeBin)
	}
	if len(stream.Assessments) != len(batch.Assessments) {
		t.Fatalf("assessment count: stream %d, batch %d", len(stream.Assessments), len(batch.Assessments))
	}
	for i := range stream.Assessments {
		if d := assessmentDiff(stream.Assessments[i], batch.Assessments[i]); d != "" {
			t.Fatalf("%v, stream vs batch: %s", stream.Assessments[i].Key, d)
		}
	}
}

func waitReport(t *testing.T, ch <-chan *Report) *Report {
	t.Helper()
	select {
	case rep := <-ch:
		if rep == nil {
			t.Fatal("report channel closed early")
		}
		return rep
	case <-time.After(30 * time.Second):
		t.Fatal("no streaming report before timeout")
	}
	return nil
}

// runStreamCase drives one full streaming-vs-batch equivalence round:
// register, feed bin-by-bin, take the streaming report, then run a
// fresh batch assessor over the same store and demand bit-identity.
func runStreamCase(t *testing.T, cfg Config, scfg StreamConfig, gap func(srv string, bin int) bool, wantHits bool) {
	t.Helper()
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	sr, err := NewStreamer(store, fx.buildTopo(), cfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	cc := &countingCache{inner: sr}
	sr.assessor.scores = cc

	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}
	if err := sr.RegisterChange(fx.change); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	fx.feed(store, 0, fx.total, gap)
	rep := waitReport(t, sr.Reports())
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d after report", sr.Pending())
	}
	if wantHits && cc.hits.Load() == 0 {
		t.Fatalf("streaming report was served without a single cache hit (misses=%d)", cc.misses.Load())
	}

	// The batch truth over the identical store, never with a collector:
	// telemetry on the streaming side must not show in the report.
	bcfg := cfg
	bcfg.Obs = nil
	ba, err := NewAssessor(store, fx.buildTopo(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	brep, err := ba.Assess(fx.change)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, rep, brep)

	// Sanity beyond equality: the shift on on-0 must be flagged.
	flagged := rep.Flagged()
	if len(flagged) != 1 || flagged[0].Key.Entity != "on-0" {
		t.Fatalf("flagged = %+v", flagged)
	}
}

// interiorGap knocks out bins [changeMin+10, changeMin+18) of control
// server on-1 — inside the assessment window, surrounded by real bins,
// so gap interpolation stays local to the window on both paths.
func interiorGap(changeMin int) func(srv string, bin int) bool {
	return func(srv string, bin int) bool {
		return srv == "on-1" && bin >= changeMin+10 && bin < changeMin+18
	}
}

func TestStreamerMatchesBatchSliding(t *testing.T) {
	runStreamCase(t, Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2},
		StreamConfig{Workers: 1, PollInterval: 20 * time.Millisecond}, nil, true)
}

func TestStreamerMatchesBatchSlidingGapsWorkers(t *testing.T) {
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, AssessWorkers: 4}
	fxGap := interiorGap(2*1440 + 300)
	runStreamCase(t, cfg, StreamConfig{Workers: 4, PollInterval: 20 * time.Millisecond}, fxGap, true)
}

// TestStreamerMatchesBatchInstrumented: a Streamer with a collector
// reports what a batch Assess without one does, and its advances land in
// the sst_window stage.
func TestStreamerMatchesBatchInstrumented(t *testing.T) {
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, Obs: obs.NewCollector()}
	runStreamCase(t, cfg, StreamConfig{Workers: 2, PollInterval: 20 * time.Millisecond}, nil, true)
	if cfg.Obs.Counter(obs.CtrStreamCacheHits) == 0 {
		t.Fatal("collector saw no stream cache hits")
	}
	if cfg.Obs.Counter(obs.CtrStreamAdvances) == 0 {
		t.Fatal("collector saw no stream advances")
	}
	// One weighted sample per advance: count is windows scored, at least
	// every position of the one treated KPI's ±60-bin window once.
	positions := int64(2*60 + 1)
	if n := cfg.Obs.StageCount(obs.StageSSTWindow); n < positions {
		t.Fatalf("sst_window count = %d, want ≥ %d windows", n, positions)
	}
}

// TestStreamerMatchesBatchOtherDetector drives a registry detector whose
// spans differ from the SST geometry that sizes the window: the streamed
// positions must still be the ones the batch sweep scores.
func TestStreamerMatchesBatchOtherDetector(t *testing.T) {
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, Detector: "mrls", DetectorThreshold: 6}
	runStreamCase(t, cfg, StreamConfig{Workers: 2, PollInterval: 20 * time.Millisecond}, nil, true)
}

func TestStreamerMatchesBatchGapMask(t *testing.T) {
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, GapPolicy: GapMask}
	fxGap := interiorGap(2*1440 + 300)
	runStreamCase(t, cfg, StreamConfig{Workers: 2, PollInterval: 20 * time.Millisecond}, fxGap, true)
}

// TestStreamerLateWriteInvalidates rewrites a bin inside the consumed
// window prefix and demands the streamer notice (prefix bit-compare),
// restart the state, and still converge to the batch answer.
func TestStreamerLateWriteInvalidates(t *testing.T) {
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2, Obs: obs.NewCollector()}
	sr, err := NewStreamer(store, fx.buildTopo(), cfg, StreamConfig{Workers: 1, PollInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}
	// Feed into the middle of the assessment window, wait until the
	// stream state has consumed the bin about to be overwritten (an
	// advance that ran mid-feed may have stopped short of it), then
	// overwrite it.
	mid := fx.changeMin + 20
	late := fx.changeMin - 40
	fx.feed(store, 0, mid, nil)
	sr.mu.Lock()
	ks := sr.tracked[fx.key("on-0")][0]
	sr.mu.Unlock()
	consumed := func() int {
		ks.mu.Lock()
		defer ks.mu.Unlock()
		return ks.absLo + len(ks.raw)
	}
	deadline := time.Now().Add(10 * time.Second)
	for consumed() <= late {
		if time.Now().After(deadline) {
			t.Fatal("streamer never consumed the window prefix")
		}
		time.Sleep(5 * time.Millisecond)
	}
	store.Append(monitor.Measurement{Key: fx.key("on-0"), T: fx.start.Add(time.Duration(late) * time.Minute), V: 99})
	fx.feed(store, mid, fx.total, nil)
	rep := waitReport(t, sr.Reports())

	if cfg.Obs.Counter(obs.CtrStreamInvalidations) == 0 {
		t.Fatal("late write inside the window did not invalidate the stream state")
	}
	bcfg := cfg
	bcfg.Obs = nil
	ba, err := NewAssessor(store, fx.buildTopo(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	brep, err := ba.Assess(fx.change)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, rep, brep)
}

// TestStreamerStaleProbeCooldown severs the treated feed mid-window:
// the streamer must emit exactly one provisional report (the gap gate
// makes the severed KPI Inconclusive — never a flag), stay pending
// through arbitrarily many poll ticks, and deliver the real verdict
// once the feed is backfilled.
func TestStreamerStaleProbeCooldown(t *testing.T) {
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	cfg := Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2}
	sr, err := NewStreamer(store, fx.buildTopo(), cfg, StreamConfig{Workers: 1, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}
	severedAt := fx.changeMin - 30
	sever := func(srv string, bin int) bool { return srv == "on-0" && bin >= severedAt }
	fx.feed(store, 0, fx.total, sever)

	rep := waitReport(t, sr.Reports())
	for _, a := range rep.Assessments {
		if a.Key == fx.key("on-0") && a.Verdict != Inconclusive {
			t.Fatalf("severed probe verdict = %v, want Inconclusive", a.Verdict)
		}
		if a.Verdict == ChangedBySoftware {
			t.Fatalf("severed feed produced a flag: %+v", a)
		}
	}
	if sr.Pending() != 1 {
		t.Fatalf("pending = %d after provisional report, want 1", sr.Pending())
	}
	// Many more poll ticks with the feed still severed: no re-emission.
	time.Sleep(150 * time.Millisecond)
	select {
	case rep2 := <-sr.Reports():
		t.Fatalf("severed feed re-emitted: %+v", rep2.Assessments)
	default:
	}

	// Backfill the severed bins: the real verdict materializes and
	// matches batch.
	for bin := severedAt; bin < fx.total; bin++ {
		store.Append(monitor.Measurement{Key: fx.key("on-0"), T: fx.start.Add(time.Duration(bin) * time.Minute), V: fx.values[0][bin]})
	}
	final := waitReport(t, sr.Reports())
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", sr.Pending())
	}
	ba, err := NewAssessor(store, fx.buildTopo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	brep, err := ba.Assess(fx.change)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, final, brep)
	if len(final.Flagged()) != 1 {
		t.Fatalf("recovered verdict not flagged: %+v", final.Assessments)
	}
}

// TestOnlineStaleProbeCooldown keeps the deleted pull engine's
// regression pin on the Streamer: over 50 poll ticks against a severed
// probe feed exactly one provisional report is emitted, and a
// backfilled feed still yields the real verdict.
func TestOnlineStaleProbeCooldown(t *testing.T) {
	fx := newStreamFixture()
	store := monitor.NewStore(fx.start, time.Minute)
	const tick = 5 * time.Millisecond
	sr, err := NewStreamer(store, fx.buildTopo(), Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2},
		StreamConfig{Workers: 1, PollInterval: tick})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(fx.change); err != nil {
		t.Fatal(err)
	}
	severedAt := fx.changeMin - 30
	sever := func(srv string, bin int) bool { return srv == "on-0" && bin >= severedAt }
	fx.feed(store, 0, fx.total, sever)

	reports := []*Report{waitReport(t, sr.Reports())}
	quiet := time.After(50 * tick) // 50 more poll ticks against the severed feed
collect:
	for {
		select {
		case rep := <-sr.Reports():
			reports = append(reports, rep)
		case <-quiet:
			break collect
		}
	}
	if len(reports) != 1 {
		t.Fatalf("severed probe emitted %d reports, want exactly 1", len(reports))
	}
	if sr.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (awaiting recovery)", sr.Pending())
	}
	for _, a := range reports[0].Assessments {
		if a.Verdict == ChangedBySoftware {
			t.Fatalf("severed feed produced a flag: %+v", a)
		}
	}

	for bin := severedAt; bin < fx.total; bin++ {
		store.Append(monitor.Measurement{Key: fx.key("on-0"), T: fx.start.Add(time.Duration(bin) * time.Minute), V: fx.values[0][bin]})
	}
	if rep := waitReport(t, sr.Reports()); len(rep.Flagged()) != 1 {
		t.Fatalf("recovered verdict not flagged: %+v", rep.Assessments)
	}
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", sr.Pending())
	}
}

// TestOnlineEmitsReportWhenWindowCompletes registers a change at its
// deployment time while an agent feeds the store, and demands the
// Streamer hold the change until the post-change window completes,
// then emit one report flagging only the treated server.
func TestOnlineEmitsReportWhenWindowCompletes(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := monitor.NewStore(start, time.Minute)
	tp := topo.NewTopology()
	agent := monitor.NewAgent(store)
	const changeMin = 2*1440 + 300
	rng := rand.New(rand.NewSource(77))
	for i, srv := range []string{"on-0", "on-1", "on-2"} {
		tp.Deploy("kv.cache", srv)
		treated := i == 0
		seed := rng.Int63()
		agent.Track(topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"},
			func(bin int) float64 {
				r := rand.New(rand.NewSource(seed + int64(bin)))
				v := 58 + 0.6*r.NormFloat64()
				if treated && bin >= changeMin {
					v += 9
				}
				return v
			})
	}
	sr, err := NewStreamer(store, tp, Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 2},
		StreamConfig{Workers: 1, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	agent.Run(changeMin) // history up to the deployment
	if err := sr.RegisterChange(changelog.Change{
		ID: "kv-1", Type: changelog.Config, Service: "kv.cache",
		Servers: []string{"on-0"}, At: start.Add(changeMin * time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	agent.Run(30) // part of the post-change window only
	time.Sleep(50 * time.Millisecond)
	select {
	case rep := <-sr.Reports():
		t.Fatalf("reported before the window completed: %+v", rep.Assessments)
	default:
	}
	if sr.Pending() != 1 {
		t.Fatalf("pending = %d mid-window, want 1", sr.Pending())
	}

	agent.Run(200 - 30)
	report := waitReport(t, sr.Reports())
	flagged := report.Flagged()
	if len(flagged) != 1 || flagged[0].Key.Entity != "on-0" {
		t.Fatalf("flagged = %+v", flagged)
	}
	if sr.Pending() != 0 {
		t.Fatalf("pending = %d", sr.Pending())
	}
}

// TestStreamerRegisterChange pins the registration contract: bad
// registrations fail up front and never panic, and an instance-metric-
// only configuration probes a treated instance, staying pending until
// its window lands and reporting what batch Assess does once it has.
func TestStreamerRegisterChange(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	const changeBin = 1440 + 120
	cases := []struct {
		name    string
		cfg     Config
		prep    func(sr *Streamer, c changelog.Change) // before the registration under test
		edit    func(c *changelog.Change)
		wantErr string
	}{
		{name: "unknown-service", edit: func(c *changelog.Change) { c.Service = "nope" }, wantErr: "unknown service"},
		{name: "no-servers", edit: func(c *changelog.Change) { c.Servers = nil }, wantErr: "treats no server"},
		{name: "duplicate-id", prep: func(sr *Streamer, c changelog.Change) {
			if err := sr.RegisterChange(c); err != nil {
				t.Fatal(err)
			}
		}, wantErr: "already registered"},
		{name: "after-close", prep: func(sr *Streamer, _ changelog.Change) { sr.Close() }, wantErr: "closed"},
		{name: "instance-probe", cfg: Config{InstanceMetrics: []string{"pv.count"}, HistoryDays: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.ServerMetrics == nil && cfg.InstanceMetrics == nil {
				cfg = Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 1}
			}
			store := monitor.NewStore(start, time.Minute)
			tp := topo.NewTopology()
			tp.Deploy("svc", "s1")
			tp.Deploy("svc", "s2")
			sr, err := NewStreamer(store, tp, cfg, StreamConfig{Workers: 1, PollInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			c := changelog.Change{ID: "c1", Type: changelog.Config, Service: "svc",
				Servers: []string{"s1"}, At: start.Add(changeBin * time.Minute)}
			if tc.edit != nil {
				tc.edit(&c)
			}
			if tc.prep != nil {
				tc.prep(sr, c)
			}
			err = sr.RegisterChange(c)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("RegisterChange err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}

			time.Sleep(50 * time.Millisecond) // ten poll ticks without data
			select {
			case rep := <-sr.Reports():
				t.Fatalf("reported without data: %+v", rep.Assessments)
			default:
			}
			if sr.Pending() != 1 {
				t.Fatalf("pending = %d without data, want 1", sr.Pending())
			}
			rng := rand.New(rand.NewSource(3))
			for bin := 0; bin < changeBin+200; bin++ {
				for _, srv := range []string{"s1", "s2"} {
					store.Append(monitor.Measurement{
						Key: topo.KPIKey{Scope: topo.ScopeInstance, Entity: topo.InstanceID("svc", srv), Metric: "pv.count"},
						T:   start.Add(time.Duration(bin) * time.Minute), V: 100 + rng.NormFloat64(),
					})
				}
			}
			rep := waitReport(t, sr.Reports())
			if sr.Pending() != 0 {
				t.Fatalf("pending = %d after report", sr.Pending())
			}
			ba, err := NewAssessor(store, tp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			brep, err := ba.Assess(c)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, rep, brep)
		})
	}
}
