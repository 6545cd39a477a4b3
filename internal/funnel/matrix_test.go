package funnel

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sst"
	"repro/internal/timeseries"
	"repro/internal/topo"
	"repro/internal/workload"
)

// The verdict-invariance matrix: a verdict is a function of the series,
// the change and the configuration alone. Each corpus is assessed once by
// the reference — batch Assess over its MapSource, one worker, no
// collector — and each leg assesses it again along one axis a verdict
// must not feel, every report held to the reference by reportDiff and,
// when the leg attaches no collector, required to carry no trace:
//
//   - workers: Config.AssessWorkers 0, 2, 4 and 8;
//   - shared: one assessor assessing from four goroutines at once;
//   - collector: telemetry attached (only Report.Trace may differ);
//   - solve-all: the sweep at Floor 0, every window eigen-solved;
//   - per-window IKA: each window scored from scratch (the detection
//     peak may differ by 1e-9 relative, nothing else);
//   - chunked: a monitor.Store at chunk span 64, 128 or 512 and 1 or
//     StoreShards shards, read through the two-depth fetcher;
//   - flat: flatStore, every key read in full;
//   - stream: the Streamer, fed the corpus time-major, in full or
//     only up to each change's ready bin.

// corpus is one input of the matrix.
type corpus struct {
	name    string
	src     *workload.MapSource
	tp      *topo.Topology
	changes []changelog.Change
	cfg     Config
	stages  Stages
	// shortStride assesses every shortStride-th change under -short.
	shortStride int
	// extra moves the first change to each of these times as well: near
	// the epoch, before it, too early for history.
	extra []time.Time

	refOnce sync.Once
	ref     []outcome
}

// outcome is what one assessment returned.
type outcome struct {
	rep *Report
	err error
}

// scenarioCorpus is a generated scenario's changes over the workload's
// metrics.
func scenarioCorpus(name string, sc *workload.Scenario, historyDays int) *corpus {
	c := &corpus{name: name, src: sc.Source, tp: sc.Topo, cfg: Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     historyDays,
	}}
	for _, cs := range sc.Cases {
		c.changes = append(c.changes, cs.Change)
	}
	return c
}

// variant is c under an edited configuration and other stages, with a
// reference of its own.
func (c *corpus) variant(edit func(*Config), st Stages) *corpus {
	v := &corpus{name: c.name, src: c.src, tp: c.tp, changes: c.changes, cfg: c.cfg, stages: st,
		shortStride: c.shortStride, extra: c.extra}
	if edit != nil {
		edit(&v.cfg)
	}
	return v
}

// cases lists the changes every leg assesses, in the reference's order.
func (c *corpus) cases() []changelog.Change {
	stride := 1
	if testing.Short() && c.shortStride > 1 {
		stride = c.shortStride
	}
	var out []changelog.Change
	for i := 0; i < len(c.changes); i += stride {
		out = append(out, c.changes[i])
	}
	for _, at := range c.extra {
		ch := c.changes[0]
		ch.At = at
		out = append(out, ch)
	}
	return out
}

// reference assesses the cases once per test binary.
func (c *corpus) reference(t *testing.T) []outcome {
	t.Helper()
	c.refOnce.Do(func() {
		cfg := c.cfg
		cfg.AssessWorkers, cfg.Obs = 1, nil
		a, err := NewAssessorWith(c.src, c.tp, cfg, c.stages)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range c.cases() {
			rep, err := a.Assess(ch)
			if rep != nil && rep.Trace != nil {
				t.Errorf("%s: reference report of %s carries a trace without a collector", c.name, ch.ID)
			}
			c.ref = append(c.ref, outcome{rep, err})
		}
	})
	if len(c.ref) == 0 {
		t.Fatalf("%s: no reference", c.name)
	}
	return c.ref
}

// leg is one axis of the matrix.
type leg struct {
	name string
	// source is what the leg's assessor reads; nil is the corpus's
	// MapSource.
	source func(t *testing.T, c *corpus) SeriesSource
	// edit changes the corpus's config and stages for this leg.
	edit func(cfg *Config, st *Stages)
	// shared > 1 assesses the cases from that many goroutines at once
	// through one assessor.
	shared int
	// peak lets Detection.Peak differ by 1e-9 relative.
	peak bool
	// stream feeds the corpus to a Streamer instead (streamCorpus), whose
	// score cache must turn away refused stored KPIs and serve the rest.
	stream  bool
	refused int
	// ready, with stream, holds the feed at each change's ready bin until
	// the change has reported and stops it after the last: every change
	// is assessed on exactly the bins readiness waits for, and must still
	// match the reference made from the complete data. Each probe KPI
	// must hold its ready bin.
	ready bool
	// each sees every report the leg made, one at a time; done runs
	// after the last, with the leg's config and the number of KPI
	// assessments compared.
	each func(t *testing.T, rep *Report)
	done func(t *testing.T, cfg Config, kpis int)
}

// run assesses c's cases along l and fails t on every difference from
// the reference.
func (c *corpus) run(t *testing.T, l leg) {
	t.Helper()
	ref, cases := c.reference(t), c.cases()
	cfg, st := c.cfg, c.stages
	if l.edit != nil {
		l.edit(&cfg, &st)
	}
	var mu sync.Mutex
	kpis, differ := 0, 0
	check := func(i int, rep *Report, err error) {
		want := ref[i]
		var diffs []string
		switch {
		case (err == nil) != (want.err == nil) || err != nil && err.Error() != want.err.Error():
			diffs = []string{fmt.Sprintf("error %v, want %v", err, want.err)}
		case err == nil:
			diffs = reportDiff(rep, want.rep, l.peak)
			if cfg.Obs == nil && rep.Trace != nil {
				diffs = append(diffs, "trace attached without a collector")
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if l.each != nil && err == nil {
			l.each(t, rep)
		}
		if want.rep != nil {
			kpis += len(want.rep.Assessments)
		}
		for _, d := range diffs {
			if differ++; differ <= 10 {
				t.Errorf("%s/%s, %s at %s: %s", c.name, l.name, cases[i].ID, cases[i].At.Format(time.RFC3339), d)
			}
		}
	}
	if l.stream {
		streamCorpus(t, c, cases, cfg, l, check)
	} else {
		src := SeriesSource(c.src)
		if l.source != nil {
			src = l.source(t, c)
		}
		a, err := NewAssessorWith(src, c.tp, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := max(l.shared, 1); g > 0; g-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, ch := range cases {
					rep, err := a.Assess(ch)
					check(i, rep, err)
				}
			}()
		}
		wg.Wait()
	}
	if differ > 0 {
		t.Errorf("%s/%s: %d differences from the reference over %d KPI assessments", c.name, l.name, differ, kpis)
	}
	if l.done != nil {
		l.done(t, cfg, kpis)
	}
}

// reportDiff lists how got differs from want, one line per differing
// Assessment. The change, impact set, change bin and each Assessment
// compare through their %+v text, as internal/e2e and internal/daemon
// compare reports: every field, floats in shortest round-trip form (bit
// for bit, any NaN equal to any NaN), errors by message. Trace is left
// out: its timings are wall-clock. With peak, a detection peak within
// 1e-9 relative counts as equal.
func reportDiff(got, want *Report, peak bool) []string {
	var out []string
	head := func(r *Report) string { return fmt.Sprintf("%+v %+v %d", r.Change, r.Set, r.ChangeBin) }
	if g, w := head(got), head(want); g != w {
		out = append(out, fmt.Sprintf("got %s, want %s", g, w))
	}
	if len(got.Assessments) != len(want.Assessments) {
		return append(out, fmt.Sprintf("%d assessments, want %d", len(got.Assessments), len(want.Assessments)))
	}
	for k, wa := range want.Assessments {
		ga := got.Assessments[k]
		if peak && math.Abs(ga.Detection.Peak-wa.Detection.Peak) <= 1e-9*math.Abs(wa.Detection.Peak) {
			ga.Detection.Peak = wa.Detection.Peak
		}
		if g, w := fmt.Sprintf("%+v", ga), fmt.Sprintf("%+v", wa); g != w {
			out = append(out, fmt.Sprintf("%s: got %s, want %s", wa.Key, g, w))
		}
	}
	return out
}

// requireSame fails t unless got equals want under reportDiff.
func requireSame(t *testing.T, got, want *Report) {
	t.Helper()
	if d := reportDiff(got, want, false); len(d) > 0 {
		t.Fatalf("%s: report differs from batch: %s", want.Change.ID, strings.Join(d, "; "))
	}
}

var stores struct {
	sync.Mutex
	m map[storeKey]*monitor.Store
}

type storeKey struct {
	src          *workload.MapSource
	span, shards int
}

// storeOf ingests src into a chunked store, once per test binary. NaN
// bins are skipped, not written: a bin with no measurement reads as NaN.
func storeOf(src *workload.MapSource, span, shards int) *monitor.Store {
	stores.Lock()
	defer stores.Unlock()
	k := storeKey{src, span, shards}
	if st := stores.m[k]; st != nil {
		return st
	}
	st := monitor.NewStoreShards(src.Start(), src.Step(), shards)
	st.SetChunkSpan(span)
	var batch []monitor.Measurement
	for _, key := range src.Keys() {
		s, _ := src.Series(key)
		batch = batch[:0]
		for i, v := range s.Values {
			if !math.IsNaN(v) {
				batch = append(batch, monitor.Measurement{Key: key, T: s.Start.Add(time.Duration(i) * s.Step), V: v})
			}
		}
		st.AppendBatch(batch)
	}
	if stores.m == nil {
		stores.m = make(map[storeKey]*monitor.Store)
	}
	stores.m[k] = st
	return st
}

// chunked is the source of a chunked-store leg.
func chunked(span, shards int) func(*testing.T, *corpus) SeriesSource {
	return func(_ *testing.T, c *corpus) SeriesSource { return storeOf(c.src, span, shards) }
}

// flat is the source of a flatStore leg.
func flat(span int) func(*testing.T, *corpus) SeriesSource {
	return func(_ *testing.T, c *corpus) SeriesSource {
		return flatStore{storeOf(c.src, span, monitor.StoreShards)}
	}
}

// streamCorpus feeds the corpus to a Streamer time-major — bin b of every
// key in one AppendBatch, then bin b+1 — with every case registered
// before the first bin, and checks each report as it arrives; l.ready
// holds the feed at ready bins. All but l.refused of the treated KPIs
// the store holds must be served from the stream's score cache; service
// aggregates, which have no score state, miss it too. The Streamer runs
// the deployed stages, whatever the corpus's.
func streamCorpus(t *testing.T, c *corpus, cases []changelog.Change, cfg Config, l leg, check func(int, *Report, error)) {
	t.Helper()
	store := monitor.NewStore(c.src.Start(), c.src.Step())
	sr, err := NewStreamer(store, c.tp, cfg, StreamConfig{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	cc := &countingCache{inner: sr}
	sr.assessor.scores = cc
	index := make(map[string]int, len(cases))
	for i, ch := range cases {
		if err := sr.RegisterChange(ch); err != nil {
			t.Fatal(err)
		}
		index[ch.ID] = i
	}
	states := sr.nTracked.Load()
	// Under -short only the entities of the cases' impact sets are fed:
	// every series an assessment of them reads, and a sixth of the
	// bake-off corpus's ingest.
	keys := c.src.Keys()
	if testing.Short() {
		read := make(map[string]bool)
		for _, o := range c.reference(t) {
			if o.rep != nil {
				s := o.rep.Set
				for _, e := range slices.Concat(s.TServers, s.CServers, s.TInstances, s.CInstances, s.AffectedServices, []string{s.ChangedService}) {
					read[e] = true
				}
			}
		}
		keys = slices.DeleteFunc(keys, func(k topo.KPIKey) bool { return !read[k.Entity] })
	}
	// due lists the ready bins the feed still has to hold at, ascending;
	// reported gets one token per report checked.
	var due []int
	reported := make(chan struct{}, len(cases))
	if l.ready {
		for _, ch := range cases {
			due = append(due, sr.assessor.fp.readyBin(int(ch.At.Sub(store.Start())/store.Step())))
		}
		slices.Sort(due)
	}
	stop, fed := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-fed
	}()
	go func() {
		defer close(fed)
		series := make([]*timeseries.Series, len(keys))
		bins := 0
		for i, k := range keys {
			series[i], _ = c.src.Series(k)
			bins = max(bins, series[i].Len())
		}
		batch := make([]monitor.Measurement, 0, len(keys))
		for b := 0; b < bins; b++ {
			select {
			case <-stop:
				return
			default:
			}
			batch = batch[:0]
			for i, s := range series {
				if b < s.Len() && !math.IsNaN(s.Values[b]) {
					batch = append(batch, monitor.Measurement{Key: keys[i], T: s.Start.Add(time.Duration(b) * s.Step), V: s.Values[b]})
				}
			}
			store.AppendBatch(batch)
			if !l.ready {
				continue
			}
			for len(due) > 0 && due[0] <= b {
				select {
				case <-reported:
					due = due[1:]
				case <-stop:
					return
				}
			}
			if len(due) == 0 {
				return
			}
		}
	}()
	deadline := time.After(5 * time.Minute)
	for range cases {
		select {
		case rep := <-sr.Reports():
			check(index[rep.Change.ID], rep, nil)
			reported <- struct{}{}
		case <-deadline:
			t.Fatalf("%d changes still pending", sr.Pending())
		}
	}
	if n := sr.Pending(); n != 0 {
		t.Errorf("%d changes pending after every report", n)
	}
	if hits, misses := cc.hits.Load(), cc.misses.Load(); hits != states-int64(l.refused) || misses != int64(l.refused) {
		t.Errorf("score cache: %d hits and %d misses on stored KPIs, %d score states, %d to refuse", hits, misses, states, l.refused)
	}
	t.Logf("%s: %d score states, %d served from the stream; %d service aggregates swept at assessment",
		c.name, states, cc.hits.Load(), cc.computed.Load())
}

// accuracyCorpora generates, once per test binary, the pinned bake-off
// corpus (EXPERIMENTS.md) and the workload.DefaultParams() corpus of
// Table 1 / RESULTS.txt.
var accuracyCorpora = sync.OnceValues(func() ([]*corpus, error) {
	bake := workload.DefaultParams()
	bake.Changes, bake.HistoryDays, bake.Seed, bake.TrapFraction = 48, 3, 7, 0.25
	var out []*corpus
	for i, p := range []workload.Params{bake, workload.DefaultParams()} {
		sc, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		c := scenarioCorpus([]string{"bakeoff", "default"}[i], sc, p.HistoryDays)
		c.shortStride = []int{6, 24}[i]
		out = append(out, c)
	}
	return out, nil
})

// accuracyLegs runs, per accuracy corpus and per source — the MapSource
// ("map") and, except under -short, since ingesting a corpus is most of
// these tests' time, a chunked store ("store") — the leg mk makes.
func accuracyLegs(t *testing.T, mk func(source func(*testing.T, *corpus) SeriesSource) leg) {
	corpora, err := accuracyCorpora()
	if err != nil {
		t.Fatal(err)
	}
	sources := []string{"map", "store"}
	if testing.Short() {
		sources = sources[:1]
	}
	for _, c := range corpora {
		for _, name := range sources {
			var src func(*testing.T, *corpus) SeriesSource
			if name == "store" {
				src = chunked(512, monitor.StoreShards)
			}
			t.Run(c.name+"/"+name, func(t *testing.T) { c.run(t, mk(src)) })
		}
	}
}

// observed is the collector leg: the deployed assessor with telemetry
// attached and the given KPI workers. Each report's trace must list its
// KPIs in impact-set order with their verdicts, every window must be
// timed, and the bound must answer most of them.
func observed(source func(*testing.T, *corpus) SeriesSource, workers int) leg {
	return leg{
		name: "collector", source: source,
		edit: func(cfg *Config, _ *Stages) { cfg.Obs, cfg.AssessWorkers = obs.NewCollector(), workers },
		each: func(t *testing.T, rep *Report) {
			if rep.Trace == nil || len(rep.Trace.KPIs) != len(rep.Assessments) {
				t.Errorf("%s: collector attached, but the trace does not list the report's KPIs", rep.Change.ID)
				return
			}
			for j, a := range rep.Assessments {
				k, err := rep.Trace.KPIs[j], ""
				if a.Err != nil {
					err = a.Err.Error()
				}
				if k.Key != a.Key.String() || k.Verdict != a.Verdict.String() || k.Err != err {
					t.Errorf("%s trace[%d]: %s/%s/%q, report %v/%v/%q", rep.Change.ID, j, k.Key, k.Verdict, k.Err, a.Key, a.Verdict, err)
				}
			}
		},
		done: func(t *testing.T, cfg Config, kpis int) {
			if n := cfg.Obs.Stage(obs.StageSSTWindow).Count(); n < int64(kpis) {
				t.Errorf("sst_window count = %d over %d KPIs: the sweep went untimed", n, kpis)
			}
			bounded, solved := cfg.Obs.Counter(obs.CtrWindowsBounded), cfg.Obs.Counter(obs.CtrWindowsSolved)
			if bounded < solved {
				t.Errorf("the bound answered %d of %d windows: expected most", bounded, bounded+solved)
			}
			t.Logf("%d windows, %.1f%% answered by the bound", bounded+solved, 100*float64(bounded)/float64(bounded+solved))
		},
	}
}

// TestTelemetryInvariance: attaching a collector changes nothing but
// Report.Trace on either accuracy corpus.
func TestTelemetryInvariance(t *testing.T) {
	accuracyLegs(t, func(src func(*testing.T, *corpus) SeriesSource) leg { return observed(src, 0) })
}

// TestBoundFirstInvariance: telling the sweep the detection threshold
// (sst.SlidingScorer.Floor, set by NewAssessor) changes nothing against
// a sweep at Floor 0, which eigen-solves every window.
func TestBoundFirstInvariance(t *testing.T) {
	accuracyLegs(t, func(src func(*testing.T, *corpus) SeriesSource) leg {
		return leg{
			name: "solve-all", source: src,
			edit: func(cfg *Config, st *Stages) {
				cfg.Obs = obs.NewCollector()
				st.Scorer = sst.NewIKA(cfg.withDefaults().SST)
			},
			done: func(t *testing.T, cfg Config, _ int) {
				if bounded, solved := cfg.Obs.Counter(obs.CtrWindowsBounded), cfg.Obs.Counter(obs.CtrWindowsSolved); bounded != 0 || solved == 0 {
					t.Fatalf("solve-all assessor: %d bounded, %d solved", bounded, solved)
				}
			},
		}
	})
}

// perWindowIKA hides *sst.IKA's concrete type from sst.NewSliding, so
// the wrapper finds no incremental path and scores every position with
// the exact per-window ScoreAt.
type perWindowIKA struct{ *sst.IKA }

// TestDeployedMatchesPerWindowIKA: the deployed sweep is the paper's
// per-window IKA. On both accuracy corpora the only field that may differ
// from an assessor scoring each window from scratch is the detection's
// peak score, by the incremental Gram products' rounding (1e-9 relative).
func TestDeployedMatchesPerWindowIKA(t *testing.T) {
	corpora, err := accuracyCorpora()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			c.run(t, leg{name: "per-window IKA", peak: true, edit: func(cfg *Config, st *Stages) {
				st.Scorer = perWindowIKA{sst.NewIKA(cfg.withDefaults().SST)}
			}})
		})
	}
}

// TestStreamedCorpusMatchesBatch streams the bake-off corpus — instance
// KPIs, dark and full launches, service aggregates, the historical arm —
// through the Streamer: every report equals the batch reference.
func TestStreamedCorpusMatchesBatch(t *testing.T) {
	corpora, err := accuracyCorpora()
	if err != nil {
		t.Fatal(err)
	}
	corpora[0].run(t, leg{name: "stream", stream: true})
}

// TestReadyBinCorpusMatchesBatch streams the bake-off corpus only up to
// each change's ready bin, at the defaults and with a DiD post-period
// longer than the detection segment's reach: every report equals the
// batch reference on the complete data.
func TestReadyBinCorpusMatchesBatch(t *testing.T) {
	corpora, err := accuracyCorpora()
	if err != nil {
		t.Fatal(err)
	}
	for _, did := range []int{0, 90} {
		v := corpora[0].variant(func(cfg *Config) { cfg.DiDWindow = did }, Stages{})
		v.run(t, leg{name: fmt.Sprintf("ready, DiDWindow %d", did), stream: true, ready: true})
	}
}

// smallCorpus is smallScenario(2) under the default metrics.
func smallCorpus(t *testing.T) *corpus { return scenarioCorpus("small", smallScenario(t, 2), 2) }

func workers(n int) leg {
	return leg{name: fmt.Sprintf("workers=%d", n), edit: func(cfg *Config, _ *Stages) { cfg.AssessWorkers = n }}
}

// TestAssessWorkersMatchSerial: fanning one impact set over a worker
// pool gives the serial report — same assessment order, verdicts,
// estimates, errors and change bin.
func TestAssessWorkersMatchSerial(t *testing.T) {
	c := smallCorpus(t)
	for _, n := range []int{0, 2, 4, 8} {
		c.run(t, workers(n))
	}
}

// TestAssessWorkersTraceOrderDeterministic: with a collector, the merged
// trace lists KPIs in impact-set order, as the serial path appends them.
func TestAssessWorkersTraceOrderDeterministic(t *testing.T) {
	smallCorpus(t).run(t, observed(nil, 8))
}

// TestAssessConcurrentMatchesSerial: four goroutines assess the same
// overlapping impact sets through one assessor (under -race: the pooled
// SST workspaces and the memoized control averages).
func TestAssessConcurrentMatchesSerial(t *testing.T) {
	l := workers(4)
	l.name, l.shared = "shared", 4
	smallCorpus(t).run(t, l)
}
