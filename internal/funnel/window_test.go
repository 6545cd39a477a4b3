package funnel

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sst"
	"repro/internal/timeseries"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Both sources serve the one read contract.
var (
	_ SeriesSource = (*monitor.Store)(nil)
	_ SeriesSource = (*workload.MapSource)(nil)
)

// flatStore is the full-series reference: a monitor.Store whose
// RangeInto ignores the window and returns the key's whole series from
// the epoch, so an assessor built over it reads every KPI in full while
// reading the exact same bits as the windowed assessor.
type flatStore struct{ *monitor.Store }

func (f flatStore) RangeInto(key topo.KPIKey, _, _ time.Time, dst []float64) ([]float64, time.Time, bool) {
	s, ok := f.Series(key)
	if !ok {
		return dst, time.Time{}, false
	}
	return append(dst[:0], s.Values...), s.Start, true
}

// alwaysChanged scores every position far above any threshold, so every
// KPI is detected and its verdict is left to DiD.
type alwaysChanged struct{}

func (alwaysChanged) ScoreAt([]float64, int) float64 { return math.MaxFloat64 }
func (alwaysChanged) Config() sst.Config             { return sst.Config{} }

// TestWindowedAssessMatchesFlat is the windowed-read equality gate:
// over a config matrix and two chunk spans, assessing from the store's
// windows and from flatStore, which reads every key's full series, must
// give the reference's reports — same verdicts, same detection indices
// in the full-series frame, same error strings — also for a change near
// the epoch (the fetch window clamps to bin 0) and one before it
// (negative change bin).
func TestWindowedAssessMatchesFlat(t *testing.T) {
	p := workload.DefaultParams()
	p.Changes = 4
	p.HistoryDays = 2
	p.ConfounderFraction = 0.5
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Punch a wide gap run into a few series around where the fetch
	// window for the assessment-day changes begins, so the NaN-boundary
	// fallback branch is exercised alongside clean windowed fetches.
	keys := sc.Source.Keys()
	for i := 0; i < 3 && i < len(keys); i++ {
		s, _ := sc.Source.Series(keys[i])
		for b := 480; b < 700 && b < s.Len(); b++ {
			s.Values[b] = math.NaN()
		}
	}
	base := scenarioCorpus("windowed", sc, 2)
	base.extra = []time.Time{sc.Start.Add(40 * sc.Step), sc.Start.Add(-2 * time.Hour)}

	matrix := []struct {
		name   string
		mutate func(*Config)
		stages Stages
	}{
		{"default", nil, Stages{}},
		{"gapmask", func(c *Config) { c.GapPolicy = GapMask }, Stages{}},
		{"workers4", func(c *Config) { c.AssessWorkers = 4 }, Stages{}},
		{"skipdid", func(c *Config) { c.SkipDiD = true }, Stages{}},
		{"skipdetection", nil, Stages{Scorer: alwaysChanged{}}},
		{"trends", func(c *Config) { c.VerifyParallelTrends = true; c.AssessWorkers = 4 }, Stages{}},
		{"history1", func(c *Config) { c.HistoryDays = 1 }, Stages{}},
	}
	variants := make([]*corpus, len(matrix))
	for i, m := range matrix {
		variants[i] = base.variant(m.mutate, m.stages)
	}
	for _, span := range []int{64, 512} {
		for i, m := range matrix {
			t.Run(fmt.Sprintf("span%d/%s", span, m.name), func(t *testing.T) {
				variants[i].run(t, leg{name: "chunked", source: chunked(span, monitor.StoreShards)})
				variants[i].run(t, leg{name: "flat", source: flat(span)})
			})
		}
	}
}

// TestRangeIntoContract holds both sources to one RangeInto: a chunked
// store and a MapSource holding the same gap-free series return the same
// window bits, window start and ok for every way a window can sit
// against the stored span.
func TestRangeIntoContract(t *testing.T) {
	t0 := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	const n = 100
	key := topo.KPIKey{Scope: topo.ScopeServer, Entity: "s1", Metric: "cpu"}
	vals := make([]float64, n)
	st := monitor.NewStore(t0, time.Minute)
	st.SetChunkSpan(16)
	for i := range vals {
		vals[i] = 40 + 10*math.Sin(float64(i)/7) + float64(i%3)/8
		st.Append(monitor.Measurement{Key: key, T: t0.Add(time.Duration(i) * time.Minute), V: vals[i]})
	}
	ms := workload.NewMapSource(t0, time.Minute)
	ms.Put(key, timeseries.New(t0, time.Minute, vals))

	at := func(m float64) time.Time { return t0.Add(time.Duration(m * float64(time.Minute))) }
	cases := []struct {
		name     string
		key      topo.KPIKey
		from, to time.Time
		ok       bool
	}{
		{"before-epoch", key, at(-30), at(-10), false},
		{"straddles-epoch", key, at(-10), at(10), true},
		{"interior", key, at(20), at(50), true},
		{"straddles-end", key, at(90), at(120), true},
		{"past-end", key, at(n), at(n + 30), false},
		{"empty", key, at(20), at(20), false},
		{"to-mid-bin", key, at(20), at(30.5), true},
		{"from-mid-bin", key, at(20.5), at(30), true},
		{"unknown-key", topo.KPIKey{Scope: topo.ScopeServer, Entity: "s2", Metric: "cpu"}, at(0), at(10), false},
	}
	for _, c := range cases {
		want, wstart, wok := st.RangeInto(c.key, c.from, c.to, nil)
		got, gstart, gok := ms.RangeInto(c.key, c.from, c.to, nil)
		if gok != wok || wok != c.ok {
			t.Fatalf("%s: ok map %v, store %v, want %v", c.name, gok, wok, c.ok)
		}
		if !gstart.Equal(wstart) {
			t.Fatalf("%s: start map %v, store %v", c.name, gstart, wstart)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: map %d bins, store %d", c.name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: bin %d map %v, store %v", c.name, i, got[i], want[i])
			}
		}
	}
	if got, _, _ := ms.RangeInto(key, at(20), at(30.5), nil); len(got) != 11 {
		t.Fatalf("a to inside bin 30 must round up to 11 bins, got %d", len(got))
	}
}

// TestWindowedAssessRepeatable pins worker-count independence on the
// windowed path itself, over a one-shard store: fanned-out assessments
// share one fetch cache per assessment.
func TestWindowedAssessRepeatable(t *testing.T) {
	l := workers(8)
	l.name, l.source = "chunked, 1 shard", chunked(64, 1)
	smallCorpus(t).run(t, l)
}

// TestWinFetcherReturnsTrueWindows proves the windowed path engages at
// both depths: for a change late in a long retention every fetched
// series must be a strict window of the full series, not the fallback
// full copy, its offset must map window bins back to full-series
// positions, and the near window must be the tail of the deep one.
func TestWinFetcherReturnsTrueWindows(t *testing.T) {
	sc := smallScenario(t, 1)
	st := storeOf(sc.Source, 64, monitor.StoreShards)
	a, err := NewAssessor(st, sc.Topo, Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx := newWinFetcher(a.source, sc.Cases[0].Change.At, &a.cfg, &a.fetchBufs)
	defer fx.release()
	for name, depth := range map[string]*fetchDepth{"near": &fx.near, "deep": &fx.deep} {
		windowed := 0
		for _, key := range sc.Source.Keys() {
			full, ok := st.Series(key)
			if !ok {
				t.Fatalf("store lost %v", key)
			}
			got, ok := depth.Series(key)
			if !ok {
				t.Fatalf("%s fetcher lost %v", name, key)
			}
			off := fx.offsetOf(got)
			if got.Len()+off > full.Len() || off < 0 {
				t.Fatalf("%s %v: window [off %d, len %d] outside full len %d", name, key, off, got.Len(), full.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if math.Float64bits(got.Values[i]) != math.Float64bits(full.Values[i+off]) {
					t.Fatalf("%s %v: window bin %d differs from full bin %d", name, key, i, i+off)
				}
			}
			if got.Len() < full.Len() {
				windowed++
			}
		}
		if windowed == 0 {
			t.Fatalf("every %s fetch fell back to the full series — windowed path never engaged", name)
		}
	}
	key := sc.Source.Keys()[0]
	near, _ := fx.near.Series(key)
	deep, _ := fx.deep.Series(key)
	if near.Len() >= deep.Len() || !near.End().Equal(deep.End()) {
		t.Fatalf("near window [%v, %d bins] is not a proper tail of deep [%v, %d bins]", near.Start, near.Len(), deep.Start, deep.Len())
	}
}

// countingStore counts the bins each read hands out, per key.
type countingStore struct {
	*monitor.Store
	mu   sync.Mutex
	bins map[topo.KPIKey]int
	full int // Series calls: full-copy fallbacks
}

func (c *countingStore) RangeInto(key topo.KPIKey, from, to time.Time, dst []float64) ([]float64, time.Time, bool) {
	vals, start, ok := c.Store.RangeInto(key, from, to, dst)
	if ok {
		c.mu.Lock()
		c.bins[key] += len(vals)
		c.mu.Unlock()
	}
	return vals, start, ok
}

func (c *countingStore) Series(key topo.KPIKey) (*timeseries.Series, bool) {
	s, ok := c.Store.Series(key)
	if ok {
		c.mu.Lock()
		c.bins[key] += s.Len()
		c.full++
		c.mu.Unlock()
	}
	return s, ok
}

// TestOnDemandHistoryMatchesFlat holds the two-depth fetcher to the
// flatStore full-series reference over the situations where the depths
// part ways: gap
// runs crossing one depth's edge but not the other's, history read by
// the daily pool and by the weekly one, a computed service aggregate on
// the historical arm, a control member whose feed ended before the near
// window, the placebo tests, and a change with no history behind it —
// then counts what a KPI with no detection decodes.
func TestOnDemandHistoryMatchesFlat(t *testing.T) {
	p := workload.DefaultParams()
	p.Changes = 6
	p.HistoryDays = 8
	p.DarkFraction = 0.5
	p.ConfounderFraction = 0.5
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{ServerMetrics: workload.ServerMetrics(), InstanceMetrics: workload.InstanceMetrics()}
	geom := func(days int, at time.Time) (nearLo, deepLo int) {
		cfg := base
		cfg.HistoryDays = days
		cfg = cfg.withDefaults()
		fx := newWinFetcher(monitor.NewStore(sc.Start, sc.Step), at, &cfg, &sync.Pool{})
		return int(fx.near.from.Sub(sc.Start) / sc.Step), int(fx.deep.from.Sub(sc.Start) / sc.Step)
	}
	punch := func(key topo.KPIKey, lo, hi int) {
		if s, ok := sc.Source.Series(key); ok {
			for b := lo; b < hi && b < s.Len(); b++ {
				s.Values[b] = math.NaN()
			}
		}
	}
	deadControl := false
	for i, cs := range sc.Cases {
		nearLo, deep3 := geom(3, cs.Change.At)
		_, deep7 := geom(7, cs.Change.At)
		if deep7 <= 0 {
			t.Fatalf("case %d: change bin %d leaves no room for a 7-day window", i, cs.ChangeBin)
		}
		// A gap run across one edge: that depth falls back to the full
		// series for the key, the other keeps its window.
		for key := range cs.Truth {
			switch i % 3 {
			case 0:
				punch(key, nearLo-6, nearLo+6)
			case 1:
				punch(key, deep3-6, deep3+6)
				punch(key, deep7-6, deep7+6)
			case 2:
				// Interior to the deep window only, inside yesterday's
				// control period: the history is gap-filled like the
				// near window was.
				punch(key, cs.ChangeBin-1440-12, cs.ChangeBin-1440+4)
			}
		}
		if cs.Set.Dark() && !deadControl && len(cs.Set.CInstances) > 1 {
			// A control instance whose feed ended hours before the
			// change: its near fetch is empty and falls back to the
			// short full series, which shares no span with the windows
			// of the other members.
			deadControl = true
			for _, m := range workload.InstanceMetrics() {
				punch(topo.KPIKey{Scope: topo.ScopeInstance, Entity: cs.Set.CInstances[0], Metric: m}, nearLo-200, math.MaxInt)
			}
		}
	}
	if !deadControl {
		t.Fatal("no dark case to give a dead control member")
	}
	// The corpus holds what a store fed the scenario would: service
	// aggregates are left out, so every service-scope KPI is computed
	// from its instances at either depth, and a series ends at its last
	// real bin.
	src := workload.NewMapSource(sc.Start, sc.Step)
	for _, key := range sc.Source.Keys() {
		s, _ := sc.Source.Series(key)
		n := s.Len()
		for n > 0 && math.IsNaN(s.Values[n-1]) {
			n--
		}
		if key.Scope != topo.ScopeService && n > 0 {
			src.Put(key, timeseries.New(s.Start, s.Step, s.Values[:n]))
		}
	}
	od := scenarioCorpus("on-demand", sc, 0)
	od.src = src
	// Too early for any history: half a day after the epoch.
	od.extra = []time.Time{sc.Start.Add(700 * sc.Step)}

	matrix := []struct {
		name   string
		mutate func(*Config)
		stages Stages
	}{
		{"daily3", func(c *Config) { c.HistoryDays = 3 }, Stages{}},
		{"weekly7", func(c *Config) { c.HistoryDays = 7 }, Stages{}},
		{"trends3", func(c *Config) { c.HistoryDays = 3; c.VerifyParallelTrends = true; c.AssessWorkers = 4 }, Stages{}},
		{"trends7", func(c *Config) { c.HistoryDays = 7; c.VerifyParallelTrends = true }, Stages{}},
		// Every KPI reaches determine, so every full-launch and
		// affected-service KPI reads its history.
		{"all-determined", func(c *Config) { c.HistoryDays = 7; c.VerifyParallelTrends = true }, Stages{Scorer: alwaysChanged{}}},
	}
	for _, m := range matrix {
		t.Run(m.name, func(t *testing.T) {
			c := od.variant(m.mutate, m.stages)
			historical, aggregates := 0, 0
			c.run(t, leg{
				name: "chunked", source: chunked(128, monitor.StoreShards),
				edit: func(cfg *Config, _ *Stages) { cfg.Obs = obs.NewCollector() },
				each: func(_ *testing.T, rep *Report) {
					for _, a := range rep.Assessments {
						if a.ControlKind == ControlHistorical {
							historical++
							if a.Key.Scope == topo.ScopeService {
								aggregates++
							}
						}
					}
				},
				done: func(t *testing.T, cfg Config, _ int) {
					if historical == 0 || aggregates == 0 {
						t.Fatalf("%d historical-arm verdicts, %d of them on computed aggregates: the deep depth went unexercised", historical, aggregates)
					}
					if n := cfg.Obs.Counter(obs.CtrHistoryFetches); n == 0 {
						t.Fatal("funnel.history_fetches stayed 0 with historical-arm verdicts")
					}
				},
			})
			c.run(t, leg{name: "flat", source: flat(128)})
		})
	}

	// A KPI with no detection decodes the near window and nothing else.
	st := storeOf(src, 128, monitor.StoreShards)
	t.Run("decoded-bins", func(t *testing.T) {
		cfg := base
		cfg.HistoryDays = 7
		cfg.Obs = obs.NewCollector()
		wcfg := cfg.withDefaults()
		nearWidth := 2*wcfg.DiDWindow + 2*wcfg.WindowBins + wcfg.SST.PastSpan() + wcfg.SST.FutureSpan() + 2*fetchSlack
		checked := 0
		for i, cs := range sc.Cases {
			if i%3 != 2 {
				continue // cases with a gap at a window edge pay full copies by design
			}
			cst := &countingStore{Store: st, bins: make(map[topo.KPIKey]int)}
			a, err := NewAssessor(cst, sc.Topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := cfg.Obs.Counter(obs.CtrHistoryFetches)
			rep, err := a.Assess(cs.Change)
			if err != nil {
				t.Fatal(err)
			}
			historical := 0
			for _, as := range rep.Assessments {
				if as.ControlKind == ControlHistorical {
					historical++
				}
			}
			fetched := int(cfg.Obs.Counter(obs.CtrHistoryFetches) - before)
			if (historical == 0) != (fetched == 0) {
				t.Errorf("case %d: %d historical-arm verdicts but %d deep fetches", i, historical, fetched)
			}
			if historical > 0 {
				continue
			}
			checked++
			if cst.full != 0 {
				t.Errorf("case %d: %d full-series copies with no gap at a window edge", i, cst.full)
			}
			for key, n := range cst.bins {
				if n > nearWidth {
					t.Errorf("case %d %v: decoded %d bins, near window is %d", i, key, n, nearWidth)
				}
			}
		}
		if checked == 0 {
			t.Fatal("no clean case without a historical-arm verdict")
		}
	})
}
