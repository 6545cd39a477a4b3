package funnel

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/obs"
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

// storeFromScenario ingests every scenario series into a chunked store.
// NaN bins are skipped, not written: a store bin with no measurement
// already reads as NaN, so gaps survive the trip.
func storeFromScenario(t *testing.T, sc *workload.Scenario, span int) *monitor.Store {
	t.Helper()
	st := monitor.NewStore(sc.Start, sc.Step)
	st.SetChunkSpan(span)
	for _, key := range sc.Source.Keys() {
		s, _ := sc.Source.Series(key)
		for i, v := range s.Values {
			if math.IsNaN(v) {
				continue
			}
			st.Append(monitor.Measurement{Key: key, T: s.Start.Add(time.Duration(i) * s.Step), V: v})
		}
	}
	return st
}

// TestWindowedAssessMatchesFlat is the windowed-read equality gate: over
// a config matrix and several chunk spans, assessing from the store's
// windows must produce reports reflect.DeepEqual to the flatStore
// reference reading every key's full series from the same store — same
// verdicts, same detection indices in the full-series frame, same error
// strings.
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

	matrix := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", nil},
		{"gapmask", func(c *Config) { c.GapPolicy = GapMask }},
		{"workers4", func(c *Config) { c.AssessWorkers = 4 }},
		{"skipdid", func(c *Config) { c.SkipDiD = true }},
		{"skipdetection", func(c *Config) { c.SkipDetection = true }},
		{"trends", func(c *Config) { c.VerifyParallelTrends = true; c.AssessWorkers = 4 }},
		{"history1", func(c *Config) { c.HistoryDays = 1 }},
	}

	for _, span := range []int{64, 512} {
		st := storeFromScenario(t, sc, span)
		for _, m := range matrix {
			t.Run(fmt.Sprintf("span%d/%s", span, m.name), func(t *testing.T) {
				cfg := Config{
					ServerMetrics:   workload.ServerMetrics(),
					InstanceMetrics: workload.InstanceMetrics(),
					HistoryDays:     2,
				}
				if m.mutate != nil {
					m.mutate(&cfg)
				}
				win, err := NewAssessor(st, sc.Topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := NewAssessor(flatStore{st}, sc.Topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				changes := make([]struct {
					label string
					at    time.Time
				}, 0, len(sc.Cases)+2)
				for i, cs := range sc.Cases {
					changes = append(changes, struct {
						label string
						at    time.Time
					}{fmt.Sprintf("case%d", i), cs.Change.At})
				}
				// Degenerate change times: near the epoch (fetch window
				// clamps to bin 0) and before it (negative change bin).
				changes = append(changes,
					struct {
						label string
						at    time.Time
					}{"near-start", sc.Start.Add(40 * sc.Step)},
					struct {
						label string
						at    time.Time
					}{"before-start", sc.Start.Add(-2 * time.Hour)},
				)
				for _, cc := range changes {
					ch := sc.Cases[0].Change
					ch.At = cc.at
					got, gerr := win.Assess(ch)
					want, werr := flat.Assess(ch)
					if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
						t.Fatalf("%s: err %v vs flat %v", cc.label, gerr, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: windowed report diverges from flat\n got: %+v\nwant: %+v", cc.label, got, want)
					}
				}
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
// windowed path itself: serial and fanned-out assessments of the same
// change must be identical (the fetch cache is shared per assessment).
func TestWindowedAssessRepeatable(t *testing.T) {
	sc := smallScenario(t, 2)
	st := storeFromScenario(t, sc, 64)
	serial := newAssessorOver(t, st, sc, func(c *Config) { c.AssessWorkers = 1 })
	fanned := newAssessorOver(t, st, sc, func(c *Config) { c.AssessWorkers = 8 })
	for _, cs := range sc.Cases {
		a, err := serial.Assess(cs.Change)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fanned.Assess(cs.Change)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("worker fan-out changed the windowed report")
		}
	}
}

// TestWinFetcherReturnsTrueWindows proves the windowed path engages at
// both depths: for a change late in a long retention every fetched
// series must be a strict window of the full series, not the fallback
// full copy, its offset must map window bins back to full-series
// positions, and the near window must be the tail of the deep one.
func TestWinFetcherReturnsTrueWindows(t *testing.T) {
	sc := smallScenario(t, 1)
	st := storeFromScenario(t, sc, 64)
	a := newAssessorOver(t, st, sc, nil)
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
	// Service aggregates are left out of the store, so every
	// service-scope KPI is computed from its instances at either depth.
	st := monitor.NewStore(sc.Start, sc.Step)
	st.SetChunkSpan(128)
	for _, key := range sc.Source.Keys() {
		if key.Scope == topo.ScopeService {
			continue
		}
		s, _ := sc.Source.Series(key)
		for b, v := range s.Values {
			if !math.IsNaN(v) {
				st.Append(monitor.Measurement{Key: key, T: s.Start.Add(time.Duration(b) * s.Step), V: v})
			}
		}
	}

	matrix := []struct {
		name   string
		mutate func(*Config)
	}{
		{"daily3", func(c *Config) { c.HistoryDays = 3 }},
		{"weekly7", func(c *Config) { c.HistoryDays = 7 }},
		{"trends3", func(c *Config) { c.HistoryDays = 3; c.VerifyParallelTrends = true; c.AssessWorkers = 4 }},
		{"trends7", func(c *Config) { c.HistoryDays = 7; c.VerifyParallelTrends = true }},
		// Every KPI reaches determine, so every full-launch and
		// affected-service KPI reads its history.
		{"all-determined", func(c *Config) { c.HistoryDays = 7; c.SkipDetection = true; c.VerifyParallelTrends = true }},
	}
	for _, m := range matrix {
		t.Run(m.name, func(t *testing.T) {
			cfg := base
			m.mutate(&cfg)
			cfg.Obs = obs.NewCollector()
			win, err := NewAssessor(st, sc.Topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Obs = nil
			flat, err := NewAssessor(flatStore{st}, sc.Topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			historical, aggregates := 0, 0
			assess := func(label string, ch changelog.Change) {
				got, gerr := win.Assess(ch)
				want, werr := flat.Assess(ch)
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("%s: err %v vs flat %v", label, gerr, werr)
				}
				if gerr != nil {
					return
				}
				got.Trace = nil
				if !reflect.DeepEqual(got, want) {
					for k := range want.Assessments {
						if d := assessmentDiff(got.Assessments[k], want.Assessments[k]); d != "" {
							t.Errorf("%s %v: %s", label, want.Assessments[k].Key, d)
						}
					}
					t.Fatalf("%s: two-depth report diverges from flat", label)
				}
				for _, a := range want.Assessments {
					if a.ControlKind == ControlHistorical {
						historical++
						if a.Key.Scope == topo.ScopeService {
							aggregates++
						}
					}
				}
			}
			for i, cs := range sc.Cases {
				assess(fmt.Sprintf("case%d", i), cs.Change)
			}
			// Too early for any history: half a day after the epoch.
			early := sc.Cases[0].Change
			early.At = sc.Start.Add(700 * sc.Step)
			assess("early", early)
			if historical == 0 || aggregates == 0 {
				t.Fatalf("%d historical-arm verdicts, %d of them on computed aggregates: the deep depth went unexercised", historical, aggregates)
			}
			if n := win.obs.Counter(obs.CtrHistoryFetches); n == 0 {
				t.Fatal("funnel.history_fetches stayed 0 with historical-arm verdicts")
			}
		})
	}

	// A KPI with no detection decodes the near window and nothing else.
	t.Run("decoded-bins", func(t *testing.T) {
		cfg := base
		cfg.HistoryDays = 7
		cfg.Obs = obs.NewCollector()
		wcfg := cfg.withDefaults()
		nearWidth := 2*wcfg.DiDWindow + 2*wcfg.WindowBins + wcfg.SST.WindowSize() + 2*fetchSlack
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

func newAssessorOver(t *testing.T, src SeriesSource, sc *workload.Scenario, mutate func(*Config)) *Assessor {
	t.Helper()
	cfg := Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := NewAssessor(src, sc.Topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
