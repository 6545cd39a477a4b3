package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/did"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

func TestGeneratorsDeterministic(t *testing.T) {
	a := Render(NewSeasonal(100, 40, 2, 5), 200)
	b := Render(NewSeasonal(100, 40, 2, 5), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seasonal not deterministic at %d", i)
		}
	}
	// Out-of-order queries must agree with in-order rendering.
	g := NewStationary(10, 1, 3)
	v50 := g.At(50)
	_ = g.At(10)
	if g.At(50) != v50 {
		t.Fatal("noise cache not stable under out-of-order access")
	}
	if g.At(-5) != 10 {
		t.Fatal("negative bins should return noiseless level")
	}
}

func TestGeneratorClasses(t *testing.T) {
	cfg := stats.DefaultClassifierConfig()
	if got := stats.ClassifyKPI(Render(NewSeasonal(1000, 380, 25, 1), 3*MinutesPerDay), cfg); got != stats.Seasonal {
		t.Fatalf("seasonal generator classified %v", got)
	}
	if got := stats.ClassifyKPI(Render(NewStationary(55, 0.4, 2), 3*MinutesPerDay), cfg); got != stats.Stationary {
		t.Fatalf("stationary generator classified %v", got)
	}
	if got := stats.ClassifyKPI(Render(NewVariable(5000, 0.3, 3), 3*MinutesPerDay), cfg); got != stats.Variable {
		t.Fatalf("variable generator classified %v", got)
	}
}

func TestEffectShapes(t *testing.T) {
	shift := Effect{StartBin: 10, Magnitude: 5}
	if shift.At(9) != 0 || shift.At(10) != 5 || shift.At(100) != 5 || shift.IsRamp() {
		t.Fatal("level shift shape wrong")
	}
	ramp := Effect{StartBin: 10, Magnitude: 8, RampBins: 4}
	if !ramp.IsRamp() || ramp.At(10) != 0 || ramp.At(12) != 4 || ramp.At(14) != 8 || ramp.At(99) != 8 {
		t.Fatalf("ramp shape wrong: %v %v %v", ramp.At(10), ramp.At(12), ramp.At(14))
	}
}

func TestWithEffects(t *testing.T) {
	base := NewStationary(10, 0, 1) // noiseless
	g := &WithEffects{Base: base, Effects: []Effect{{StartBin: 5, Magnitude: 3}}}
	if g.At(4) != 10 || g.At(5) != 13 {
		t.Fatal("effect overlay wrong")
	}
	if g.Noise() != base.Noise() {
		t.Fatal("noise passthrough wrong")
	}
}

func TestGenerateScenarioShape(t *testing.T) {
	p := DefaultParams()
	p.Changes = 8
	p.HistoryDays = 2
	sc, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Cases) != 8 || sc.Log.Len() != 8 {
		t.Fatalf("cases = %d, log = %d", len(sc.Cases), sc.Log.Len())
	}
	// Even cases carry effects, odd ones don't.
	for i, cs := range sc.Cases {
		hasEffect := false
		for _, tr := range cs.Truth {
			if tr.Changed {
				hasEffect = true
			}
		}
		if wantEffect := i%2 == 0; hasEffect != wantEffect {
			t.Fatalf("case %d effect presence = %v, want %v", i, hasEffect, wantEffect)
		}
	}
}

func TestScenarioSeriesCoverImpactSet(t *testing.T) {
	p := DefaultParams()
	p.Changes = 4
	p.HistoryDays = 1
	sc, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range sc.Cases {
		keys := cs.Set.TreatedKPIs(ServerMetrics(), InstanceMetrics())
		for _, k := range keys {
			s, ok := sc.Source.Series(k)
			if !ok {
				t.Fatalf("missing series for treated key %v", k)
			}
			if s.Len() != sc.HistoryBins+MinutesPerDay {
				t.Fatalf("series %v length %d", k, s.Len())
			}
			if _, ok := cs.Truth[k]; !ok {
				t.Fatalf("missing truth for treated key %v", k)
			}
			// Control keys must exist too.
			for _, ck := range cs.Set.ControlKPIs(k) {
				if _, ok := sc.Source.Series(ck); !ok {
					t.Fatalf("missing control series %v", ck)
				}
			}
		}
	}
}

func TestScenarioEffectActuallyMovesKPI(t *testing.T) {
	p := DefaultParams()
	p.Changes = 2
	p.HistoryDays = 1
	p.RampFraction = 0 // pure level shifts for a crisp check
	sc, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cs := sc.Cases[0] // effect case
	found := false
	for key, tr := range cs.Truth {
		if !tr.Changed || key.Scope == topo.ScopeService {
			continue
		}
		s, _ := sc.Source.Series(key)
		pre := s.Values[tr.StartBin-40 : tr.StartBin]
		post := s.Values[tr.StartBin+5 : tr.StartBin+45]
		d := math.Abs(stats.Median(post) - stats.Median(pre))
		noise := stats.MAD(pre) * stats.MADScale
		if d > 4*noise {
			found = true
		} else {
			t.Errorf("effect on %v too weak: Δ=%v noise=%v", key, d, noise)
		}
	}
	if !found {
		t.Fatal("no injected effects found in case 0")
	}
}

func TestScenarioConfounderHitsBothGroups(t *testing.T) {
	p := DefaultParams()
	p.Changes = 40
	p.HistoryDays = 1
	p.ConfounderFraction = 1 // force confounders on all no-effect cases
	sc, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	for i, cs := range sc.Cases {
		if i%2 == 0 || len(cs.Set.CServers) == 0 {
			continue // effect cases or full launches
		}
		var confAt int
		var anyKey topo.KPIKey
		for k, tr := range cs.Truth {
			if tr.ConfounderAt >= 0 && k.Scope == topo.ScopeServer {
				confAt = tr.ConfounderAt
				anyKey = k
				break
			}
		}
		if confAt == 0 {
			continue
		}
		// Control servers must move at the same bin.
		ck := cs.Set.ControlKPIs(anyKey)[0]
		s, _ := sc.Source.Series(ck)
		pre := s.Values[confAt-30 : confAt]
		post := s.Values[confAt+2 : confAt+32]
		d := math.Abs(stats.Median(post) - stats.Median(pre))
		if d < 2*stats.MAD(pre)*stats.MADScale {
			t.Fatalf("confounder did not reach control group %v (Δ=%v)", ck, d)
		}
		checked = true
		break
	}
	if !checked {
		t.Skip("no dark-launch confounder case generated; increase Changes")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(Params{Changes: 0}); err == nil {
		t.Fatal("zero changes should error")
	}
	if _, err := Generate(Params{Changes: 2, ServersPerService: 1}); err == nil {
		t.Fatal("single server should error")
	}
}

func TestGenerateRedisShape(t *testing.T) {
	rc, err := GenerateRedis(DefaultRedisParams())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 118 KPIs in the impact set, 16 with changes.
	if got := rc.Source.Len(); got != 118 {
		t.Fatalf("redis impact KPIs = %d, want 118", got)
	}
	if len(rc.ClassAServers)+len(rc.ClassBServers) != 16 {
		t.Fatalf("rebalanced servers = %d, want 16", len(rc.ClassAServers)+len(rc.ClassBServers))
	}
	// Class A NIC drops, class B rises.
	checkShift := func(server string, wantUp bool) {
		key := topo.KPIKey{Scope: topo.ScopeServer, Entity: server, Metric: MetricNIC}
		s, ok := rc.Source.Series(key)
		if !ok {
			t.Fatalf("missing NIC series for %s", server)
		}
		pre := s.Values[rc.ChangeBin-60 : rc.ChangeBin]
		post := s.Values[rc.ChangeBin+5 : rc.ChangeBin+65]
		d := stats.Median(post) - stats.Median(pre)
		if wantUp && d <= 0 || !wantUp && d >= 0 {
			t.Fatalf("%s NIC shift = %v, wantUp=%v", server, d, wantUp)
		}
	}
	checkShift(rc.ClassAServers[0], false)
	checkShift(rc.ClassBServers[0], true)
	if _, err := GenerateRedis(RedisParams{}); err == nil {
		t.Fatal("empty redis params should error")
	}
}

func TestGenerateAdClicksShape(t *testing.T) {
	ac, err := GenerateAdClicks(DefaultAdParams())
	if err != nil {
		t.Fatal(err)
	}
	key := topo.KPIKey{Scope: topo.ScopeService, Entity: ac.Service, Metric: MetricEffectiveClicks}
	s, ok := ac.Source.Series(key)
	if !ok {
		t.Fatal("missing service clicks series")
	}
	// The dip between change and fix must be a clear drop vs the same
	// window a day earlier.
	dip := stats.Median(s.Values[ac.ChangeBin+10 : ac.FixBin-10])
	prior := stats.Median(s.Values[ac.ChangeBin+10-MinutesPerDay : ac.FixBin-10-MinutesPerDay])
	if dip >= prior*0.85 {
		t.Fatalf("dip %v not clearly below prior-day level %v", dip, prior)
	}
	// After the fix the level recovers.
	after := stats.Median(s.Values[ac.FixBin+10 : ac.FixBin+70])
	priorAfter := stats.Median(s.Values[ac.FixBin+10-MinutesPerDay : ac.FixBin+70-MinutesPerDay])
	if after < priorAfter*0.9 {
		t.Fatalf("post-fix level %v did not recover to prior-day %v", after, priorAfter)
	}
	// Strong seasonality is the point of the case.
	if got := stats.ClassifyKPI(s.Values, stats.DefaultClassifierConfig()); got != stats.Seasonal {
		t.Fatalf("ad clicks classified %v", got)
	}
	if _, err := GenerateAdClicks(AdParams{}); err == nil {
		t.Fatal("empty ad params should error")
	}
}

func TestMapSource(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	m := NewMapSource(start, time.Minute)
	if m.Len() != 0 || len(m.Keys()) != 0 {
		t.Fatal("empty source not empty")
	}
	if _, ok := m.Series(topo.KPIKey{}); ok {
		t.Fatal("missing key should be !ok")
	}
	if !m.Start().Equal(start) || m.Step() != time.Minute {
		t.Fatalf("epoch %v step %v", m.Start(), m.Step())
	}
	for _, e := range []string{"b", "c", "a"} {
		m.Put(topo.KPIKey{Scope: topo.ScopeServer, Entity: e, Metric: "m"}, timeseries.New(start, time.Minute, []float64{1, 2, 3}))
	}
	if keys := m.Keys(); keys[0].Entity != "a" || keys[1].Entity != "b" || keys[2].Entity != "c" {
		t.Fatalf("Keys not sorted: %v", keys)
	}
	// RangeInto hands out a copy: the fetcher recycles its buffers.
	key := topo.KPIKey{Scope: topo.ScopeServer, Entity: "a", Metric: "m"}
	vals, from, ok := m.RangeInto(key, start.Add(time.Minute), start.Add(time.Hour), nil)
	if !ok || len(vals) != 2 || vals[0] != 2 || !from.Equal(start.Add(time.Minute)) {
		t.Fatalf("RangeInto = %v from %v, ok %v", vals, from, ok)
	}
	vals[0] = 99
	if s, _ := m.Series(key); s.Values[1] != 2 {
		t.Fatal("RangeInto aliased the stored series")
	}
}

func TestWeeklySeasonalModulation(t *testing.T) {
	g := NewWeeklySeasonal(100, 0, 0, 0.7, 1) // flat level, no noise
	if v := g.At(0); v != 100 {
		t.Fatalf("weekday level = %v", v)
	}
	if v := g.At(5 * MinutesPerDay); v != 70 {
		t.Fatalf("weekend level = %v", v)
	}
	if v := g.At(7 * MinutesPerDay); v != 100 {
		t.Fatalf("next-week level = %v", v)
	}
	// Still classified seasonal with the daily cycle present.
	wk := NewWeeklySeasonal(1000, 380, 25, 0.7, 2)
	if got := stats.ClassifyKPI(Render(wk, 3*MinutesPerDay), stats.DefaultClassifierConfig()); got != stats.Seasonal {
		t.Fatalf("weekly seasonal classified %v", got)
	}
}

func TestWeeklySeasonalHistoricalDiD(t *testing.T) {
	// With a multi-week baseline, the seasonal DiD reads a weekend
	// transition as non-causal: the same transition exists at the same
	// clock time in the historical weeks.
	g := NewWeeklySeasonal(1000, 200, 10, 0.7, 3)
	n := 3*MinutesPerWeek + 6*MinutesPerDay
	s := timeseries.New(time.Date(2015, 11, 2, 0, 0, 0, 0, time.UTC), time.Minute, Render(g, n))
	// Assess at the Friday→Saturday boundary of the last simulated
	// week: the KPI genuinely drops by 30%, but it does so every week.
	tIdx := 3*MinutesPerWeek + 5*MinutesPerDay
	res, err := did.EstimateSeasonalAuto(s, tIdx, 60, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Weekday-matched weekly lags cancel the weekend transition almost
	// exactly (the raw drop is ≈ 300 units).
	if math.Abs(res.Alpha) > 30 {
		t.Fatalf("weekly seasonal α = %v, want well under the raw 300-unit drop", res.Alpha)
	}
}

func TestGapFraction(t *testing.T) {
	p := DefaultParams()
	p.Changes = 2
	p.HistoryDays = 1
	p.GapFraction = 0.02
	sc, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	gapped := 0
	for _, key := range sc.Source.Keys() {
		s, _ := sc.Source.Series(key)
		for _, v := range s.Values {
			if math.IsNaN(v) {
				gapped++
				break
			}
		}
	}
	if gapped != sc.Source.Len() {
		t.Fatalf("only %d/%d series carry gaps", gapped, sc.Source.Len())
	}
	p.GapFraction = 0.9
	if _, err := Generate(p); err == nil {
		t.Fatal("absurd gap fraction should error")
	}
}

func TestTrapGenerators(t *testing.T) {
	// Trending: deterministic drift from FromBin, base untouched before.
	base := NewStationary(10, 0, 1) // noiseless
	tr := NewTrending(base, 0.5, 100)
	if tr.At(100) != 10 || tr.At(102) != 11 || tr.At(200) != 60 {
		t.Fatalf("trend shape wrong: %v %v %v", tr.At(100), tr.At(102), tr.At(200))
	}
	if tr.Noise() != base.Noise() {
		t.Fatal("Trending must delegate Noise to its base")
	}

	// LongRange: bit-deterministic from seed, stable out of order, with a
	// wandering local mean (adjacent 200-bin window means must disperse
	// far more than white noise of the same scale would).
	a := Render(NewLongRange(50, 2, 9), 4000)
	b := Render(NewLongRange(50, 2, 9), 4000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("long-range generator not deterministic at %d", i)
		}
	}
	g := NewLongRange(50, 2, 9)
	v := g.At(300)
	_ = g.At(5)
	if g.At(300) != v {
		t.Fatal("long-range cache not stable under out-of-order access")
	}
	if g.At(-1) != 50 {
		t.Fatal("negative bins should return the level")
	}
	var meanSpread float64
	for w := 0; w+200 <= len(a); w += 200 {
		m := 0.0
		for _, x := range a[w : w+200] {
			m += x
		}
		m /= 200
		meanSpread += (m - 50) * (m - 50)
	}
	meanSpread = math.Sqrt(meanSpread / 20)
	// White noise at scale 2 would give window-mean SD ≈ 2/√200 ≈ 0.14.
	if meanSpread < 0.5 {
		t.Fatalf("long-range window means too stable (SD %.3f): no long memory", meanSpread)
	}

	// Overlay: sums, delegates noise.
	ov := &Overlay{Base: base, Add: NewLongRange(0, 1, 3)}
	if got, want := ov.At(7), base.At(7)+ov.Add.At(7); got != want {
		t.Fatalf("overlay At = %v, want %v", got, want)
	}
}

func TestTrapFractionGatedAndLabelled(t *testing.T) {
	// TrapFraction = 0 must not change a corpus generated before the
	// knob existed: same seed, same bytes.
	p := DefaultParams()
	p.Changes = 8
	p.HistoryDays = 1
	base, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range base.Source.Keys() {
		s1, _ := base.Source.Series(key)
		s2, _ := again.Source.Series(key)
		for i := range s1.Values {
			if s1.Values[i] != s2.Values[i] && !(math.IsNaN(s1.Values[i]) && math.IsNaN(s2.Values[i])) {
				t.Fatalf("corpus not deterministic at %v bin %d", key, i)
			}
		}
	}

	// TrapFraction = 1: every no-effect case is trapped, the ground
	// truth stays Changed=false, and the trap is common — treated and
	// control series of the same case drift together.
	p.TrapFraction = 1
	trapped, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	sawDrift := false
	for ci, cs := range trapped.Cases {
		if ci%2 == 0 {
			continue // cases with injected effects are never trapped
		}
		for key, tr := range cs.Truth {
			if tr.Changed {
				t.Fatalf("trapped case %d key %v labelled Changed", ci, key)
			}
		}
		// The trapped corpus must differ from the untrapped one on
		// no-effect cases (the overlay did something).
		for _, key := range trapped.Source.Keys() {
			s1, _ := base.Source.Series(key)
			s2, _ := trapped.Source.Series(key)
			if s1 == nil {
				continue
			}
			for i := range s2.Values {
				if s2.Values[i] != s1.Values[i] && !math.IsNaN(s2.Values[i]) {
					sawDrift = true
					break
				}
			}
		}
	}
	if !sawDrift {
		t.Fatal("TrapFraction=1 generated a corpus identical to TrapFraction=0")
	}
}
