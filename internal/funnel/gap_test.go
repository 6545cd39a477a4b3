package funnel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/detect"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// gapFixture builds a 4-server dark-launch service (srv-0/srv-1
// treated, srv-2/srv-3 control) whose measurements the caller shapes
// per server via value and stop: feed(srv) returns the last bin
// (exclusive) to feed and a per-bin value function; bins in skip are
// withheld (interior gaps).
func gapFixture(t *testing.T, total int, stop map[string]int, skip map[string]map[int]bool, shift map[string]float64, changeBin int) (*monitor.Store, *topo.Topology) {
	t.Helper()
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := monitor.NewStore(start, time.Minute)
	tp := topo.NewTopology()
	rng := rand.New(rand.NewSource(11))
	for _, srv := range []string{"srv-0", "srv-1", "srv-2", "srv-3"} {
		tp.Deploy("kv.cache", srv)
		end := total
		if s, ok := stop[srv]; ok {
			end = s
		}
		seed := rng.Int63()
		r := rand.New(rand.NewSource(seed))
		for bin := 0; bin < end; bin++ {
			v := 50 + 0.5*r.NormFloat64()
			if bin >= changeBin {
				v += shift[srv]
			}
			if skip[srv][bin] {
				continue
			}
			store.Append(monitor.Measurement{
				Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"},
				T:   start.Add(time.Duration(bin) * time.Minute),
				V:   v,
			})
		}
	}
	return store, tp
}

func gapChange(store *monitor.Store, changeBin int) changelog.Change {
	return changelog.Change{
		ID: "chg-gap", Type: changelog.Upgrade, Service: "kv.cache",
		Servers: []string{"srv-0", "srv-1"},
		At:      store.Start().Add(time.Duration(changeBin) * time.Minute),
	}
}

func assessGap(t *testing.T, store *monitor.Store, tp *topo.Topology, changeBin int, mutate func(*Config)) *Report {
	t.Helper()
	cfg := Config{ServerMetrics: []string{"mem.util"}, WindowBins: 40, Obs: obs.NewCollector()}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := NewAssessor(store, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Assess(gapChange(store, changeBin))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func byEntity(rep *Report) map[string]Assessment {
	out := map[string]Assessment{}
	for _, a := range rep.Assessments {
		out[a.Key.Entity] = a
	}
	return out
}

// A feed severed mid-window must yield an explicit Inconclusive with
// the gap fraction on record — never a (false) flag, never a (false)
// all-clear.
func TestSeveredFeedYieldsInconclusive(t *testing.T) {
	const changeBin, total = 100, 160
	store, tp := gapFixture(t, total,
		map[string]int{"srv-0": changeBin + 10}, // srv-0's feed dies 10 bins after the change
		nil, nil, changeBin)
	col := obs.NewCollector()
	rep := assessGap(t, store, tp, changeBin, func(c *Config) { c.Obs = col })
	got := byEntity(rep)

	dead := got["srv-0"]
	if dead.Verdict != Inconclusive {
		t.Fatalf("severed feed verdict = %v, want inconclusive (err: %v)", dead.Verdict, dead.Err)
	}
	if dead.GapFraction <= 0 {
		t.Fatal("severed feed reported zero gap fraction")
	}
	if dead.Err == nil {
		t.Fatal("inconclusive assessment should explain itself via Err")
	}
	if healthy := got["srv-1"]; healthy.Verdict != NoChange {
		t.Fatalf("healthy quiet feed verdict = %v, want no-change", healthy.Verdict)
	}
	if col.Counter(obs.CtrInconclusive) != 1 {
		t.Fatalf("CtrInconclusive = %d, want 1", col.Counter(obs.CtrInconclusive))
	}
	// The gap fraction must also ride the report trace.
	found := false
	for _, k := range rep.Trace.KPIs {
		if k.Verdict == "inconclusive" && k.GapFraction > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("trace carries no inconclusive KPI with a gap fraction")
	}
}

// A feed that never produced a single bin of the window is 100% gap.
func TestFullySeveredFeedReportsFullGap(t *testing.T) {
	const changeBin, total = 100, 160
	store, tp := gapFixture(t, total,
		map[string]int{"srv-0": changeBin - 60}, // dead before the window opens
		nil, nil, changeBin)
	rep := assessGap(t, store, tp, changeBin, nil)
	dead := byEntity(rep)["srv-0"]
	if dead.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want inconclusive", dead.Verdict)
	}
	if dead.GapFraction != 1 {
		t.Fatalf("GapFraction = %v, want 1 (whole window missing)", dead.GapFraction)
	}
}

// Sporadic interior gaps below the tolerance are interpolated away and
// the assessment proceeds to a real verdict.
func TestSmallInteriorGapsStillAssess(t *testing.T) {
	const changeBin, total = 100, 160
	skip := map[int]bool{}
	for _, b := range []int{70, 83, 96, 110, 121} {
		skip[b] = true
	}
	store, tp := gapFixture(t, total, nil,
		map[string]map[int]bool{"srv-0": skip},
		map[string]float64{"srv-0": 9, "srv-1": 9}, changeBin)
	rep := assessGap(t, store, tp, changeBin, nil)
	got := byEntity(rep)
	a := got["srv-0"]
	if a.Verdict == Inconclusive {
		t.Fatalf("5 missing bins of 80 tripped the gap gate (frac %v)", a.GapFraction)
	}
	if a.GapFraction == 0 {
		t.Fatal("interior gaps not reflected in GapFraction")
	}
	if a.Verdict != ChangedBySoftware {
		t.Fatalf("shifted treated KPI = %v, want changed-by-software", a.Verdict)
	}
}

// GapMask must prevent detections declared purely out of interpolated
// bins: the same series that fires under GapInterpolate (the linear
// fill fabricates a clean ramp across the outage) stays quiet when
// masked, because every score whose window touches a filled bin is
// suppressed.
func TestGapMaskSuppressesInterpolatedDetections(t *testing.T) {
	const changeBin, total = 100, 160
	// srv-0: healthy at 50 before the change, an 18-bin outage right
	// after it, then healthy at 50 + 120 — a huge apparent level shift
	// whose transition exists only as interpolation.
	skip := map[int]bool{}
	for b := changeBin; b < changeBin+18; b++ {
		skip[b] = true
	}
	store, tp := gapFixture(t, total, nil,
		map[string]map[int]bool{"srv-0": skip},
		map[string]float64{"srv-0": 120}, changeBin)

	interp := byEntity(assessGap(t, store, tp, changeBin, nil))["srv-0"]
	if interp.Verdict == NoChange || interp.Verdict == Inconclusive {
		t.Fatalf("interpolated giant shift not detected (verdict %v) — masking test is vacuous", interp.Verdict)
	}

	masked := byEntity(assessGap(t, store, tp, changeBin, func(c *Config) {
		c.GapPolicy = GapMask
	}))["srv-0"]
	if masked.Verdict == Inconclusive {
		t.Fatalf("gap gate fired (frac %v); the mask never got exercised", masked.GapFraction)
	}
	// The post-gap plateau is flat, so with the transition masked there
	// is nothing persistent to declare near the change.
	if masked.Verdict != NoChange {
		t.Fatalf("masked verdict = %v, want no-change (no detection from invented data)", masked.Verdict)
	}
}

// The online assessor must not hang on a change whose probe feed died:
// once the rest of the store has moved past the ready bin by the
// staleness horizon, the change is force-assessed and the stale KPIs
// come back Inconclusive.
func TestOnlineForceAssessesStaleProbe(t *testing.T) {
	const changeBin = 100
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := monitor.NewStore(start, time.Minute)
	tp := topo.NewTopology()
	for _, srv := range []string{"srv-0", "srv-1", "srv-2", "srv-3"} {
		tp.Deploy("kv.cache", srv)
	}
	const tick = 5 * time.Millisecond
	sr, err := NewStreamer(store, tp, Config{
		ServerMetrics: []string{"mem.util"},
		WindowBins:    40,
		StaleBins:     15,
	}, StreamConfig{Workers: 1, PollInterval: tick})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(gapChange(store, changeBin)); err != nil {
		t.Fatal(err)
	}
	// readyBin = changeBin + 40 + FutureSpan(17) = 157; feed healthy
	// servers well past 157 + 15 while srv-0 (the probe) dies early.
	rng := rand.New(rand.NewSource(5))
	for bin := 0; bin < 190; bin++ {
		ts := start.Add(time.Duration(bin) * time.Minute)
		for _, srv := range []string{"srv-0", "srv-1", "srv-2", "srv-3"} {
			if srv == "srv-0" && bin >= changeBin+10 {
				continue // probe feed severed shortly after the change
			}
			store.Append(monitor.Measurement{
				Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: "mem.util"},
				T:   ts, V: 50 + 0.5*rng.NormFloat64(),
			})
		}
	}
	rep := waitReport(t, sr.Reports())
	if a := byEntity(rep)["srv-0"]; a.Verdict != Inconclusive {
		t.Fatalf("stale probe KPI = %v, want inconclusive", a.Verdict)
	}
	// The forced cooldown keeps the change pending (a backfilled probe
	// would still deliver the real verdict) without re-emitting.
	if sr.Pending() != 1 {
		t.Fatalf("pending = %d after force-assess, want 1", sr.Pending())
	}
	time.Sleep(10 * tick)
	select {
	case rep := <-sr.Reports():
		t.Fatalf("severed probe re-emitted on a later poll tick: %+v", rep.Assessments)
	default:
	}
}

// MaskScores itself: positions whose window overlaps a gap go NaN,
// everything else is untouched.
func TestMaskScoresWindowing(t *testing.T) {
	scores := make([]float64, 10)
	for i := range scores {
		scores[i] = 1
	}
	gap := make([]bool, 10)
	gap[5] = true
	out := detect.MaskScores(scores, gap, 2, 2)
	for i, v := range out {
		overlaps := i >= 4 && i <= 6 // [t-1, t+1] touches bin 5
		if overlaps && !math.IsNaN(v) {
			t.Errorf("score %d should be masked", i)
		}
		if !overlaps && math.IsNaN(v) {
			t.Errorf("score %d should be untouched", i)
		}
	}
}

// constScores is a scoreCache that serves one score at every position of
// every window, so a test controls exactly what the gate reads.
type constScores float64

func (c constScores) cachedScores(_ topo.KPIKey, _ int, segment []float64) []float64 {
	out := make([]float64, len(segment))
	for i := range out {
		out[i] = float64(c)
	}
	return out
}

// Under GapMask a gap masks every position whose SST window reads it. The
// window of position t reads bins [t−PastSpan, t+FutureSpan−1], so a gap
// at g masks [g−FutureSpan+1, g+PastSpan], and with every score over the
// threshold the run that reaches past the change starts at g+PastSpan+1.
func TestGapMaskCoversWholePastSpan(t *testing.T) {
	const changeBin, total, g = 100, 160, 90
	store, tp := gapFixture(t, total, nil, map[string]map[int]bool{"srv-0": {g: true}}, nil, changeBin)
	a, err := NewAssessor(store, tp, Config{ServerMetrics: []string{"mem.util"}, WindowBins: 40, GapPolicy: GapMask})
	if err != nil {
		t.Fatal(err)
	}
	a.scores = constScores(10 * a.cfg.DetectorThreshold)
	rep, err := a.Assess(gapChange(store, changeBin))
	if err != nil {
		t.Fatal(err)
	}
	got := byEntity(rep)["srv-0"]
	if want := g + a.cfg.SST.PastSpan() + 1; got.Detection.Start != want {
		t.Fatalf("detection %+v after a gap at bin %d, want its run to start at %d", got.Detection, g, want)
	}
}
