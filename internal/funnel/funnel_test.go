package funnel

import (
	"math/rand"
	"testing"

	"repro/internal/timeseries"
	"repro/internal/topo"
	"repro/internal/workload"
)

// smallScenario generates a compact corpus for pipeline tests.
func smallScenario(t *testing.T, changes int) *workload.Scenario {
	t.Helper()
	p := workload.DefaultParams()
	p.Changes = changes
	p.HistoryDays = 2
	p.ConfounderFraction = 1
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func newAssessor(t *testing.T, sc *workload.Scenario, mutate func(*Config)) *Assessor {
	t.Helper()
	cfg := Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := NewAssessor(sc.Source, sc.Topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.DetectorThreshold != 1.6 || c.Persistence != 7 || c.AlphaThreshold != 1.0 ||
		c.DiDWindow != 30 || c.HistoryDays != 30 || c.WindowBins != 60 {
		t.Fatalf("defaults = %+v", c)
	}
	if !c.SST.Normalize || !c.SST.RobustFilter {
		t.Fatal("SST defaults should enable normalization and the filter")
	}
}

func TestNewAssessorRejectsBadSST(t *testing.T) {
	sc := smallScenario(t, 2)
	bad := Config{}
	bad.SST.Omega = 3
	bad.SST.Eta = 5
	if _, err := NewAssessor(sc.Source, sc.Topo, bad); err == nil {
		t.Fatal("invalid SST config should be rejected")
	}
}

func TestAssessEffectCaseFlagsChangedKPIs(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	cs := sc.Cases[0] // effect case
	rep, err := a.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChangeBin != cs.ChangeBin {
		t.Fatalf("ChangeBin = %d, want %d", rep.ChangeBin, cs.ChangeBin)
	}
	var tp, fn int
	for _, asmt := range rep.Assessments {
		truth := cs.Truth[asmt.Key]
		if !truth.Changed {
			continue
		}
		if asmt.Verdict == ChangedBySoftware {
			tp++
		} else {
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("no injected change was flagged")
	}
	if fn > tp {
		t.Fatalf("more misses (%d) than hits (%d) on injected changes", fn, tp)
	}
}

func TestAssessConfounderCaseMostlyExcluded(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	cs := sc.Cases[1] // no-effect case, confounder forced on
	rep, err := a.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	var flagged, excluded int
	for _, asmt := range rep.Assessments {
		switch asmt.Verdict {
		case ChangedBySoftware:
			flagged++
		case ChangedByOther:
			excluded++
		}
	}
	if excluded == 0 {
		t.Fatal("the confounder should be detected and then excluded by DiD")
	}
	if flagged > excluded {
		t.Fatalf("flagged %d > excluded %d: DiD not excluding the common shock", flagged, excluded)
	}
}

func TestSkipDiDFlagsConfounders(t *testing.T) {
	// The "Improved SST" ablation: without DiD, confounder-induced
	// changes are (wrongly) attributed to the software change.
	sc := smallScenario(t, 2)
	withDiD := newAssessor(t, sc, nil)
	without := newAssessor(t, sc, func(c *Config) { c.SkipDiD = true })
	cs := sc.Cases[1]
	repA, err := withDiD.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := without.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	if len(repB.Flagged()) <= len(repA.Flagged()) {
		t.Fatalf("SkipDiD flagged %d, full pipeline flagged %d — ablation should flag more",
			len(repB.Flagged()), len(repA.Flagged()))
	}
}

func TestAssessUnknownServiceErrors(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	bad := sc.Cases[0].Change
	bad.Service = "nope"
	if _, err := a.Assess(bad); err == nil {
		t.Fatal("unknown service should error")
	}
}

func TestAssessRequiresMetrics(t *testing.T) {
	sc := smallScenario(t, 2)
	a, err := NewAssessor(sc.Source, sc.Topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assess(sc.Cases[0].Change); err == nil {
		t.Fatal("no metrics configured should error")
	}
}

func TestVerdictAndControlKindStrings(t *testing.T) {
	if NoChange.String() != "no-change" || ChangedByOther.String() != "changed-by-other" ||
		ChangedBySoftware.String() != "changed-by-software" || Verdict(9).String() != "unknown" {
		t.Fatal("verdict strings")
	}
	if ControlKind(0).String() != "none" || ControlConcurrent.String() != "concurrent" ||
		ControlHistorical.String() != "historical" {
		t.Fatal("control kind strings")
	}
}

func TestDetectionDelay(t *testing.T) {
	a := Assessment{Verdict: ChangedBySoftware}
	a.Detection.AvailableAt = 120
	if d, ok := DetectionDelay(a, 100); !ok || d != 20 {
		t.Fatalf("delay = %d, %v", d, ok)
	}
	if d, ok := DetectionDelay(a, 130); !ok || d != 0 {
		t.Fatalf("negative delay should clamp: %d %v", d, ok)
	}
	if _, ok := DetectionDelay(Assessment{Verdict: NoChange}, 0); ok {
		t.Fatal("NoChange should have no delay")
	}
}

func TestRedisCaseEndToEnd(t *testing.T) {
	rp := workload.DefaultRedisParams()
	rp.UnaffectedPerClassAB = 20 // keep the test fast
	rc, err := workload.GenerateRedis(rp)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssessor(rc.Source, rc.Topo, Config{
		ServerMetrics: []string{workload.MetricNIC},
		HistoryDays:   rp.HistoryDays,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Assess(rc.Change)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, asmt := range rep.Flagged() {
		flagged[asmt.Key.Entity] = true
	}
	// Every rebalanced server must be flagged...
	for _, s := range append(append([]string{}, rc.ClassAServers...), rc.ClassBServers...) {
		if !flagged[s] {
			t.Errorf("rebalanced server %s not flagged", s)
		}
	}
}

func TestAdCaseEndToEnd(t *testing.T) {
	ac, err := workload.GenerateAdClicks(workload.DefaultAdParams())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssessor(ac.Source, ac.Topo, Config{
		InstanceMetrics: []string{workload.MetricEffectiveClicks},
		HistoryDays:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Assess(ac.Change)
	if err != nil {
		t.Fatal(err)
	}
	flagged := rep.Flagged()
	if len(flagged) == 0 {
		t.Fatal("the effective-clicks drop was not attributed to the upgrade")
	}
	// FUNNEL's headline: detection available within ~10 minutes of the
	// incident (vs the operators' 1.5 h), paper §5.2.
	for _, asmt := range flagged {
		if asmt.Key.Scope != topo.ScopeService {
			continue
		}
		delay, ok := DetectionDelay(asmt, ac.ChangeBin)
		if !ok {
			t.Fatal("no delay for service KPI")
		}
		if delay > 30 {
			t.Fatalf("service KPI delay = %d min, want well under the 90-minute manual baseline", delay)
		}
		if asmt.ControlKind != ControlHistorical {
			t.Fatalf("full launch must use the historical control, got %v", asmt.ControlKind)
		}
	}
}

func TestVerifyParallelTrendsWarns(t *testing.T) {
	// Replace one treated KPI and its controls with fully synthetic
	// series: the controls stay flat, the treated KPI drifts upward
	// during the hour before the change and then shifts sharply. The
	// detection fires on the shift; the placebo test must warn that the
	// groups were already diverging.
	sc := smallScenario(t, 2)
	cs := sc.Cases[0]
	var treatedKey topo.KPIKey
	for key := range cs.Truth {
		if key.Scope == topo.ScopeServer && key.Metric == workload.MetricMemUtil {
			treatedKey = key
			break
		}
	}
	if treatedKey.Entity == "" {
		t.Fatal("no treated server mem.util KPI in case 0")
	}
	base, _ := sc.Source.Series(treatedKey)
	n := base.Len()
	rng := rand.New(rand.NewSource(321))
	mk := func(drift bool) *timeseries.Series {
		v := make([]float64, n)
		for i := range v {
			v[i] = 60 + 0.5*rng.NormFloat64()
			if drift && i >= cs.ChangeBin-60 {
				v[i] += 0.05 * float64(i-(cs.ChangeBin-60))
			}
			if drift && i >= cs.ChangeBin+2 {
				v[i] += 8
			}
		}
		return timeseries.New(base.Start, base.Step, v)
	}
	sc.Source.Put(treatedKey, mk(true))
	for _, ck := range cs.Set.ControlKPIs(treatedKey) {
		sc.Source.Put(ck, mk(false))
	}

	a := newAssessor(t, sc, func(c *Config) { c.VerifyParallelTrends = true })
	rep, err := a.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	for _, asmt := range rep.Assessments {
		if asmt.Key != treatedKey {
			continue
		}
		if asmt.Verdict == NoChange {
			t.Fatal("the sharp shift was not even detected")
		}
		if !asmt.TrendWarning {
			t.Fatal("pre-change drift did not raise a trend warning")
		}
		return
	}
	t.Fatal("treated key missing from the report")
}

func TestVerifyParallelTrendsQuietOnCleanData(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, func(c *Config) { c.VerifyParallelTrends = true })
	rep, err := a.Assess(sc.Cases[0].Change)
	if err != nil {
		t.Fatal(err)
	}
	warnings := 0
	for _, asmt := range rep.Assessments {
		if asmt.TrendWarning {
			warnings++
		}
	}
	if warnings > len(rep.Assessments)/3 {
		t.Fatalf("%d/%d clean KPIs warned — placebo too trigger-happy", warnings, len(rep.Assessments))
	}
}

func TestAssessMissingSeriesReported(t *testing.T) {
	sc := smallScenario(t, 2)
	cs := sc.Cases[0]
	// Drop one treated server series from the source.
	var victim topo.KPIKey
	for key := range cs.Truth {
		if key.Scope == topo.ScopeServer {
			victim = key
			break
		}
	}
	src := workload.NewMapSource(sc.Start, sc.Step)
	for _, key := range sc.Source.Keys() {
		if key == victim {
			continue
		}
		s, _ := sc.Source.Series(key)
		src.Put(key, s)
	}
	a, err := NewAssessor(src, sc.Topo, Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, asmt := range rep.Assessments {
		if asmt.Key == victim {
			found = true
			if asmt.Err == nil {
				t.Fatal("missing series should carry an error")
			}
		}
	}
	if !found {
		t.Fatal("missing-series KPI dropped from the report")
	}
}

func TestControlSimilarityRecorded(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	cs := sc.Cases[0]
	if !cs.Set.Dark() {
		t.Skip("case 0 is a full launch under this seed")
	}
	rep, err := a.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	sawConcurrent := false
	for _, asmt := range rep.Assessments {
		if asmt.ControlKind == ControlConcurrent {
			sawConcurrent = true
			// Load-balanced seasonal KPIs correlate strongly; noisy
			// stationary/variable ones may not — but the value must be
			// a sane correlation.
			if asmt.ControlSimilarity < -1.001 || asmt.ControlSimilarity > 1.001 {
				t.Fatalf("similarity out of range: %v", asmt.ControlSimilarity)
			}
			if asmt.Key.Metric == workload.MetricPageViews && asmt.ControlSimilarity < 0.5 {
				t.Fatalf("seasonal similarity = %v, want high for load-balanced instances", asmt.ControlSimilarity)
			}
		}
		if asmt.ControlKind == ControlHistorical && asmt.ControlSimilarity != 0 {
			t.Fatal("historical control must not record a similarity")
		}
	}
	if !sawConcurrent {
		t.Fatal("no concurrent-control assessments in a dark-launch case")
	}
}

// TestAssessorConfigAndChangeTime checks that Config reports the
// defaults it filled in. Its ChangeTime half went with the deleted
// ChangeTime; the name is kept.
func TestAssessorConfigAndChangeTime(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	cfg := a.Config()
	if cfg.DetectorThreshold != DefaultDetectorThreshold || cfg.HistoryDays != 2 {
		t.Fatalf("Config = %+v", cfg)
	}
}

func TestAlphaOverridesPerService(t *testing.T) {
	sc := smallScenario(t, 2)
	cs := sc.Cases[0]
	// Baseline: effect case flags KPIs at the default threshold.
	base := newAssessor(t, sc, nil)
	repBase, err := base.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	if len(repBase.Flagged()) == 0 {
		t.Skip("case 0 flagged nothing at default thresholds")
	}
	// An absurdly insensitive override for the changed service must
	// suppress every attribution governed by it.
	strict := newAssessor(t, sc, func(c *Config) {
		c.AlphaOverrides = map[string]float64{cs.Change.Service: 1e9}
	})
	repStrict, err := strict.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	for _, asmt := range repStrict.Flagged() {
		if serviceOf(repStrict.Set, asmt.Key) == cs.Change.Service {
			t.Fatalf("override ignored for %v (α=%v)", asmt.Key, asmt.Alpha)
		}
	}
	if len(repStrict.Flagged()) >= len(repBase.Flagged()) {
		t.Fatalf("strict override flagged %d ≥ baseline %d", len(repStrict.Flagged()), len(repBase.Flagged()))
	}
}

func TestAssessSurvivesDataGaps(t *testing.T) {
	p := workload.DefaultParams()
	p.Changes = 2
	p.HistoryDays = 2
	p.GapFraction = 0.02
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssessor(sc.Source, sc.Topo, Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := sc.Cases[0]
	rep, err := a.Assess(cs.Change)
	if err != nil {
		t.Fatal(err)
	}
	var tp, fn int
	for _, asmt := range rep.Assessments {
		if asmt.Err != nil {
			t.Fatalf("gap handling failed for %v: %v", asmt.Key, asmt.Err)
		}
		truth := cs.Truth[asmt.Key]
		if truth.Changed {
			if asmt.Verdict == ChangedBySoftware {
				tp++
			} else {
				fn++
			}
		}
	}
	if tp == 0 || fn > tp {
		t.Fatalf("gapped assessment degraded: tp=%d fn=%d", tp, fn)
	}
}
