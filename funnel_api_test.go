package funnel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestPublicAPISurface exercises the re-exported façade end to end the
// way a downstream user would: build a topology, feed a store through
// an agent, assess a change, and inspect the report — all through the
// root package only.
func TestPublicAPISurface(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	tp := NewTopology()
	store := NewStore(start, time.Minute)
	agent := NewAgent(store)
	rng := rand.New(rand.NewSource(5))

	const changeMin = 2*1440 + 300
	servers := []string{"api-0", "api-1", "api-2"}
	for i, srv := range servers {
		tp.Deploy("edge.api", srv)
		treated := i == 0
		seed := rng.Int63()
		agent.Track(KPIKey{Scope: ScopeServer, Entity: srv, Metric: "mem.util"},
			func(bin int) float64 {
				r := rand.New(rand.NewSource(seed + int64(bin)))
				v := 60 + 0.5*r.NormFloat64()
				if treated && bin >= changeMin {
					v += 8
				}
				return v
			})
	}
	agent.Run(3 * 1440)

	change := Change{
		ID: "api-up-1", Type: Upgrade, Service: "edge.api",
		Servers: servers[:1], At: start.Add(changeMin * time.Minute),
	}
	log := NewChangeLog()
	if err := log.Append(change); err != nil {
		t.Fatal(err)
	}

	assessor, err := NewAssessor(store, tp, Config{
		ServerMetrics: []string{"mem.util"},
		HistoryDays:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := log.Get("api-up-1")
	if !ok {
		t.Fatal("change log lost the change")
	}
	report, err := assessor.Assess(got)
	if err != nil {
		t.Fatal(err)
	}
	flagged := report.Flagged()
	if len(flagged) != 1 || flagged[0].Key.Entity != "api-0" {
		t.Fatalf("flagged = %+v", flagged)
	}
	if flagged[0].Verdict != ChangedBySoftware || flagged[0].ControlKind != ControlConcurrent {
		t.Fatalf("verdict/control = %v/%v", flagged[0].Verdict, flagged[0].ControlKind)
	}
	if d, ok := DetectionDelay(flagged[0], changeMin); !ok || d > 30 {
		t.Fatalf("delay = %d, %v", d, ok)
	}
}

// TestScorerFamilyViaFacade drives all three SST variants and the two
// baselines through the façade types.
func TestScorerFamilyViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 300)
	for i := range x {
		x[i] = 10 + 0.3*rng.NormFloat64()
		if i >= 150 {
			x[i] += 5
		}
	}
	scorers := []Scorer{
		NewClassicSST(SSTConfig{Normalize: true}),
		NewRobustSST(SSTConfig{Normalize: true, RobustFilter: true}),
		NewIKASST(SSTConfig{Normalize: true, RobustFilter: true}),
		NewCUSUM(),
		NewMRLS(),
	}
	for i, s := range scorers {
		scores := ScoreSeries(s, x)
		if len(scores) != len(x) {
			t.Fatalf("scorer %d: score length mismatch", i)
		}
	}
	det := NewDetector(NewIKASST(SSTConfig{Normalize: true, RobustFilter: true}), 1.6)
	dets := det.Detect(x)
	if len(dets) == 0 || dets[0].Kind != KindLevelShiftUp {
		t.Fatalf("detections = %+v", dets)
	}
}

// TestDiDViaFacade checks the DiD helpers.
func TestDiDViaFacade(t *testing.T) {
	tp := []float64{10, 10, 10}
	tq := []float64{14, 14, 14}
	cp := []float64{20, 20, 20}
	cq := []float64{20, 20, 20}
	np, nq, ncp, ncq := NormalizeDiDGroups(tp, tq, cp, cq)
	res, err := EstimateDiD(np, nq, ncp, ncq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Causal(0.5) {
		t.Fatalf("α = %v should be causal", res.Alpha)
	}
}

// TestFleetAndDiDViaFacade checks that the regression DiD estimator
// agrees with the moment one through the façade. Its fleet half went
// with the deleted Fleet façade alias; the name is kept.
func TestFleetAndDiDViaFacade(t *testing.T) {
	tp := []float64{1, 1, 1, 1}
	tq := []float64{4, 4, 4, 4}
	cp := []float64{9, 9, 9, 9}
	cq := []float64{9, 9, 9, 9}
	m, err := EstimateDiD(tp, tq, cp, cq)
	if err != nil {
		t.Fatal(err)
	}
	r, err := EstimateDiDRegression(tp, tq, cp, cq)
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha != 3 || math.Abs(r.Alpha-m.Alpha) > 1e-9 {
		t.Fatalf("α: moment %v vs regression %v", m.Alpha, r.Alpha)
	}
}

// TestWorkloadAndEvalViaFacade generates a tiny corpus and classifies
// a KPI through the façade.
func TestWorkloadAndEvalViaFacade(t *testing.T) {
	p := DefaultScenarioParams()
	p.Changes = 2
	p.HistoryDays = 2
	sc, err := GenerateScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Cases) != 2 {
		t.Fatalf("cases = %d", len(sc.Cases))
	}
	keys := sc.Source.Keys()
	s, _ := sc.Source.Series(keys[0])
	_ = ClassifyKPI(s.Values) // must not panic on any class

	if _, err := GenerateRedisCase(struct {
		Seed                 int64
		ClassA, ClassB       int
		HistoryDays          int
		ShiftFraction        float64
		ChangeMinuteOfDay    int
		UnaffectedPerClassAB int
	}{1, 2, 2, 1, 0.4, 700, 4}); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrateThresholdViaFacade checks the calibration helper.
func TestCalibrateThresholdViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	clean := make([][]float64, 2)
	for i := range clean {
		xs := make([]float64, 200)
		for j := range xs {
			xs[j] = rng.NormFloat64()
		}
		clean[i] = xs
	}
	thr, err := CalibrateThreshold(NewIKASST(SSTConfig{Normalize: true, RobustFilter: true}), clean, 0.999, 1.1)
	if err != nil || thr <= 0 {
		t.Fatalf("threshold = %v, err = %v", thr, err)
	}
}

// TestStreamingAndBatchHelpersViaFacade covers the streaming
// assessor's registration checks and change combining through the
// façade.
func TestStreamingAndBatchHelpersViaFacade(t *testing.T) {
	tp := NewTopology()
	tp.Deploy("s", "x")
	sr, err := NewStreamer(NewStore(time.Now(), time.Minute), tp, Config{ServerMetrics: []string{"m"}}, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.RegisterChange(Change{ID: "c", Service: "nope", Servers: []string{"x"}}); err == nil {
		t.Fatal("streamer accepted an unknown service")
	}

	a := Change{ID: "a", Type: ConfigChange, Service: "s", Servers: []string{"x"}, At: time.Now()}
	b := Change{ID: "b", Type: Upgrade, Service: "s", Servers: []string{"y"}, At: time.Now()}
	m, err := CombineChanges("ab", []Change{a, b})
	if err != nil || m.Type != Upgrade || len(m.Servers) != 2 {
		t.Fatalf("combine = %+v err=%v", m, err)
	}
}

// TestSnapshotViaFacade round-trips a store snapshot.
func TestSnapshotViaFacade(t *testing.T) {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := NewStore(start, time.Minute)
	key := KPIKey{Scope: ScopeServer, Entity: "s", Metric: "m"}
	store.Append(Measurement{Key: key, T: start, V: 7})
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadStoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := restored.Series(key)
	if !ok || s.Values[0] != 7 {
		t.Fatalf("restored = %+v ok=%v", s, ok)
	}
}

// TestTraceViaFacade round-trips a trace through the façade.
func TestTraceViaFacade(t *testing.T) {
	p := DefaultScenarioParams()
	p.Changes = 2
	p.HistoryDays = 1
	sc, err := GenerateScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, ExportTrace(sc)); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	source, _, log, _, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	if source.Len() != sc.Source.Len() || log.Len() != sc.Log.Len() {
		t.Fatal("trace round trip lost data")
	}
}

// TestExtraBaselinesViaFacade touches the WoW and PCA exports.
func TestExtraBaselinesViaFacade(t *testing.T) {
	w := NewWoW()
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, 3*1440)
	for i := range x {
		x[i] = 100 + rng.NormFloat64()
	}
	if v := w.ScoreAt(x, len(x)-5); v < 0 {
		t.Fatalf("WoW score = %v", v)
	}
	p := NewPCA()
	series := [][]float64{make([]float64, 100), make([]float64, 100)}
	for i := 0; i < 100; i++ {
		series[0][i] = rng.NormFloat64()
		series[1][i] = rng.NormFloat64()
	}
	if _, err := p.ScoreMatrix(series, 80); err != nil {
		t.Fatal(err)
	}
}
