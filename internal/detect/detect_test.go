package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/sst"
)

func genLevelShift(n, at int, mag, noise float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 20 + noise*rng.NormFloat64()
		if i >= at {
			x[i] += mag
		}
	}
	return x
}

func genRamp(n, at, dur int, mag, noise float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 20 + noise*rng.NormFloat64()
		switch {
		case i >= at+dur:
			x[i] += mag
		case i >= at:
			x[i] += mag * float64(i-at) / float64(dur)
		}
	}
	return x
}

func ikaDetector() *Gate {
	return New(sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true}), 1.5)
}

func TestDetectLevelShift(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	c := 150
	x := genLevelShift(300, c, 8, 0.3, rng)
	dets := ikaDetector().Detect(x)
	if len(dets) == 0 {
		t.Fatal("no detection")
	}
	d := dets[0]
	if d.Start < c-20 || d.Start > c+10 {
		t.Fatalf("onset %d not near %d", d.Start, c)
	}
	if d.DeclaredAt < d.Start+DefaultPersistence-1 {
		t.Fatalf("declared at %d before persistence satisfied (start %d)", d.DeclaredAt, d.Start)
	}
	if d.Kind != LevelShiftUp {
		t.Fatalf("kind = %v, want level-shift-up", d.Kind)
	}
}

func TestDetectDownShift(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	x := genLevelShift(300, 150, -8, 0.3, rng)
	dets := ikaDetector().Detect(x)
	if len(dets) == 0 {
		t.Fatal("no detection")
	}
	if dets[0].Kind != LevelShiftDown {
		t.Fatalf("kind = %v, want level-shift-down", dets[0].Kind)
	}
}

func TestDetectRampClassified(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	x := genRamp(400, 200, 60, 10, 0.3, rng)
	dets := ikaDetector().Detect(x)
	if len(dets) == 0 {
		t.Fatal("no detection")
	}
	if k := dets[0].Kind; k != RampUp && k != LevelShiftUp {
		t.Fatalf("kind = %v, want an upward change", k)
	}
	// A long enough run over a slow ramp should be recognized as a ramp.
	foundRamp := false
	for _, d := range dets {
		if d.Kind == RampUp {
			foundRamp = true
		}
	}
	if !foundRamp {
		t.Log("ramp classified as level shift — acceptable only when the run is short")
	}
}

func TestNoDetectionOnQuietSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	x := genLevelShift(600, 10000, 0, 0.3, rng)
	dets := ikaDetector().Detect(x)
	if len(dets) != 0 {
		t.Fatalf("false positives on quiet noise: %+v", dets)
	}
}

// A one-off spike must be rejected by the 7-minute persistence rule.
func TestSpikeRejectedByPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	x := genLevelShift(400, 10000, 0, 0.3, rng)
	x[200] += 15
	x[201] += 12
	dets := ikaDetector().Detect(x)
	for _, d := range dets {
		if d.Start <= 202 && d.End >= 198 {
			t.Fatalf("spike was declared a change: %+v", d)
		}
	}
}

func TestPersistenceBoundary(t *testing.T) {
	// Synthetic scorer: scores crafted directly through fromScores.
	d := &Gate{Threshold: 1, Persistence: 3}
	x := make([]float64, 10)
	scores := []float64{0, 2, 2, 0, 2, 2, 2, 0, 0, 0}
	dets := d.fromScores(x, scores)
	if len(dets) != 1 {
		t.Fatalf("detections = %+v", dets)
	}
	if dets[0].Start != 4 || dets[0].End != 6 || dets[0].DeclaredAt != 6 {
		t.Fatalf("run bounds wrong: %+v", dets[0])
	}
}

func TestRunAtSeriesEndIsFlushed(t *testing.T) {
	d := &Gate{Threshold: 1, Persistence: 3}
	x := make([]float64, 6)
	scores := []float64{0, 0, 0, 2, 2, 2}
	dets := d.fromScores(x, scores)
	if len(dets) != 1 || dets[0].End != 5 {
		t.Fatalf("tail run not flushed: %+v", dets)
	}
}

func TestNaNScoresBreakRuns(t *testing.T) {
	d := &Gate{Threshold: 1, Persistence: 2}
	x := make([]float64, 6)
	scores := []float64{2, 2, math.NaN(), 2, 2, 2}
	dets := d.fromScores(x, scores)
	if len(dets) != 2 {
		t.Fatalf("NaN should split runs: %+v", dets)
	}
}

// scoresAt returns n sub-threshold scores with hits[i] written at i.
func scoresAt(n int, hits map[int]float64) []float64 {
	out := make([]float64, n)
	for i, v := range hits {
		out[i] = v
	}
	return out
}

// The gap rule: hits MaxGap + 1 apart are one run, MaxGap + 1
// sub-threshold bins in a row end it, and a NaN ends it at once.
func TestGateMaxGap(t *testing.T) {
	x := make([]float64, 40)
	d := &Gate{Threshold: 1, Persistence: 3, MaxGap: 2}
	if per, link := d.RunRule(); per != 3 || link != 3 {
		t.Fatalf("RunRule = %d, %d; want 3, 3", per, link)
	}
	cases := []struct {
		name   string
		scores []float64
		runs   int // runs closed, declared or not
		want   []Detection
	}{
		{"hits MaxGap+1 apart", scoresAt(40, map[int]float64{10: 2, 13: 3, 16: 2}), 1,
			[]Detection{{Start: 10, DeclaredAt: 16, AvailableAt: 16, End: 16, Peak: 3}}},
		{"MaxGap+1 low bins split", scoresAt(40, map[int]float64{10: 2, 14: 2, 18: 2}), 3, nil},
		{"split after a declared run", scoresAt(40, map[int]float64{10: 2, 11: 2, 12: 2, 16: 5, 17: 5, 18: 5}), 2,
			[]Detection{{Start: 10, DeclaredAt: 12, AvailableAt: 12, End: 12, Peak: 2}, {Start: 16, DeclaredAt: 18, AvailableAt: 18, End: 18, Peak: 5}}},
		{"NaN splits at once", scoresAt(40, map[int]float64{10: 2, 11: 2, 12: math.NaN(), 13: 2, 14: 2}), 2, nil},
		{"low bin instead of the NaN", scoresAt(40, map[int]float64{10: 2, 11: 2, 13: 2, 14: 2}), 1,
			[]Detection{{Start: 10, DeclaredAt: 13, AvailableAt: 13, End: 14, Peak: 2}}},
		{"declared run's fields", scoresAt(40, map[int]float64{20: 2, 21: 4, 23: 7, 24: 3, 26: 2, 30: 9}), 2,
			[]Detection{{Start: 20, DeclaredAt: 23, AvailableAt: 23, End: 26, Peak: 7}}},
	}
	for _, c := range cases {
		runs := 0
		d.OnRun = func(bool) { runs++ }
		got := d.DetectScored(x, c.scores)
		for i := range got {
			got[i].Kind = Unknown // a flat x classifies as nothing
		}
		if !reflect.DeepEqual(got, c.want) || runs != c.runs {
			t.Errorf("%s: %+v over %d runs, want %+v over %d", c.name, got, runs, c.want, c.runs)
		}
	}

	// The defaults: Persistence 0 is DefaultPersistence, a negative
	// MaxGap is 0, and AvailableAt pays the scorer's future span.
	d = &Gate{Threshold: 1, MaxGap: -4, Scorer: sst.NewIKA(sst.Config{})}
	if per, link := d.RunRule(); per != DefaultPersistence || link != 1 {
		t.Fatalf("default RunRule = %d, %d; want %d, 1", per, link, DefaultPersistence)
	}
	hits := map[int]float64{}
	for i := 5; i < 12; i++ {
		hits[i] = 2
	}
	got := d.DetectScored(x, scoresAt(40, hits))
	if fut := d.Scorer.Config().FutureSpan(); len(got) != 1 || got[0].DeclaredAt != 11 || got[0].AvailableAt != 11+fut-1 {
		t.Fatalf("seven consecutive hits: %+v, want one run declared at 11, available at %d", got, 11+fut-1)
	}
	hits[8] = 0 // MaxGap 0: one low bin splits the run into 3 + 3 hits
	if got := d.DetectScored(x, scoresAt(40, hits)); len(got) != 0 {
		t.Fatalf("a low bin with MaxGap 0: %+v, want no run", got)
	}
}

func TestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	x := genLevelShift(300, 150, 8, 0.3, rng)
	det := ikaDetector()
	if _, ok := det.First(x); !ok {
		t.Fatal("First found nothing")
	}
	quiet := genLevelShift(200, 10000, 0, 0.3, rng)
	if _, ok := det.First(quiet); ok {
		t.Fatal("First on quiet series")
	}
}

func TestClassifyDirect(t *testing.T) {
	n := 120
	up := make([]float64, n)
	down := make([]float64, n)
	ramp := make([]float64, n)
	for i := range up {
		if i >= 60 {
			up[i] = 10
			down[i] = -10
		}
		switch {
		case i >= 90:
			ramp[i] = 10
		case i >= 60:
			ramp[i] = 10 * float64(i-60) / 30
		}
	}
	if k := Classify(up, 58, 66); k != LevelShiftUp {
		t.Fatalf("up = %v", k)
	}
	if k := Classify(down, 58, 66); k != LevelShiftDown {
		t.Fatalf("down = %v", k)
	}
	if k := Classify(ramp, 60, 89); k != RampUp {
		t.Fatalf("ramp = %v", k)
	}
}

func TestClassifyEdges(t *testing.T) {
	x := make([]float64, 50)
	if Classify(x, -1, 5) != Unknown || Classify(x, 5, 60) != Unknown || Classify(x, 10, 5) != Unknown {
		t.Fatal("out-of-range classification should be Unknown")
	}
	if Classify(x, 0, 5) != Unknown {
		t.Fatal("empty before-context should be Unknown")
	}
}

// TestKindStringsAndDirection pins the kind names. Its Direction half
// went with the deleted Kind.Direction; the name is kept.
func TestKindStringsAndDirection(t *testing.T) {
	names := map[Kind]string{
		LevelShiftUp: "level-shift-up", LevelShiftDown: "level-shift-down",
		RampUp: "ramp-up", RampDown: "ramp-down", Unknown: "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestCalibrate(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	scorer := sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true})
	clean := make([][]float64, 4)
	for i := range clean {
		clean[i] = genLevelShift(300, 100000, 0, 0.3, rng)
	}
	thr, err := Calibrate(scorer, clean, 0.999, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatalf("threshold = %v", thr)
	}
	// The calibrated detector must stay quiet on fresh clean data and
	// still catch a big shift.
	det := New(scorer, thr)
	if dets := det.Detect(genLevelShift(300, 100000, 0, 0.3, rng)); len(dets) != 0 {
		t.Fatalf("calibrated detector false-alarmed: %+v", dets)
	}
	if dets := det.Detect(genLevelShift(300, 150, 8, 0.3, rng)); len(dets) == 0 {
		t.Fatal("calibrated detector missed a clear shift")
	}
	if _, err := Calibrate(scorer, nil, 0.999, 1); err == nil {
		t.Fatal("empty calibration should error")
	}
}

// The paper's Fig. 5 premise: thresholds must hold across the whole KPI
// mix a production deployment monitors. FUNNEL (whose seasonal false
// positives are DiD's job, so its detection threshold is calibrated on
// stationary + variable noise) detects a moderate shift in ~13–17
// minutes; CUSUM, whose single threshold must also survive seasonal
// drift — its documented weakness — either misses the same shift or
// declares it later.
func TestFunnelFasterThanCUSUMAfterCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	seasonal := make([]float64, 700)
	for i := range seasonal {
		seasonal[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/360) + 0.5*rng.NormFloat64()
	}
	variable := make([]float64, 700)
	for i := range variable {
		variable[i] = math.Abs(rng.NormFloat64()) * 100
	}
	stationary := genLevelShift(700, 100000, 0, 1.0, rng)

	ika := sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true})
	cusum := &baselines.CUSUM{Window: 60, Bootstraps: 200, MinRelRange: 2}

	fthr, err := Calibrate(ika, [][]float64{stationary, variable}, 0.999, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	cthr, err := Calibrate(cusum, [][]float64{stationary, variable, seasonal}, 0.999, 1.1)
	if err != nil {
		t.Fatal(err)
	}

	c := 300
	x := genLevelShift(600, c, 8, 1.0, rand.New(rand.NewSource(900)))
	fd, ok := New(ika, fthr).First(x)
	if !ok {
		t.Fatalf("FUNNEL missed the shift at calibrated threshold %.3f", fthr)
	}
	delay := fd.AvailableAt - c
	if delay < 0 || delay > 25 {
		t.Fatalf("FUNNEL delay = %d min, want within (0, 25]", delay)
	}
	if cd, ok := New(cusum, cthr).First(x); ok && cd.AvailableAt <= fd.AvailableAt {
		t.Fatalf("CUSUM available at %d not later than FUNNEL at %d (thresholds %.3f / %.3f)",
			cd.AvailableAt, fd.AvailableAt, cthr, fthr)
	}
}
