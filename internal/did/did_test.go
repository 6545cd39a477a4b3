package did

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

var t0 = time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)

func constant(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func noisy(n int, level, sd float64, rng *rand.Rand) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = level + sd*rng.NormFloat64()
	}
	return xs
}

func TestEstimateCleanTreatmentEffect(t *testing.T) {
	// Treated jumps by 5, control stays flat: α = 5.
	r, err := Estimate(constant(10, 10), constant(10, 15), constant(10, 20), constant(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if r.Alpha != 5 || r.TreatedDiff != 5 || r.ControlDiff != 0 {
		t.Fatalf("Result = %+v", r)
	}
	if !r.Causal(0.5) {
		t.Fatal("clear effect should be causal at threshold 0.5")
	}
}

func TestEstimateCommonShockCancels(t *testing.T) {
	// Both groups jump by 7 (seasonal effect): α = 0.
	r, err := Estimate(constant(10, 10), constant(10, 17), constant(10, 30), constant(10, 37))
	if err != nil {
		t.Fatal(err)
	}
	if r.Alpha != 0 {
		t.Fatalf("α = %v, want 0 for common shock", r.Alpha)
	}
	if r.Causal(0.5) {
		t.Fatal("common shock must not be attributed to the change")
	}
}

func TestEstimateGroupLevelOffsetsCancel(t *testing.T) {
	// KPI-specific fixed effects ξ(i) (Eq. 15) cancel: groups at very
	// different levels, same dynamics.
	r, err := Estimate(constant(10, 100), constant(10, 100), constant(10, 5), constant(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Alpha != 0 {
		t.Fatalf("α = %v", r.Alpha)
	}
}

func TestEstimateNoisyEffectAndStdErr(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	n := 500
	r, err := Estimate(
		noisy(n, 10, 1, rng), noisy(n, 13, 1, rng),
		noisy(n, 10, 1, rng), noisy(n, 10, 1, rng))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Alpha-3) > 0.3 {
		t.Fatalf("α = %v, want ≈3", r.Alpha)
	}
	// StdErr ≈ sqrt(4·σ²/n) = 2/√500 ≈ 0.089.
	if r.StdErr < 0.05 || r.StdErr > 0.15 {
		t.Fatalf("StdErr = %v", r.StdErr)
	}
	if r.TStat < 10 {
		t.Fatalf("TStat = %v, want strongly significant", r.TStat)
	}
}

func TestEstimateNaNHandling(t *testing.T) {
	nan := math.NaN()
	r, err := Estimate(
		[]float64{1, nan, 1}, []float64{2, 2, nan},
		[]float64{0, 0}, []float64{0, nan, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Alpha != 1 {
		t.Fatalf("α = %v with NaNs", r.Alpha)
	}
	if _, err := Estimate([]float64{nan}, []float64{1}, []float64{1}, []float64{1}); err != ErrEmptyGroup {
		t.Fatalf("all-NaN group should yield ErrEmptyGroup, got %v", err)
	}
}

func TestEstimateEmptyGroup(t *testing.T) {
	if _, err := Estimate(nil, []float64{1}, []float64{1}, []float64{1}); err != ErrEmptyGroup {
		t.Fatalf("err = %v", err)
	}
}

func TestTStatDegenerate(t *testing.T) {
	// Single-sample groups: variance 0 → StdErr 0.
	r, err := Estimate([]float64{1}, []float64{4}, []float64{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.TStat, 1) {
		t.Fatalf("TStat = %v, want +Inf", r.TStat)
	}
	r, _ = Estimate([]float64{1}, []float64{1}, []float64{1}, []float64{1})
	if r.TStat != 0 {
		t.Fatalf("TStat = %v, want 0", r.TStat)
	}
}

func TestHistoricalControl(t *testing.T) {
	// Three days of data, change in day 3.
	n := 3*1440 + 200
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i / 1440) // day index as value
	}
	s := timeseries.New(t0, time.Minute, v)
	tIdx := 3*1440 + 100
	pre, post, ok := HistoricalControl(s, tIdx, 30, 30)
	if !ok {
		t.Fatal("expected historical control")
	}
	// Days 1, 2, 3 ago are available: 3 × 30 samples per side.
	if len(pre) != 90 || len(post) != 90 {
		t.Fatalf("pooled sizes %d/%d", len(pre), len(post))
	}
	if _, _, ok := HistoricalControl(s, 100, 30, 30); ok {
		t.Fatal("no history before day 0")
	}
}

func TestEstimateSeasonalExcludesSeasonality(t *testing.T) {
	// Strong diurnal pattern, no change: α ≈ 0 even though the raw
	// series moves a lot at the change time.
	days := 8
	n := days * 1440
	v := make([]float64, n)
	for i := range v {
		v[i] = 100 + 50*math.Sin(2*math.Pi*float64(i%1440)/1440)
	}
	s := timeseries.New(t0, time.Minute, v)
	tIdx := (days-1)*1440 + 420 // morning ramp of the last day
	r, err := EstimateSeasonal(s, tIdx, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Alpha) > 0.5 {
		t.Fatalf("seasonal α = %v, want ≈0", r.Alpha)
	}

	// Now inject a real level shift at tIdx: α ≈ shift.
	v2 := make([]float64, n)
	copy(v2, v)
	for i := tIdx; i < n; i++ {
		v2[i] += 40
	}
	s2 := timeseries.New(t0, time.Minute, v2)
	r2, err := EstimateSeasonal(s2, tIdx, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Alpha-40) > 5 {
		t.Fatalf("shifted seasonal α = %v, want ≈40", r2.Alpha)
	}
}

func TestEstimateSeasonalErrors(t *testing.T) {
	s := timeseries.New(t0, time.Minute, make([]float64, 100))
	if _, err := EstimateSeasonal(s, 50, 10, 30); err == nil {
		t.Fatal("no history should error")
	}
	if _, err := EstimateSeasonal(s, 5, 10, 30); err == nil {
		t.Fatal("out-of-range should error")
	}
}

func TestNormalizeGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tp := noisy(200, 1000, 50, rng)
	tq := noisy(200, 1400, 50, rng) // big treated jump
	cp := noisy(200, 1000, 50, rng)
	cq := noisy(200, 1000, 50, rng)
	np, nq, ncp, ncq := NormalizeGroups(tp, tq, cp, cq)
	r, err := Estimate(np, nq, ncp, ncq)
	if err != nil {
		t.Fatal(err)
	}
	// Jump of 400 on a noise scale of 50 → α ≈ 8 normalized units.
	if r.Alpha < 4 || r.Alpha > 12 {
		t.Fatalf("normalized α = %v", r.Alpha)
	}
	// Scaling the raw KPI by 1000× must not change the normalized α.
	scale := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = 1000 * x
		}
		return out
	}
	sp, sq, scp, scq := NormalizeGroups(scale(tp), scale(tq), scale(cp), scale(cq))
	r2, err := Estimate(sp, sq, scp, scq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Alpha-r2.Alpha) > 1e-6*math.Abs(r.Alpha) {
		t.Fatalf("normalization not scale-free: %v vs %v", r.Alpha, r2.Alpha)
	}
}

func TestNormalizeGroupsDegenerate(t *testing.T) {
	// Constant pre-period: the floor must prevent division blowup.
	np, nq, _, _ := NormalizeGroups(constant(5, 10), constant(5, 11), constant(5, 10), constant(5, 10))
	for _, v := range append(np, nq...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate normalization produced %v", v)
		}
	}
}

func TestHistoricalControlWeekly(t *testing.T) {
	n := 15 * 1440
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i / (7 * 1440)) // week index as value
	}
	s := timeseries.New(t0, time.Minute, v)
	tIdx := 14*1440 + 100
	pre, post, ok := HistoricalControlWeekly(s, tIdx, 30, 4)
	if !ok {
		t.Fatal("expected weekly control")
	}
	// Weeks 1 and 2 ago are covered: 2 × 30 samples per side.
	if len(pre) != 60 || len(post) != 60 {
		t.Fatalf("pooled sizes %d/%d", len(pre), len(post))
	}
	if _, _, ok := HistoricalControlWeekly(s, 100, 30, 4); ok {
		t.Fatal("no weekly history before day 0")
	}
}

// The 2×2 identity: the OLS interaction coefficient of Eq. 15 equals
// the Eq. 16 difference-of-differences, for arbitrary group samples.
func TestRegressionMatchesEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	for trial := 0; trial < 30; trial++ {
		mk := func(level float64, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = level + rng.NormFloat64()*3
			}
			return xs
		}
		tp := mk(10+rng.Float64()*10, 5+rng.Intn(40))
		tq := mk(10+rng.Float64()*20, 5+rng.Intn(40))
		cp := mk(30+rng.Float64()*10, 5+rng.Intn(40))
		cq := mk(30+rng.Float64()*10, 5+rng.Intn(40))
		a, err := Estimate(tp, tq, cp, cq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EstimateRegression(tp, tq, cp, cq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Alpha-b.Alpha) > 1e-8*(1+math.Abs(a.Alpha)) {
			t.Fatalf("trial %d: OLS α %v != moment α %v", trial, b.Alpha, a.Alpha)
		}
	}
}

func TestRegressionNaNAndErrors(t *testing.T) {
	nan := math.NaN()
	r, err := EstimateRegression(
		[]float64{1, nan}, []float64{2, 2}, []float64{0, 0}, []float64{0, nan})
	if err != nil {
		t.Fatal(err)
	}
	if r.Alpha != 1 {
		t.Fatalf("α = %v with NaNs", r.Alpha)
	}
	if _, err := EstimateRegression(nil, []float64{1}, []float64{1}, []float64{1}); err != ErrEmptyGroup {
		t.Fatalf("err = %v", err)
	}
}
