package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sst"
)

// genShift produces n noisy points with a level shift at index c.
func genShift(n, c int, mag, noise float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 + noise*rng.NormFloat64()
		if i >= c {
			x[i] += mag
		}
	}
	return x
}

func TestCUSUMDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	c := NewCUSUM()
	x := genShift(300, 200, 5, 0.3, rng)
	// Well after the shift has entered the window the confidence must
	// alarm.
	if v := c.ScoreAt(x, 230); v < 1 {
		t.Fatalf("post-shift CUSUM score = %v, want ≥ 1", v)
	}
}

func TestCUSUMQuietLowOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c := NewCUSUM()
	x := genShift(400, 9999, 0, 0.3, rng) // no shift at all
	alarms := 0
	for i := 100; i < 350; i++ {
		if c.ScoreAt(x, i) >= 1 {
			alarms++
		}
	}
	// Bootstrap confidence on pure noise occasionally spikes; it must
	// not alarm persistently.
	if alarms > 25 {
		t.Fatalf("CUSUM alarmed %d/250 times on pure noise", alarms)
	}
}

func TestCUSUMFlatWindowZero(t *testing.T) {
	c := NewCUSUM()
	x := make([]float64, 200)
	for i := range x {
		x[i] = 7
	}
	if v := c.ScoreAt(x, 100); v != 0 {
		t.Fatalf("flat-window CUSUM score = %v", v)
	}
}

func TestCUSUMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	c := NewCUSUM()
	x := genShift(200, 150, 3, 0.5, rng)
	if a, b := c.ScoreAt(x, 170), c.ScoreAt(x, 170); a != b {
		t.Fatalf("CUSUM not deterministic: %v vs %v", a, b)
	}
}

func TestCUSUMPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short window should panic")
		}
	}()
	NewCUSUM().ScoreAt(make([]float64, 100), 10)
}

func TestCUSUMConfigGeometry(t *testing.T) {
	cfg := NewCUSUM().Config()
	if cfg.PastSpan() != 60 {
		t.Fatalf("PastSpan = %d, want 60", cfg.PastSpan())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config invalid: %v", err)
	}
}

func TestCUSUMDefaultsApplied(t *testing.T) {
	c := &CUSUM{} // all zero: defaults must kick in, not panic/divide by 0
	x := genShift(100, 50, 4, 0.2, rand.New(rand.NewSource(63)))
	if v := c.ScoreAt(x, 60); v < 0 || math.IsNaN(v) {
		t.Fatalf("zero-value CUSUM score = %v", v)
	}
}

func TestMRLSDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	m := NewMRLS()
	x := genShift(300, 200, 5, 0.3, rng)
	var peak float64
	for i := 200; i < 215; i++ {
		if v := m.ScoreAt(x, i); v > peak {
			peak = v
		}
	}
	var quiet float64
	for i := 100; i < 150; i++ {
		if v := m.ScoreAt(x, i); v > quiet {
			quiet = v
		}
	}
	if peak <= 2*quiet {
		t.Fatalf("MRLS peak %v vs quiet %v", peak, quiet)
	}
}

// The spike sensitivity the paper reports: a single-point outlier (no
// sustained change) must produce a large MRLS score — that is the
// documented failure mode on variable KPIs.
func TestMRLSSensitiveToSpike(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	m := NewMRLS()
	x := genShift(300, 9999, 0, 0.3, rng)
	base := m.ScoreAt(x, 200)
	x[200] += 8 // one-off spike at the scored point
	spiked := m.ScoreAt(x, 200)
	if spiked < 3*base+1 {
		t.Fatalf("MRLS spike score %v vs base %v — expected strong spike reaction", spiked, base)
	}
}

func TestMRLSConstantWindowZero(t *testing.T) {
	m := NewMRLS()
	x := make([]float64, 100)
	if v := m.ScoreAt(x, 50); v != 0 {
		t.Fatalf("constant-window MRLS score = %v", v)
	}
}

func TestMRLSDefaultsApplied(t *testing.T) {
	m := &MRLS{}
	x := genShift(100, 50, 4, 0.2, rand.New(rand.NewSource(66)))
	if v := m.ScoreAt(x, 60); v < 0 || math.IsNaN(v) {
		t.Fatalf("zero-value MRLS score = %v", v)
	}
}

func TestMRLSPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short window should panic")
		}
	}()
	NewMRLS().ScoreAt(make([]float64, 100), 5)
}

func TestDownsample(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	d2 := downsampleInto(&mrlsWorkspace{}, x, 2)
	want := []float64{1.5, 3.5, 5}
	if len(d2) != 3 {
		t.Fatalf("downsample len = %d", len(d2))
	}
	for i := range want {
		if math.Abs(d2[i]-want[i]) > 1e-12 {
			t.Fatalf("downsample = %v", d2)
		}
	}
	d1 := downsampleInto(&mrlsWorkspace{}, x, 1)
	d1[0] = 99
	if x[0] == 99 {
		t.Fatal("downsample(1) must copy")
	}
}

func TestCusumRange(t *testing.T) {
	// Constant series: zero range.
	if cusumRange([]float64{3, 3, 3}) != 0 {
		t.Fatal("constant cusumRange != 0")
	}
	// Step series has a pronounced S-range.
	step := []float64{0, 0, 0, 0, 4, 4, 4, 4}
	if cusumRange(step) != 8 {
		t.Fatalf("step cusumRange = %v, want 8", cusumRange(step))
	}
}

// Both baselines must satisfy the shared scorer contract used by the
// detection pipeline.
func TestBaselinesImplementScorer(t *testing.T) {
	var _ sst.Scorer = NewCUSUM()
	var _ sst.Scorer = NewMRLS()
}

func TestWoWSeasonalQuietShiftLoud(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	w := &WoW{Window: 30, PeriodBins: 1440, FallbackBins: 1440}
	n := 3 * 1440
	seasonal := make([]float64, n)
	for i := range seasonal {
		seasonal[i] = 100 + 40*math.Sin(2*math.Pi*float64(i%1440)/1440) + rng.NormFloat64()
	}
	// Quiet on a repeating pattern, even at the steepest slope.
	var quiet float64
	for i := 2 * 1440; i < 2*1440+600; i += 7 {
		if v := w.ScoreAt(seasonal, i); v > quiet {
			quiet = v
		}
	}
	if quiet > 3 {
		t.Fatalf("WoW quiet max = %v on a repeating seasonal pattern", quiet)
	}
	// Loud on a genuine shift.
	shifted := append([]float64{}, seasonal...)
	for i := 2*1440 + 300; i < n; i++ {
		shifted[i] += 40
	}
	if v := w.ScoreAt(shifted, 2*1440+340); v < 2*quiet+3 {
		t.Fatalf("WoW shift score = %v vs quiet %v", v, quiet)
	}
}

func TestWoWFallbackToDaily(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	w := NewWoW() // weekly period, daily fallback
	n := 2 * 1440 // far less than a week of data
	x := make([]float64, n)
	for i := range x {
		x[i] = 50 + rng.NormFloat64()
	}
	if v := w.ScoreAt(x, n-10); math.IsNaN(v) || v < 0 {
		t.Fatalf("fallback score = %v", v)
	}
}

func TestWoWPanicsWithoutHistory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no-history WoW should panic")
		}
	}()
	NewWoW().ScoreAt(make([]float64, 100), 50)
}

func TestWoWDefaults(t *testing.T) {
	w := &WoW{}
	cfg := w.Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.win() != 30 || w.period() != 7*1440 || w.fallback() != 1440 {
		t.Fatal("defaults wrong")
	}
	var _ sst.Scorer = w
}
