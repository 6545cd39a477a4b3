package sst

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genLevelShift returns n points of unit-noise data with a level shift
// of the given magnitude at index at.
func genLevelShift(n, at int, mag float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 0.1
		if i >= at {
			x[i] += mag
		}
	}
	return x
}

// genRamp returns n points that ramp from 0 to mag between at and
// at+dur, with noise.
func genRamp(n, at, dur int, mag float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 0.1
		switch {
		case i >= at+dur:
			x[i] += mag
		case i >= at:
			x[i] += mag * float64(i-at) / float64(dur)
		}
	}
	return x
}

func scorers(cfg Config) map[string]Scorer {
	return map[string]Scorer{
		"classic": NewClassic(cfg),
		"robust":  NewRobust(cfg),
		"ika":     NewIKA(cfg),
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Omega != 9 || cfg.Eta != 3 || cfg.Delta != 9 || cfg.Gamma != 9 || cfg.K != 5 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.WindowSize() != 34 {
		t.Fatalf("WindowSize = %d, want 34 (W_FUNNEL)", cfg.WindowSize())
	}
}

func TestKrylovDim(t *testing.T) {
	if KrylovDim(3) != 5 || KrylovDim(4) != 8 || KrylovDim(1) != 1 {
		t.Fatalf("KrylovDim wrong: %d %d %d", KrylovDim(3), KrylovDim(4), KrylovDim(1))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Omega: 4, Eta: 5},
		{Omega: 9, Delta: 2, Eta: 3},
		{Rho: -1},
		{Omega: 4, Eta: 3, K: 5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestSpanArithmetic(t *testing.T) {
	cfg := Config{Omega: 5, Delta: 4, Gamma: 3, Rho: 2, Eta: 2, K: 3}
	if cfg.PastSpan() != 8 {
		t.Fatalf("PastSpan = %d", cfg.PastSpan())
	}
	if cfg.FutureSpan() != 9 {
		t.Fatalf("FutureSpan = %d", cfg.FutureSpan())
	}
	if cfg.WindowSize() != 17 {
		t.Fatalf("WindowSize = %d", cfg.WindowSize())
	}
}

// Classic SST is a *dynamics* detector: on a smooth structured series a
// level shift creates step-shaped lag vectors outside the past subspace,
// so the score peaks where the future windows straddle the change.
func TestClassicPeaksOnSmoothLevelShift(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n, c := 200, 100
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 + 2*math.Sin(2*math.Pi*float64(i)/20) + 0.01*rng.NormFloat64()
		if i >= c {
			x[i] += 8
		}
	}
	s := NewClassic(Config{Normalize: true})
	scores := ScoreSeries(s, x)
	best, bestAt := -1.0, -1
	for i, v := range scores {
		if !math.IsNaN(v) && v > best {
			best, bestAt = v, i
		}
	}
	// The straddle region is roughly [c−ω, c+ω]; allow a little slack.
	if bestAt < c-12 || bestAt > c+12 {
		t.Fatalf("classic peak at %d, want within [%d,%d]", bestAt, c-12, c+12)
	}
	var quiet float64
	for i := 30; i < 70; i++ {
		if scores[i] > quiet {
			quiet = scores[i]
		}
	}
	if best <= 3*quiet {
		t.Fatalf("classic peak %v not above quiet max %v", best, quiet)
	}
}

// The deployable detectors (robust/IKA with the Eq. 11 filter and
// past-anchored normalization) must localize a level shift on *noisy*
// data — the case where classic SST degrades (§3.2.2).
func TestRobustFilterLocalizesNoisyLevelShift(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	n, c := 300, 150
	x := genLevelShift(n, c, 5, rng)
	cfg := Config{Normalize: true, RobustFilter: true}
	for _, name := range []string{"robust", "ika"} {
		s := scorers(cfg)[name]
		scores := ScoreSeries(s, x)
		best, bestAt := -1.0, -1
		for i, v := range scores {
			if !math.IsNaN(v) && v > best {
				best, bestAt = v, i
			}
		}
		if bestAt < c-2*9 || bestAt > c+2*9 {
			t.Errorf("%s: peak at %d, want within ±2ω of %d", name, bestAt, c)
		}
		var quiet float64
		for i := 50; i < 110; i++ {
			if scores[i] > quiet {
				quiet = scores[i]
			}
		}
		if best <= 2*quiet {
			t.Errorf("%s: peak %v not above 2× quiet max %v", name, best, quiet)
		}
	}
}

func TestScoreAtRampDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x := genRamp(240, 120, 30, 6, rng)
	cfg := Config{Normalize: true, RobustFilter: true}
	for name, s := range scorers(cfg) {
		scores := ScoreSeries(s, x)
		var inRamp, quiet float64
		for i := 115; i < 160; i++ {
			if scores[i] > inRamp {
				inRamp = scores[i]
			}
		}
		for i := 40; i < 80; i++ {
			if scores[i] > quiet {
				quiet = scores[i]
			}
		}
		if inRamp <= 2*quiet {
			t.Errorf("%s: ramp max %v vs quiet max %v", name, inRamp, quiet)
		}
	}
}

func TestScoreConstantSeriesIsZero(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 42
	}
	for name, s := range scorers(Config{Normalize: true}) {
		if v := s.ScoreAt(x, 50); v != 0 {
			t.Errorf("%s: constant series score = %v", name, v)
		}
	}
}

func TestScoreRangeWithoutFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for name, s := range scorers(Config{}) {
		scores := ScoreSeries(s, x)
		for i, v := range scores {
			if math.IsNaN(v) {
				continue
			}
			if v < 0 || v > 1 {
				t.Fatalf("%s: score[%d] = %v outside [0,1]", name, i, v)
			}
		}
	}
}

func TestScoreSeriesNaNEdges(t *testing.T) {
	cfg := Config{}
	s := NewIKA(cfg)
	x := make([]float64, 60)
	scores := ScoreSeries(s, x)
	for i := 0; i < cfg.withDefaults().PastSpan(); i++ {
		if !math.IsNaN(scores[i]) {
			t.Fatalf("leading score %d not NaN", i)
		}
	}
	for i := len(x) - cfg.withDefaults().FutureSpan() + 1; i < len(x); i++ {
		if !math.IsNaN(scores[i]) {
			t.Fatalf("trailing score %d not NaN", i)
		}
	}
}

func TestScoreAtPanicsOutOfRange(t *testing.T) {
	s := NewIKA(Config{})
	x := make([]float64, 100)
	for _, bad := range []int{0, 5, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScoreAt(%d) should panic", bad)
				}
			}()
			s.ScoreAt(x, bad)
		}()
	}
}

// The headline numerical claim of §3.2.3: IKA approximates the exact
// robust score. On smooth (effectively low-rank) windows the Krylov
// approximation is tight; on white-noise windows — whose Gram spectrum
// is flat, so truncated Krylov spaces cannot pin individual
// eigenvectors — only aggregate agreement is expected, and those scores
// are suppressed by the Eq. 11 filter anyway.
func TestIKAApproximatesRobust(t *testing.T) {
	cfg := Config{Normalize: true}
	exact := NewRobust(cfg)
	fast := NewIKA(cfg)
	rcfg := cfg.withDefaults()

	// Smooth structured series: pointwise agreement.
	n, c := 240, 120
	smooth := make([]float64, n)
	for i := range smooth {
		smooth[i] = 5 + 2*math.Sin(2*math.Pi*float64(i)/24)
		if i >= c {
			smooth[i] += 6
		}
	}
	var worstQuiet, worstChange float64
	for t0 := rcfg.PastSpan(); t0+rcfg.FutureSpan() <= n; t0++ {
		d := math.Abs(exact.ScoreAt(smooth, t0) - fast.ScoreAt(smooth, t0))
		if t0 >= c-2*rcfg.Omega && t0 <= c+2*rcfg.Omega {
			if d > worstChange {
				worstChange = d
			}
		} else if d > worstQuiet {
			worstQuiet = d
		}
	}
	// Quiet windows are low-rank: the Krylov approximation is tight.
	if worstQuiet > 0.1 {
		t.Fatalf("IKA deviates by %v on quiet smooth data", worstQuiet)
	}
	// Near the change the windows are higher-rank and both scores are
	// elevated; only coarse agreement is required for identical
	// detections.
	if worstChange > 0.4 {
		t.Fatalf("IKA deviates by %v in the change region", worstChange)
	}

	// Noisy series: mean deviation stays moderate.
	rng := rand.New(rand.NewSource(53))
	noisy := genLevelShift(300, 150, 4, rng)
	var sum float64
	var cnt int
	for t0 := rcfg.PastSpan(); t0+rcfg.FutureSpan() <= len(noisy); t0++ {
		sum += math.Abs(exact.ScoreAt(noisy, t0) - fast.ScoreAt(noisy, t0))
		cnt++
	}
	if mean := sum / float64(cnt); mean > 0.2 {
		t.Fatalf("IKA mean deviation %v on noisy data", mean)
	}
}

// The robustness claim of §3.2.2: under heavy noise, the robust filter
// suppresses scores in change-free regions relative to the change
// region more than classic SST does.
func TestRobustFilterImprovesNoiseContrast(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 400
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 1.0 // heavy noise
		if i >= 200 {
			x[i] += 6
		}
	}
	contrast := func(s Scorer) float64 {
		scores := ScoreSeries(s, x)
		var peak, quiet float64
		for i := 190; i < 212; i++ {
			if scores[i] > peak {
				peak = scores[i]
			}
		}
		cnt := 0
		for i := 40; i < 160; i++ {
			quiet += scores[i]
			cnt++
		}
		quiet /= float64(cnt)
		if quiet == 0 {
			quiet = 1e-12
		}
		return peak / quiet
	}
	classic := contrast(NewClassic(Config{Normalize: true}))
	robust := contrast(NewIKA(Config{Normalize: true, RobustFilter: true}))
	if robust <= classic {
		t.Fatalf("robust contrast %v not better than classic %v", robust, classic)
	}
}

func TestFutureSmallestOptionRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	x := genLevelShift(120, 60, 5, rng)
	for name, s := range scorers(Config{Normalize: true, FutureSmallest: true}) {
		v := s.ScoreAt(x, 60)
		if math.IsNaN(v) || v < 0 {
			t.Errorf("%s with FutureSmallest: score %v", name, v)
		}
	}
}

func TestRobustMultiplierStaticVsShift(t *testing.T) {
	// Static window: multiplier near zero. Shifted: clearly positive.
	static := make([]float64, 40)
	shifted := make([]float64, 40)
	for i := range static {
		static[i] = 1
		shifted[i] = 1
		if i >= 20 {
			shifted[i] = 5
		}
	}
	if m := robustMultiplier(static, 20, 9); m != 0 {
		t.Fatalf("static multiplier = %v", m)
	}
	if m := robustMultiplier(shifted, 20, 9); m < 1 {
		t.Fatalf("shift multiplier = %v", m)
	}
	// Degenerate edges return the neutral element.
	if m := robustMultiplier(shifted, 0, 9); m != 1 {
		t.Fatalf("edge multiplier = %v", m)
	}
}

func TestClamp01(t *testing.T) {
	cases := map[float64]float64{-1: 0, 0.5: 0.5, 2: 1, math.NaN(): 0}
	for in, want := range cases {
		if got := clamp01(in); got != want {
			t.Errorf("clamp01(%v) = %v", in, got)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	for name, ctor := range map[string]func(){
		"classic": func() { NewClassic(Config{Omega: 3, Eta: 5}) },
		"robust":  func() { NewRobust(Config{Omega: 3, Eta: 5}) },
		"ika":     func() { NewIKA(Config{Omega: 3, Eta: 5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid config should panic", name)
				}
			}()
			ctor()
		}()
	}
}

// Property: scores are invariant to affine transforms of the input when
// normalization is on.
func TestScoreAffineInvarianceWhenNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	x := genLevelShift(150, 75, 3, rng)
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 1000 + 250*x[i]
	}
	s := NewIKA(Config{Normalize: true, RobustFilter: true})
	for _, tp := range []int{40, 75, 110} {
		a, b := s.ScoreAt(x, tp), s.ScoreAt(y, tp)
		if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
			t.Fatalf("affine variance at %d: %v vs %v", tp, a, b)
		}
	}
}

// Property: every scorer returns finite, non-negative scores on
// arbitrary finite input windows.
func TestScoreFiniteProperty(t *testing.T) {
	cfg := Config{Normalize: true, RobustFilter: true}
	scorersUnderTest := scorers(cfg)
	f := func(raw []float64, seed int64) bool {
		w := cfg.withDefaults().WindowSize()
		if len(raw) < w+1 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				v = 0
			}
			xs = append(xs, v)
		}
		tp := cfg.withDefaults().PastSpan() + int(uint(seed)%uint(len(xs)-w+1))
		if tp+cfg.withDefaults().FutureSpan() > len(xs) {
			tp = cfg.withDefaults().PastSpan()
		}
		for name, s := range scorersUnderTest {
			v := s.ScoreAt(xs, tp)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Logf("%s produced %v", name, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the window geometry identities hold for arbitrary legal
// configurations.
func TestWindowGeometryProperty(t *testing.T) {
	f := func(omega, delta, gamma, rho uint8) bool {
		cfg := Config{
			Omega: int(omega%20) + 3,
			Delta: int(delta % 20),
			Gamma: int(gamma % 20),
			Rho:   int(rho % 5),
			Eta:   2,
			K:     3,
		}
		r := cfg.withDefaults()
		return cfg.WindowSize() == cfg.PastSpan()+cfg.FutureSpan() &&
			cfg.PastSpan() == r.Delta+r.Omega-1 &&
			cfg.FutureSpan() == r.Rho+r.Gamma+r.Omega-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// §3.2.3's premise for fixing δ = ω: "the change score is not very
// sensitive to δ". Verify the robust scorer localizes the same change
// for δ below, at, and above ω.
func TestDeltaInsensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n, c := 240, 120
	x := genLevelShift(n, c, 8, rng)
	var peaks []int
	for _, delta := range []int{7, 9, 11} {
		cfg := Config{Omega: 9, Delta: delta, Normalize: true, RobustFilter: true}
		s := NewRobust(cfg)
		scores := ScoreSeries(s, x)
		best, bestAt := -1.0, -1
		for i, v := range scores {
			if !math.IsNaN(v) && v > best {
				best, bestAt = v, i
			}
		}
		peaks = append(peaks, bestAt)
	}
	for _, p := range peaks {
		if p < c-18 || p > c+18 {
			t.Fatalf("peaks across δ = %v; one strayed from the change at %d", peaks, c)
		}
	}
}
