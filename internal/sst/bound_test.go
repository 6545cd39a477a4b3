package sst

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/stats"
)

// boundShapes are the series the bound-first tests sweep: shapes that
// keep the Eq. 11 multiplier low for long stretches (so the bound fires)
// broken by stretches where it does not.
func boundShapes() map[string][]float64 {
	const n = 320
	rng := rand.New(rand.NewSource(91))
	noise := func() float64 { return rng.NormFloat64() }
	shapes := map[string][]float64{
		"level-shift":   make([]float64, n),
		"ramp":          make([]float64, n),
		"spikes":        make([]float64, n),
		"constant":      make([]float64, n),
		"antisymmetric": make([]float64, n),
		"large-offset":  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		base := 50 + math.Sin(2*math.Pi*float64(i)/180)
		shift := 0.0
		if i >= n/2 {
			shift = 12
		}
		shapes["level-shift"][i] = base + noise() + shift
		shapes["ramp"][i] = base + noise() + 20*math.Max(0, math.Min(1, float64(i-120)/60))
		shapes["spikes"][i] = base + noise()
		if i%67 == 40 {
			shapes["spikes"][i] += 40
		}
		shapes["constant"][i] = 7
		shapes["antisymmetric"][i] = float64(1 - 2*(i%2))
		shapes["large-offset"][i] = 3.7e7 + noise() + shift
	}
	return shapes
}

// sweepWithFloor runs one batch sweep of cfg over x.
func sweepWithFloor(cfg Config, floor float64, x []float64) (scores []float64, solved, bounded int) {
	sl := NewSliding(NewIKA(cfg))
	sl.Floor = floor
	return sl.Sweep(x)
}

// The bound-first guarantee a gate thresholding at Floor relies on: every
// position whose Floor-0 score reaches Floor is solved and bit-equal to
// it (including the first solve after a bounded stretch), every other
// position reads an upper bound of its score that is itself under Floor.
func TestBoundFirstSweep(t *testing.T) {
	floors := []float64{0, 0.5, 1.6, 6, math.Inf(1)}
	for shape, x := range boundShapes() {
		for cname, cfg := range configMatrix() {
			ref, refSolved, refBounded := sweepWithFloor(cfg, 0, x)
			rcfg := NewIKA(cfg).Config()
			positions := len(x) - rcfg.PastSpan() - rcfg.FutureSpan() + 1
			if refBounded != 0 || refSolved != positions {
				t.Fatalf("%s/%s: Floor 0 reports %d solved, %d bounded of %d", shape, cname, refSolved, refBounded, positions)
			}
			for _, floor := range floors {
				name := fmt.Sprintf("%s/%s/floor=%v", shape, cname, floor)
				got, solved, bounded := sweepWithFloor(cfg, floor, x)
				if solved+bounded != positions {
					t.Fatalf("%s: %d solved + %d bounded, want %d positions", name, solved, bounded, positions)
				}
				if (floor == 0 || !rcfg.RobustFilter) && bounded != 0 {
					t.Fatalf("%s: %d positions bounded with the bound off", name, bounded)
				}
				under := 0
				for i, want := range ref {
					switch {
					case math.IsNaN(want) || want >= floor:
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%s: score[%d] = %v, Floor-0 sweep %v", name, i, got[i], want)
						}
					case !(got[i] < floor) || got[i] < want:
						t.Fatalf("%s: score[%d] = %v is not a bound of %v under the floor", name, i, got[i], want)
					default:
						under++
					}
				}
				if bounded > under {
					t.Fatalf("%s: %d bounded but only %d positions under the floor", name, bounded, under)
				}
			}
		}
	}
}

// The deployed configuration on a level shift must exercise both arms,
// with solved positions following bounded ones — otherwise the property
// test above proves nothing about resuming after a bounded stretch.
func TestBoundFirstSweepExercisesBothArms(t *testing.T) {
	x := boundShapes()["level-shift"]
	cfg := Config{Normalize: true, RobustFilter: true}
	ref, _, _ := sweepWithFloor(cfg, 0, x)
	got, solved, bounded := sweepWithFloor(cfg, 1.6, x)
	if solved == 0 || bounded < solved {
		t.Fatalf("level shift at floor 1.6: %d solved, %d bounded; want mostly bounded with some solved", solved, bounded)
	}
	resumed := 0
	for i := 1; i < len(ref); i++ {
		if ref[i] >= 1.6 && ref[i-1] < 1.6 {
			resumed++
			if got[i] != ref[i] {
				t.Fatalf("first solve after a bounded stretch: score[%d] = %v, want %v", i, got[i], ref[i])
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no above-floor position follows a below-floor one")
	}
}

// Streaming with a Floor is the batch sweep with that Floor, whatever the
// arrival chunking: both run the one step body.
func TestBoundFirstStreamMatchesBatch(t *testing.T) {
	for shape, x := range boundShapes() {
		sl := NewSliding(NewIKA(Config{Normalize: true, RobustFilter: true}))
		sl.Floor = 1.6
		want, _, bounded := sl.Sweep(x)
		rcfg := sl.Config()
		hi := len(x) - rcfg.FutureSpan() + 1
		for _, chunk := range []int{1, 3, 17} {
			sw := sl.NewStream()
			sw.Reset(0)
			got := nanSeries(len(x))
			for n := chunk; ; n += chunk {
				if n > len(x) {
					n = len(x)
				}
				for sw.Pos() < hi && sw.Pos()+rcfg.FutureSpan() <= n {
					got[sw.Pos()] = sw.Next(x[:n])
				}
				if n == len(x) {
					break
				}
			}
			name := fmt.Sprintf("%s/chunk=%d", shape, chunk)
			bitCompare(t, name, got, want)
			if sw.Bounded() != bounded {
				t.Fatalf("%s: stream bounded %d positions, batch %d", name, sw.Bounded(), bounded)
			}
		}
	}
}

// The bound adds no allocation to the steady-state sweep.
func TestBoundFirstSweepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	x := boundShapes()["level-shift"]
	sl := NewSliding(NewIKA(Config{Normalize: true, RobustFilter: true}))
	sl.Floor = 1.6
	rcfg := sl.Config()
	lo, hi := rcfg.PastSpan(), len(x)-rcfg.FutureSpan()+1
	out := make([]float64, len(x))
	sl.ScoreRangeInto(out, x, lo, hi) // warm the pooled state
	if allocs := testing.AllocsPerRun(10, func() { sl.ScoreRangeInto(out, x, lo, hi) }); allocs != 0 {
		t.Errorf("allocs/sweep = %v, want 0", allocs)
	}
}

// windowStats derives the Eq. 11 sections' medians and MADs from two
// sliding sorted spans instead of sorting them; it must agree with the
// sorting filter bit for bit on every window of a sweep, including the
// degenerate normalizations (zero MAD → stddev, zero stddev → level floor)
// and the non-finite or clipped windows that keep the sorting path.
func TestSectionMultiplierMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	type gen func(i int) float64
	gens := map[string]gen{
		"normal":       func(int) float64 { return 100 + rng.NormFloat64() },
		"heavy-tail":   func(int) float64 { return math.Exp(3 * rng.NormFloat64()) },
		"integers":     func(int) float64 { return float64(rng.Intn(4)) },
		"mostly-flat":  func(int) float64 { return float64(rng.Intn(12) / 11) }, // MAD 0, stddev > 0
		"constant":     func(int) float64 { return 42 },                         // level floor
		"zero":         func(int) float64 { return 0 },
		"large-offset": func(int) float64 { return 3.7e7 + rng.NormFloat64() },
		"tiny":         func(int) float64 { return 1e-300 * rng.Float64() },
		"subnormal":    func(int) float64 { return 5e-324 * float64(rng.Intn(5)) },
		"huge":         func(int) float64 { return 1e308 * (rng.Float64() - 0.5) },
		"near-cap":     func(int) float64 { return 2 * spanMax * (rng.Float64() - 0.5) },
		"signed-zero":  func(i int) float64 { return math.Copysign(0, float64(1-2*(i%2))) },
		"zero-signs":   func(int) float64 { return math.Copysign(float64(rng.Intn(4)/3), float64(1-2*rng.Intn(2))) },
		"step":         func(i int) float64 { return float64(i/17) * 9 },
		"with-nan": func(i int) float64 {
			if rng.Intn(9) == 0 {
				return math.NaN()
			}
			return rng.NormFloat64()
		},
		"with-inf": func(i int) float64 {
			if rng.Intn(9) == 0 {
				return math.Inf(1 - 2*rng.Intn(2))
			}
			return rng.NormFloat64()
		},
		"rare-nan": func(i int) float64 { // enters, dwells, leaves; the spans rebuild in between
			if i%71 == 50 {
				return math.NaN()
			}
			return float64(rng.Intn(6))
		},
	}
	cfgs := map[string]Config{
		"deployed": {Normalize: true, RobustFilter: true},
		"omega5":   {Omega: 5, Normalize: true, RobustFilter: true},
		"delta7":   {Delta: 7, Normalize: true, RobustFilter: true},  // δ ≠ ω: section ≠ past span
		"delta12":  {Delta: 12, Normalize: true, RobustFilter: true}, // even past span
		"gamma5":   {Gamma: 5, Normalize: true, RobustFilter: true},  // after-section clipped
		"gamma12":  {Gamma: 12, Rho: 2, Normalize: true, RobustFilter: true},
		"rho4":     {Gamma: 5, Rho: 4, Normalize: true, RobustFilter: true},
		"nofilter": {Normalize: true},
		"raw":      {RobustFilter: true},
	}
	spanPath := map[string]bool{"deployed": true, "omega5": true, "gamma12": true, "rho4": true}
	for cname, cfg := range cfgs {
		sl := NewSliding(NewIKA(cfg))
		rcfg := sl.Config()
		st := &slidingState{}
		for gname, g := range gens {
			x := make([]float64, rcfg.WindowSize()+200)
			for i := range x {
				x[i] = g(i)
			}
			sl.stepReset(st)
			onSpans := 0
			for pos := rcfg.PastSpan(); pos+rcfg.FutureSpan() <= len(x); pos++ {
				st.spansOK = st.spansOK && pos != rcfg.PastSpan()+120 // a reset mid-series
				checkWindowStats(t, cname+"/"+gname, sl, st, x, pos)
				if st.spansOK {
					onSpans++
				}
			}
			switch finite := gname != "huge" && gname != "near-cap" && !strings.HasPrefix(gname, "with-"); {
			case !spanPath[cname] && onSpans != 0:
				t.Errorf("%s/%s: %d positions on the span path of a config that has none", cname, gname, onSpans)
			case spanPath[cname] && finite && gname != "rare-nan" && onSpans != 201:
				t.Errorf("%s/%s: %d of 201 positions on the span path, want all", cname, gname, onSpans)
			case spanPath[cname] && gname == "rare-nan" && (onSpans == 0 || onSpans == 201):
				t.Errorf("%s/%s: %d of 201 positions on the span path, want some on either", cname, gname, onSpans)
			}
		}
	}
}

// checkWindowStats advances st to position pos of x through windowStats
// and holds all it returns to the sorting path, bit for bit.
func checkWindowStats(t *testing.T, name string, sl *SlidingScorer, st *slidingState, x []float64, pos int) {
	t.Helper()
	cfg := sl.Config()
	med, inv, mult := sl.windowStats(st, x, pos)
	wmed, winv, wmult := sortingStats(cfg, x, pos)
	if math.Float64bits(med) != math.Float64bits(wmed) || math.Float64bits(inv) != math.Float64bits(winv) ||
		math.Float64bits(mult) != math.Float64bits(wmult) {
		t.Fatalf("%s position %d: spans give med %v inv %v mult %v (%x), sorting %v %v %v (%x)\nwindow %v",
			name, pos, med, inv, mult, math.Float64bits(mult), wmed, winv, wmult, math.Float64bits(wmult),
			x[pos-cfg.PastSpan():pos+cfg.FutureSpan()])
	}
}

// sortingStats is windowStats as the sweep computed it before the sorted
// spans: one sort for the past span's median and MAD, the window
// normalized, and the sorting Eq. 11 filter over it.
func sortingStats(cfg Config, x []float64, t int) (med, inv, mult float64) {
	w, tl := x[t-cfg.PastSpan():t+cfg.FutureSpan()], cfg.PastSpan()
	inv, mult = 1, 1
	if cfg.Normalize {
		var mad float64
		med, mad = stats.MedianMAD(w[:tl])
		inv = 1 / normScale(w[:tl], med, mad)
		norm := make([]float64, len(w))
		for i, v := range w {
			norm[i] = (v - med) * inv
		}
		w = norm
	}
	if cfg.RobustFilter {
		mult = robustMultiplier(w, tl, cfg.Omega)
	}
	return med, inv, mult
}
