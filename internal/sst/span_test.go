package sst

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// sortingSweep is the cold sweep as it ran before the sorted spans — step's
// body with sortingStats in place of windowStats — and the oracle the span
// path is held to, bit for bit.
func sortingSweep(sl *SlidingScorer, x []float64, lo, hi int) []float64 {
	cfg := sl.ika.cfg
	out := nanSeries(len(x))
	st := &slidingState{}
	sl.stepReset(st)
	lo = max(lo, cfg.PastSpan())
	for t := lo; t < hi; t++ {
		if t == lo {
			cadence := 0
			if cfg.Normalize {
				cadence = -1
			}
			st.pastG.RefreshEvery, st.futG.RefreshEvery = cadence, cadence
			st.pastG.Init(x, t, cfg.Omega, cfg.Delta)
			st.futG.Init(x, t+cfg.Rho+cfg.Gamma+cfg.Omega-1, cfg.Omega, cfg.Gamma)
			st.untilRecen = 0
		} else {
			st.pastG.Slide()
			st.futG.Slide()
		}
		med, inv, mult := sortingStats(cfg, x, t)
		if cfg.Normalize && st.untilRecen <= 0 {
			st.pastG.Recenter(med)
			st.futG.Recenter(med)
			st.untilRecen = recenterEvery
		}
		st.untilRecen--
		if out[t] = mult; mult < st.floor {
			continue
		}
		st.futG.GramInto(&st.gf, med, inv)
		st.futG.RowSumsInto(st.ws.start, med, inv)
		st.pastG.GramInto(&st.gp, med, inv)
		xhat, _ := sl.ika.scoreWindow(&st.ws, &st.gp, &st.gf, mult, st.floor)
		out[t] = xhat * mult
	}
	return out
}

// spanSeries are series that walk the spans through every state: ties and
// signed zeros in both arrival orders, a non-finite or over-cap value
// entering the after-section, dwelling across both spans and leaving (the
// sorting path, then a rebuild), and plain noise around a shift.
func spanSeries() map[string][]float64 {
	const n = 260
	rng := rand.New(rand.NewSource(93))
	out := map[string][]float64{}
	fill := func(name string, f func(i int) float64) {
		x := make([]float64, n)
		for i := range x {
			x[i] = f(i)
		}
		out[name] = x
	}
	fill("noise-shift", func(i int) float64 { return 50 + rng.NormFloat64() + 9*float64(i/150) })
	fill("ties", func(i int) float64 { return float64(rng.Intn(3)) })
	fill("zeros-neg-first", func(i int) float64 { return math.Copysign(0, float64(2*(i%2)-1)) })
	fill("zeros-pos-first", func(i int) float64 { return math.Copysign(0, float64(1-2*(i%2))) })
	fill("zeros-and-ones", func(i int) float64 { return math.Copysign(float64(rng.Intn(3)/2), float64(1-2*rng.Intn(2))) })
	for name, bad := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1), "over-cap": -1.5 * spanMax} {
		fill("visit-"+name, func(i int) float64 {
			if i == 60 || i == 61 || i == 140 || i == n-1 {
				return bad
			}
			return 10 + float64(rng.Intn(5)) + 6*float64(i/130)
		})
	}
	return out
}

// spanConfigs covers the span geometry (δ = ω, after-section unclipped) at
// default and non-default ω, γ and ρ, and the geometries that stay on the
// sorting path: δ ≠ ω with an odd and an even past span, a clipped
// after-section, no filter, no normalization.
func spanConfigs() map[string]Config {
	return map[string]Config{
		"deployed": {Normalize: true, RobustFilter: true},
		"omega5":   {Omega: 5, Normalize: true, RobustFilter: true},
		"omega6":   {Omega: 6, Eta: 2, Normalize: true, RobustFilter: true},
		"gamma12":  {Gamma: 12, Normalize: true, RobustFilter: true},
		"rho3":     {Rho: 3, Gamma: 6, Normalize: true, RobustFilter: true},
		"delta7":   {Delta: 7, Normalize: true, RobustFilter: true},
		"delta12":  {Delta: 12, Normalize: true, RobustFilter: true},
		"gamma5":   {Gamma: 5, Normalize: true, RobustFilter: true},
		"nofilter": {Normalize: true},
		"raw":      {RobustFilter: true},
	}
}

// The sorted-span sweep is the sorting sweep, bit for bit: batch at Floor 0
// and at the deployed Floor, and streamed with the series reallocated
// between Next calls and the sweep reset mid-series.
func TestSpanSweepMatchesSortingSweep(t *testing.T) {
	for sname, x := range spanSeries() {
		for cname, cfg := range spanConfigs() {
			for _, floor := range []float64{0, 1.6} {
				name := fmt.Sprintf("%s/%s/floor=%v", sname, cname, floor)
				sl := NewSliding(NewIKA(cfg))
				sl.Floor = floor
				rcfg := sl.Config()
				hi := len(x) - rcfg.FutureSpan() + 1
				want := sortingSweep(sl, x, 0, hi)
				got, _, _ := sl.Sweep(x)
				bitCompare(t, name+"/batch", got, want)

				// Position 100 restarts the sweep while visit-*'s first bad
				// value has left and the second has not yet entered.
				again := sortingSweep(sl, x, 100, hi)
				copy(want[100:], again[100:])
				sw := sl.NewStream()
				sw.Reset(0)
				got = nanSeries(len(x))
				for n := 1; n <= len(x); n++ {
					prefix := append([]float64(nil), x[:n]...)
					for sw.Pos() < hi && sw.Pos()+rcfg.FutureSpan() <= n {
						if sw.Pos() == 100 && math.IsNaN(got[100]) {
							sw.Reset(100)
						}
						got[sw.Pos()] = sw.Next(prefix)
					}
				}
				bitCompare(t, name+"/stream", got, want)
			}
		}
	}
}

// slideSorted keeps a span in the order a fresh stable sort gives it, and
// sortedMedianMAD reads stats.MedianMADInto's answer off it, at every
// length 2ω−1 the sweep can ask for.
func TestSortedSpanSlides(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	alphabets := map[string][]float64{
		"ties":  {1, 2, 2, 3},
		"zeros": {math.Copysign(0, -1), 0, 1, -1},
		"wide":  {-spanMax, spanMax, 5e-324, -5e-324, 0, 1e-300, 3.7e7},
	}
	for aname, alpha := range alphabets {
		for _, n := range []int{1, 3, 9, 17, 29} {
			x := make([]float64, n+300)
			for i := range x {
				x[i] = alpha[rng.Intn(len(alpha))]
			}
			s := sortedInto(nil, x[:n])
			for lo := 0; ; lo++ {
				checkSpan(t, fmt.Sprintf("%s/n=%d/slide %d", aname, n, lo), s, x[lo:lo+n])
				if lo+n == len(x) {
					break
				}
				slideSorted(s, x[lo], x[lo+n])
			}
		}
	}
}

// checkSpan holds the maintained span s against the raw span it stands for.
func checkSpan(t *testing.T, name string, s, raw []float64) {
	t.Helper()
	bitCompare(t, name+": order", s, sortedInto(nil, raw))
	med, mad := sortedMedianMAD(s, 0, 1)
	wmed, wmad := stats.MedianMADInto(raw, nil)
	if math.Float64bits(med) != math.Float64bits(wmed) || math.Float64bits(mad) != math.Float64bits(wmad) {
		t.Fatalf("%s: median %v MAD %v, MedianMADInto %v %v\nspan %v", name, med, mad, wmed, wmad, raw)
	}
}

// fuzzValues maps a byte's low nibble to a value that stresses the spans;
// the high nibble, when set, adds a small integer to make near-ties.
var fuzzValues = [16]float64{
	0, math.Copysign(0, -1), 1, -1, 2, 0.5, 1e-300, 5e-324,
	spanMax, -spanMax, 1.0000001 * spanMax, -1e308, 3.7e7, math.NaN(), math.Inf(1), math.Inf(-1),
}

// FuzzSortedSpan drives windowStats over an arbitrary series — byte 0 picks
// ω, byte 1 a mid-series reset, the rest are values — and holds every
// position to the sorting path and the maintained spans to a fresh sort.
func FuzzSortedSpan(f *testing.F) {
	seed := func(omega, reset byte, runs ...[]byte) {
		data := []byte{omega, reset}
		for _, r := range runs {
			data = append(data, r...)
		}
		f.Add(data)
	}
	repeat := func(n int, pattern ...byte) []byte {
		var out []byte
		for len(out) < n {
			out = append(out, pattern...)
		}
		return out
	}
	seed(8, 0, repeat(80, 2, 4, 4, 3))                         // ties
	seed(8, 0, repeat(80, 0, 1))                               // +0 before −0
	seed(8, 0, repeat(80, 1, 0))                               // −0 before +0
	seed(4, 30, repeat(60, 0, 1, 2, 1, 0, 3))                  // zeros among values, reset mid-series
	seed(8, 0, repeat(50, 2, 0x12, 4), repeat(60, 5, 2, 0x25)) // near-ties
	for _, bad := range []byte{13, 14, 15, 10, 11} {           // NaN, ±Inf, over the cap: enter, dwell, leave
		seed(8, 0, repeat(50, 2, 4, 5), []byte{bad}, repeat(70, 4, 2, 6))
		seed(2, 12, repeat(20, 2, 4, 5), []byte{bad, bad}, repeat(30, 7, 2, 8))
	}
	seed(1, 0, repeat(40, 8, 9, 12)) // the cap itself, even ω
	seed(0, 0, repeat(10, 2, 3))     // one-point spans

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		omega := 1 + int(data[0])%9
		sl := NewSliding(NewIKA(Config{Omega: omega, Eta: 1, Normalize: true, RobustFilter: true}))
		cfg := sl.Config()
		x := make([]float64, 0, len(data))
		for _, b := range data[2:] {
			v := fuzzValues[b&15]
			if b>>4 != 0 {
				v += float64(b >> 4)
			}
			x = append(x, v)
		}
		if len(data) >= 10 && data[1] == 255 { // raw bits, for whatever the table misses
			x = x[:0]
			for b := data[2:]; len(b) >= 8; b = b[8:] {
				x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		}
		span := 2*omega - 1
		st := &slidingState{}
		sl.stepReset(st)
		for pos := cfg.PastSpan(); pos+cfg.FutureSpan() <= len(x); pos++ {
			if pos == cfg.PastSpan()+int(data[1]) {
				sl.stepReset(st)
			}
			checkWindowStats(t, fmt.Sprintf("ω=%d", omega), sl, st, x, pos)
			if st.spansOK {
				checkSpan(t, fmt.Sprintf("ω=%d position %d past", omega, pos), st.pastSpan, x[pos-span:pos])
				checkSpan(t, fmt.Sprintf("ω=%d position %d after", omega, pos), st.aftSpan, x[pos:pos+span])
			}
		}
	})
}
