// Package workload synthesizes the KPI data, topologies and software
// changes that substitute for the paper's proprietary production traces
// (§4.1). It produces the three KPI characters the evaluation
// partitions by — seasonal, stationary, variable — injects the level
// shifts and ramps of Fig. 2 with per-item ground-truth records,
// simulates non-software confounders (common shocks that hit treated
// and control groups alike) and baseline contamination, and generates
// the two operational case studies (Fig. 6 Redis rebalancing, Fig. 7
// advertising incident).
//
// All randomness flows from explicit seeds so every table and figure is
// reproducible bit-for-bit.
package workload

import (
	"math"
	"math/rand"
)

// MinutesPerDay is the number of 1-minute bins in a simulated day.
const MinutesPerDay = 1440

// Gen produces one sample of a synthetic KPI per bin. Implementations
// must be deterministic functions of their construction seed and bin.
type Gen interface {
	// At returns the KPI value at the given bin index.
	At(bin int) float64
	// Noise returns the nominal noise scale, used to size injected
	// effects in SNR units.
	Noise() float64
}

// Seasonal is a diurnal KPI (page views, clicks): a base level plus a
// smooth daily cycle with a secondary harmonic, and Gaussian noise.
type Seasonal struct {
	Level     float64 // mean level
	Amplitude float64 // daily swing (peak-to-center)
	Phase     float64 // phase offset in radians
	NoiseSD   float64
	rng       *rand.Rand
	cache     noiseCache
}

// NewSeasonal builds a seasonal generator with reproducible noise.
func NewSeasonal(level, amplitude, noiseSD float64, seed int64) *Seasonal {
	return &Seasonal{Level: level, Amplitude: amplitude, NoiseSD: noiseSD,
		Phase: float64(seed%7) * 0.3, rng: rand.New(rand.NewSource(seed))}
}

// At returns the seasonal value at bin.
func (g *Seasonal) At(bin int) float64 {
	day := 2 * math.Pi * float64(bin%MinutesPerDay) / MinutesPerDay
	v := g.Level +
		g.Amplitude*math.Sin(day+g.Phase) +
		0.25*g.Amplitude*math.Sin(2*day+1.1*g.Phase)
	return v + g.cache.sample(bin, g.rng)*g.NoiseSD
}

// Noise returns the noise scale.
func (g *Seasonal) Noise() float64 { return g.NoiseSD }

// Stationary is a flat KPI (memory utilization): a level plus small
// Gaussian noise.
type Stationary struct {
	Level   float64
	NoiseSD float64
	rng     *rand.Rand
	cache   noiseCache
}

// NewStationary builds a stationary generator with reproducible noise.
func NewStationary(level, noiseSD float64, seed int64) *Stationary {
	return &Stationary{Level: level, NoiseSD: noiseSD, rng: rand.New(rand.NewSource(seed))}
}

// At returns the stationary value at bin.
func (g *Stationary) At(bin int) float64 {
	return g.Level + g.cache.sample(bin, g.rng)*g.NoiseSD
}

// Noise returns the noise scale.
func (g *Stationary) Noise() float64 { return g.NoiseSD }

// Variable is a bursty KPI (CPU context switches): a positive level
// with heavy multiplicative noise and occasional short bursts, the KPI
// class that defeats spike-sensitive detectors (§4.2.1).
type Variable struct {
	Level   float64
	Spread  float64 // multiplicative noise strength, e.g. 0.3
	rng     *rand.Rand
	cache   noiseCache
	bursts  map[int]float64
	burstSz float64
}

// NewVariable builds a variable generator: each bin is
// Level·(1+Spread·|N|) with a burst of several× the level roughly every
// 2 hours.
func NewVariable(level, spread float64, seed int64) *Variable {
	rng := rand.New(rand.NewSource(seed))
	g := &Variable{Level: level, Spread: spread, rng: rng, bursts: make(map[int]float64), burstSz: 2 + rng.Float64()*2}
	return g
}

// At returns the variable value at bin.
func (g *Variable) At(bin int) float64 {
	n := g.cache.sample(bin, g.rng)
	v := g.Level * (1 + g.Spread*n)
	// Deterministic sparse bursts: hash the bin.
	if burstHash(bin)%113 == 0 {
		v *= g.burstSz
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Noise returns the effective noise scale (per-bin standard deviation
// of the fluctuating part).
func (g *Variable) Noise() float64 { return g.Level * g.Spread }

// burstHash is a cheap deterministic integer hash.
func burstHash(bin int) uint32 {
	x := uint32(bin) * 2654435761
	x ^= x >> 16
	return x
}

// noiseCache memoizes per-bin Gaussian draws so that At is a pure
// function of bin even when bins are queried out of order or repeatedly
// (generators are shared between the agent path and direct rendering).
type noiseCache struct {
	samples []float64
}

// sample returns the cached Gaussian draw for bin, extending the cache
// deterministically (draws are consumed in bin order) as needed.
func (c *noiseCache) sample(bin int, rng *rand.Rand) float64 {
	if bin < 0 {
		return 0
	}
	for len(c.samples) <= bin {
		c.samples = append(c.samples, rng.NormFloat64())
	}
	return c.samples[bin]
}

// Trending overlays a deterministic linear drift on a base generator
// from a start bin — the slow, non-software trend that tricks
// change-point detectors into flagging a "shift" that is really the
// window sliding along a slope. Unlike Effect ramps it never plateaus.
type Trending struct {
	Base Gen
	// PerBin is the drift per bin in raw KPI units.
	PerBin float64
	// FromBin is the bin at which the drift starts.
	FromBin int
}

// NewTrending wraps base with a linear drift of perBin raw units per
// bin starting at fromBin.
func NewTrending(base Gen, perBin float64, fromBin int) *Trending {
	return &Trending{Base: base, PerBin: perBin, FromBin: fromBin}
}

// At returns the drifting value at bin.
func (g *Trending) At(bin int) float64 {
	v := g.Base.At(bin)
	if bin > g.FromBin {
		v += g.PerBin * float64(bin-g.FromBin)
	}
	return v
}

// Noise returns the base noise scale.
func (g *Trending) Noise() float64 { return g.Base.Noise() }

// LongRange is a long-range-dependent KPI: a level plus a sum of AR(1)
// processes at well-separated timescales (φ = 0.9, 0.99, 0.999), the
// standard cheap approximation of fractional Gaussian noise. Its slowly
// wandering local mean defeats detectors that assume short-memory
// stationarity — windows look locally shifted without any real change.
type LongRange struct {
	Level float64
	// Scale is the stationary standard deviation of the fluctuating
	// part (split evenly across the component processes).
	Scale  float64
	phis   []float64
	innovs []float64
	chains [][]float64
	rng    *rand.Rand
}

// NewLongRange builds a long-range-dependent generator with the given
// mean level and fluctuation scale, reproducible from seed.
func NewLongRange(level, scale float64, seed int64) *LongRange {
	phis := []float64{0.9, 0.99, 0.999}
	innovs := make([]float64, len(phis))
	per := scale / math.Sqrt(float64(len(phis)))
	for i, phi := range phis {
		innovs[i] = per * math.Sqrt(1-phi*phi)
	}
	return &LongRange{Level: level, Scale: scale, phis: phis, innovs: innovs,
		chains: make([][]float64, len(phis)), rng: rand.New(rand.NewSource(seed))}
}

// At returns the long-range-dependent value at bin. Like noiseCache,
// chain values are materialized in bin order and memoized so At is a
// pure function of bin even under out-of-order or shared access.
func (g *LongRange) At(bin int) float64 {
	if bin < 0 {
		return g.Level
	}
	for len(g.chains[0]) <= bin {
		t := len(g.chains[0])
		for k := range g.phis {
			prev := 0.0
			if t > 0 {
				prev = g.chains[k][t-1]
			}
			g.chains[k] = append(g.chains[k], g.phis[k]*prev+g.innovs[k]*g.rng.NormFloat64())
		}
	}
	v := g.Level
	for k := range g.chains {
		v += g.chains[k][bin]
	}
	return v
}

// Noise returns the fluctuation scale.
func (g *LongRange) Noise() float64 { return g.Scale }

// Overlay sums a zero-mean companion generator onto a base — the shape
// trap overlays use so the companion's values are shared bit-for-bit by
// every series it is attached to.
type Overlay struct {
	Base, Add Gen
}

// At returns the combined value at bin.
func (o *Overlay) At(bin int) float64 { return o.Base.At(bin) + o.Add.At(bin) }

// Noise returns the base noise scale.
func (o *Overlay) Noise() float64 { return o.Base.Noise() }

// Effect perturbs a base generator from a start bin: the level shifts
// and ramp up/downs of Fig. 2.
type Effect struct {
	// StartBin is the onset bin.
	StartBin int
	// Magnitude is the eventual level change (signed), in raw KPI
	// units.
	Magnitude float64
	// RampBins is 0 for an instantaneous level shift, otherwise the
	// number of bins over which the change develops linearly.
	RampBins int
}

// At returns the effect's contribution at bin.
func (e Effect) At(bin int) float64 {
	if bin < e.StartBin {
		return 0
	}
	if e.RampBins <= 0 || bin >= e.StartBin+e.RampBins {
		return e.Magnitude
	}
	return e.Magnitude * float64(bin-e.StartBin) / float64(e.RampBins)
}

// WithEffects overlays additive effects on a base generator.
type WithEffects struct {
	Base    Gen
	Effects []Effect
}

// At returns the perturbed value at bin.
func (w *WithEffects) At(bin int) float64 {
	v := w.Base.At(bin)
	for _, e := range w.Effects {
		v += e.At(bin)
	}
	return v
}

// Noise returns the base noise scale.
func (w *WithEffects) Noise() float64 { return w.Base.Noise() }

// Render materializes n bins of a generator into a slice.
func Render(g Gen, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.At(i)
	}
	return out
}
