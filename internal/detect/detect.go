// Package detect turns pointwise change scores into KPI change
// detections: it drives any scorer (the SST family or the baselines)
// over a sliding window, applies FUNNEL's 7-minute persistence rule to
// separate level shifts and ramps from one-off events (§4.1), locates
// the change onset, and classifies the change as a level shift or a
// ramp up/down (§2.3, Fig. 2).
package detect

import (
	"fmt"
	"math"

	"repro/internal/sst"
	"repro/internal/stats"
)

// DefaultPersistence is the paper's persistence threshold: a change
// must keep its score above threshold for at least 7 consecutive
// 1-minute bins before it is declared (§4.1).
const DefaultPersistence = 7

// Kind classifies a detected change per Fig. 2.
type Kind int

const (
	// Unknown means the classifier could not decide.
	Unknown Kind = iota
	// LevelShiftUp is a sudden sustained increase.
	LevelShiftUp
	// LevelShiftDown is a sudden sustained decrease.
	LevelShiftDown
	// RampUp is a gradual sustained increase.
	RampUp
	// RampDown is a gradual sustained decrease.
	RampDown
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case LevelShiftUp:
		return "level-shift-up"
	case LevelShiftDown:
		return "level-shift-down"
	case RampUp:
		return "ramp-up"
	case RampDown:
		return "ramp-down"
	default:
		return "unknown"
	}
}

// Detection is one declared KPI change.
type Detection struct {
	// Start is the bin index where the persistent score run began —
	// the detector's estimate of the change onset.
	Start int
	// DeclaredAt is the bin index at which the persistence rule was
	// satisfied; Start + Persistence − 1 at the earliest.
	DeclaredAt int
	// AvailableAt is the wall-clock bin at which the declaration could
	// actually be made: scoring bin DeclaredAt requires the series
	// through DeclaredAt + FutureSpan − 1, so a future-looking scorer
	// (the SST family) pays its future window here while the
	// purely-historical baselines do not. The detection delay of the
	// paper's Fig. 5 is AvailableAt − (true change start).
	AvailableAt int
	// End is the last bin of the persistent run (inclusive).
	End int
	// Peak is the maximum score inside the run.
	Peak float64
	// Kind is the change classification.
	Kind Kind
}

// Gate drives a scorer over a series and applies the persistence
// rule.
type Gate struct {
	// Scorer produces the pointwise change scores.
	Scorer sst.Scorer
	// Threshold is the score level above which a bin counts toward a
	// run. See Calibrate for a data-driven choice.
	Threshold float64
	// Persistence is the minimum number of above-threshold bins in a
	// run; 0 means DefaultPersistence.
	Persistence int
	// MaxGap is the number of consecutive sub-threshold bins tolerated
	// inside a run before it is closed. Change scores wobble while the
	// sliding window crosses a change, so a small tolerance (default 2)
	// keeps one change from fragmenting into several short runs that
	// the persistence rule would all discard. Negative means 0.
	MaxGap int
	// OnRun, when set, is called once per closed score run with
	// whether the persistence rule declared it (true) or discarded it
	// as a one-off event (false). Telemetry hooks on it to count
	// gating decisions without touching the scan loop.
	OnRun func(declared bool)
}

// New returns a Gate for the scorer with the given threshold, the
// paper's 7-bin persistence, and the default gap tolerance.
func New(scorer sst.Scorer, threshold float64) *Gate {
	return &Gate{Scorer: scorer, Threshold: threshold, Persistence: DefaultPersistence, MaxGap: 2}
}

// RunRule returns the rule fromScores declares runs by: a run is
// declared at its minRun-th above-threshold bin (Persistence), and two
// consecutive above-threshold bins of one run are at most link bins
// apart (MaxGap + 1); a NaN score ends a run at once. A sweep told this
// rule (sst.SlidingScorer's MinRun and RunLink) may leave scores no
// declared run can read at an upper bound.
func (d *Gate) RunRule() (minRun, link int) {
	minRun = d.Persistence
	if minRun <= 0 {
		minRun = DefaultPersistence
	}
	return minRun, max(d.MaxGap, 0) + 1
}

// Detect scans the whole series and returns every declared change, in
// onset order. Runs shorter than the persistence requirement — the
// one-off events of §4.1 — are discarded.
func (d *Gate) Detect(x []float64) []Detection {
	scores := sst.ScoreSeries(d.Scorer, x)
	return d.DetectScored(x, scores)
}

// DetectScored applies only the persistence-rule gating to a
// precomputed score slice aligned with x. Callers that already hold
// scores (telemetry separating the scoring stage from the gating
// stage, threshold sweeps re-gating one scoring pass) avoid re-running
// the scorer.
func (d *Gate) DetectScored(x, scores []float64) []Detection {
	return d.fromScores(x, scores)
}

// fromScores applies the persistence rule to a precomputed score
// slice aligned with x. A run accumulates above-threshold bins and
// tolerates up to MaxGap consecutive sub-threshold bins; it is declared
// once it holds Persistence above-threshold bins, at the bin of the
// Persistence-th hit.
func (d *Gate) fromScores(x, scores []float64) []Detection {
	per, link := d.RunRule()
	future := 1
	if d.Scorer != nil {
		future = d.Scorer.Config().FutureSpan()
	}
	var out []Detection
	run := -1      // start of the current run
	lastHit := -1  // last above-threshold bin of the run
	hits := 0      // above-threshold bins in the run
	declared := -1 // bin of the per-th hit, -1 until reached
	peak := 0.0

	flush := func() {
		if run >= 0 {
			if d.OnRun != nil {
				d.OnRun(hits >= per)
			}
			if hits >= per {
				det := Detection{
					Start:       run,
					DeclaredAt:  declared,
					AvailableAt: declared + future - 1,
					End:         lastHit,
					Peak:        peak,
				}
				det.Kind = Classify(x, det.Start, det.End)
				out = append(out, det)
			}
		}
		run, lastHit, hits, declared, peak = -1, -1, 0, -1, 0
	}
	for i, v := range scores {
		above := !math.IsNaN(v) && v >= d.Threshold
		if above {
			if run < 0 {
				run = i
			}
			hits++
			lastHit = i
			if hits == per {
				declared = i
			}
			if v > peak {
				peak = v
			}
			continue
		}
		// NaN always terminates a run (the scorer has no window there);
		// a finite low score is tolerated up to MaxGap bins.
		if run >= 0 && (math.IsNaN(v) || i-lastHit >= link) {
			flush()
		}
	}
	flush()
	return out
}

// MaskScores returns a copy of scores with NaN written at every
// position whose scoring window overlaps a gap bin. A scorer looking
// past bins [t−past+1, t+future−1] around position t cannot produce a
// trustworthy score when any of those bins was interpolated rather
// than measured; since fromScores terminates runs at NaN scores, the
// mask guarantees no detection is declared out of invented data. gap
// is the per-bin missing-measurement bitmap aligned with scores.
func MaskScores(scores []float64, gap []bool, past, future int) []float64 {
	if past < 1 {
		past = 1
	}
	if future < 1 {
		future = 1
	}
	n := len(scores)
	out := make([]float64, n)
	copy(out, scores)
	// prefix[i] = number of gap bins in gap[:i].
	prefix := make([]int, len(gap)+1)
	for i, g := range gap {
		prefix[i+1] = prefix[i]
		if g {
			prefix[i+1]++
		}
	}
	for t := 0; t < n; t++ {
		lo := t - past + 1
		if lo < 0 {
			lo = 0
		}
		hi := t + future // exclusive bound of [t, t+future−1]
		if hi > len(gap) {
			hi = len(gap)
		}
		if lo < hi && prefix[hi]-prefix[lo] > 0 {
			out[t] = math.NaN()
		}
	}
	return out
}

// First returns the earliest detection in x, if any.
func (d *Gate) First(x []float64) (Detection, bool) {
	dets := d.Detect(x)
	if len(dets) == 0 {
		return Detection{}, false
	}
	return dets[0], true
}

// Classify labels the change spanning bins [start, end] of x as a level
// shift or ramp, with direction. It compares the levels before the
// onset and after the run, and decides "ramp" when the transition
// inside the run accounts for a substantial, consistent slope rather
// than an immediate jump.
func Classify(x []float64, start, end int) Kind {
	if start < 0 || end >= len(x) || start > end {
		return Unknown
	}
	ctx := end - start + 1
	if ctx < 8 {
		ctx = 8
	}
	lo := start - ctx
	if lo < 0 {
		lo = 0
	}
	hi := end + 1 + ctx
	if hi > len(x) {
		hi = len(x)
	}
	before := x[lo:start]
	after := x[end+1 : hi]
	if len(before) == 0 || len(after) == 0 {
		return Unknown
	}
	medBefore := stats.Median(before)
	medAfter := stats.Median(after)
	delta := medAfter - medBefore
	_, madB := stats.MedianMAD(before)
	noise := madB * stats.MADScale
	if math.Abs(delta) <= 2*noise && noise > 0 {
		// The level did not clearly move; judge by the in-run slope.
		slope := stats.Slope(x[start : end+1])
		span := slope * float64(end-start)
		if math.Abs(span) <= 2*noise {
			return Unknown
		}
		if span > 0 {
			return RampUp
		}
		return RampDown
	}

	// The level moved. Decide sudden vs gradual by how long the series
	// dwells in the transition band between the two levels: a level
	// shift crosses in a couple of bins, a ramp lingers (Fig. 2).
	bandLo := medBefore + 0.2*delta
	bandHi := medBefore + 0.8*delta
	if bandLo > bandHi {
		bandLo, bandHi = bandHi, bandLo
	}
	inBand := 0
	for _, v := range x[start : end+1] {
		if v >= bandLo && v <= bandHi {
			inBand++
		}
	}
	gradual := inBand >= 4
	switch {
	case gradual && delta > 0:
		return RampUp
	case gradual && delta < 0:
		return RampDown
	case delta > 0:
		return LevelShiftUp
	default:
		return LevelShiftDown
	}
}

// Calibrate picks a detection threshold from change-free reference
// series: it pools all finite scores the scorer produces on them and
// returns the q-quantile (e.g. 0.999) scaled by margin. This mirrors
// how the paper fixes per-algorithm parameters "set to the best for the
// corresponding algorithm's accuracy" (§4.1) without leaking the
// evaluation's positive labels.
func Calibrate(scorer sst.Scorer, clean [][]float64, q, margin float64) (float64, error) {
	var pool []float64
	for _, x := range clean {
		for _, v := range sst.ScoreSeries(scorer, x) {
			if !math.IsNaN(v) {
				pool = append(pool, v)
			}
		}
	}
	if len(pool) == 0 {
		return 0, fmt.Errorf("detect: no scores to calibrate on")
	}
	if q <= 0 || q > 1 {
		q = 0.999
	}
	if margin <= 0 {
		margin = 1
	}
	return stats.Quantile(pool, q) * margin, nil
}
