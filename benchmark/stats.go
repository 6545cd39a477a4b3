package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty input. xs is
// not modified. It is the arithmetic of internal/stats.Quantile, kept
// here on purpose: the instrument must not change when the program it
// measures does.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first, second and third quartile of xs exactly
// as Python's statistics.quantiles(xs, n=4) does (the default
// "exclusive" method), so the spread report reproduces the acceptance
// arithmetic. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// round is one short slice of a timed region (roundWidth, stretched to
// the end of the operation in flight): the operations finished in it,
// the CPU the process burnt during it and the latency samples stamped
// in it. The end-to-end metrics are taken over the quiet rounds of a
// run (see quietRounds), and a traced run records spans in every other
// round.
type round struct {
	start, end time.Time
	cpu        time.Duration // process user+sys spent inside the round
	ops        int
	lat        []float64            // milliseconds
	aux        map[string][]float64 // named side samples (milliseconds)
	traced     bool                 // spans were recorded during this round
	// busy and busyCPU, when a workload sets them, are the wall-clock
	// and CPU time of the timed parts of its operations only; the
	// round's own span also holds the untimed work between them (copying
	// a crash image, say).
	busy, busyCPU time.Duration
}

// seconds is the wall-clock time the round's operations took.
func (r *round) seconds() float64 {
	if r.busy > 0 {
		return r.busy.Seconds()
	}
	return r.end.Sub(r.start).Seconds()
}

// cpuTime is the CPU time the round's operations took.
func (r *round) cpuTime() time.Duration {
	if r.busy > 0 {
		return r.busyCPU
	}
	return r.cpu
}

// roundClock cuts a timed region into rounds of roundWidth as the
// harness reports finished operations to it, and reads the yardstick
// between rounds. In a traced run it switches span recording on in
// every other round, so traced and untraced latencies come from the
// same process seconds.
type roundClock struct {
	deadline time.Time
	tr       *tracer
	trace    bool
	yard     *yardstick
	readings []float64 // one yardstick reading per round boundary
	// quiesce, when a workload sets it, is called before a round closes:
	// a workload that keeps work in flight completes it there (and
	// counts it in the closing round), so the yardstick is read while
	// the program is idle.
	quiesce func()
	cur     *round
	cpu0    time.Duration
	done    []*round
}

// newRoundClock reads the yardstick and starts the first round; the
// region ends total later.
func newRoundClock(e *env, total time.Duration) *roundClock {
	rc := &roundClock{tr: e.tr, trace: e.opt.trace, yard: e.yard}
	rc.deadline = time.Now().Add(total)
	rc.open()
	return rc
}

// open reads the yardstick, then starts a round.
func (rc *roundClock) open() {
	rc.readings = append(rc.readings, rc.yard.read())
	traced := rc.trace && len(rc.done)%2 == 1
	rc.tr.enabled = traced
	rc.cpu0 = processCPU()
	rc.cur = &round{start: time.Now(), aux: map[string][]float64{}, traced: traced}
}

// expired reports whether the timed region is over.
func (rc *roundClock) expired() bool { return !time.Now().Before(rc.deadline) }

// op records one finished operation in the current round and closes the
// round when its width has elapsed.
func (rc *roundClock) op() {
	rc.cur.ops++
	if time.Since(rc.cur.start) < roundWidth {
		return
	}
	if rc.quiesce != nil {
		rc.quiesce()
	}
	rc.close()
	rc.open()
}

func (rc *roundClock) close() {
	rc.cur.end = time.Now()
	rc.cur.cpu = processCPU() - rc.cpu0
	rc.done = append(rc.done, rc.cur)
}

// finish closes the last round, however short, reads the yardstick a
// last time, stops span recording and returns every round with the
// region's host-speed factor.
func (rc *roundClock) finish() ([]*round, float64) {
	if rc.cur != nil && rc.cur.ops > 0 {
		rc.close()
	}
	rc.cur = nil
	rc.tr.enabled = false
	rc.readings = append(rc.readings, rc.yard.read())
	return rc.done, hostFactor(rc.readings)
}

// quietRounds returns the quietShare of rs with the highest throughput,
// fastest first (at least one round). The sandbox's noise is one-sided:
// a neighbour on the shared host only ever slows a round down, in
// bursts that last from a fraction of a second to some tens of seconds
// (README, "Spread and bounds"), so the fast rounds of a run are the
// ones that measured the program and the slow ones measured the host
// as well. A stub round that closed before roundWidth/2 had passed is
// left out: its rate is a ratio of two small numbers.
func quietRounds(rs []*round) []*round {
	var full []*round
	for _, r := range rs {
		if r.ops > 0 && r.end.Sub(r.start) >= roundWidth/2 {
			full = append(full, r)
		}
	}
	if len(full) == 0 {
		full = rs
	}
	sorted := append([]*round(nil), full...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].rate() > sorted[j].rate() })
	n := int(math.Ceil(quietShare * float64(len(sorted))))
	if n < 1 {
		n = 1
	}
	return sorted[:n]
}

// rate is the round's operations per second.
func (r *round) rate() float64 {
	if s := r.seconds(); s > 0 {
		return float64(r.ops) / s
	}
	return 0
}

// medianOfRounds applies f to every round and returns the median of the
// finite results, with the number of rounds that contributed.
func medianOfRounds(rs []*round, f func(*round) float64) (float64, int) {
	var vals []float64
	for _, r := range rs {
		if v := f(r); !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	return median(vals), len(vals)
}

// pooled concatenates one sample series across rounds.
func pooled(rs []*round, pick func(*round) []float64) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, pick(r)...)
	}
	return out
}

func latOf(r *round) []float64 { return r.lat }

func auxOf(name string) func(*round) []float64 {
	return func(r *round) []float64 { return r.aux[name] }
}
