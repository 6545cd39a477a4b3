package sst_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/detect"
	"repro/internal/sst"
)

// runRule is one gate rule the sweep is told: the threshold (the sweep's
// Floor), the minimum run and the link distance (MaxGap + 1).
type runRule struct {
	floor       float64
	minRun, lnk int
}

func (r runRule) String() string {
	return fmt.Sprintf("floor=%v/run=%d/link=%d", r.floor, r.minRun, r.lnk)
}

// ruledScorer is the deployed sweep wrapper with r set as Floor and run rule.
func ruledScorer(cfg sst.Config, r runRule) *sst.SlidingScorer {
	sl := sst.NewSliding(sst.NewIKA(cfg))
	sl.Floor, sl.MinRun, sl.RunLink = r.floor, r.minRun, r.lnk
	return sl
}

// gateFor is the gate r describes.
func gateFor(sl sst.Scorer, r runRule) *detect.Gate {
	g := detect.New(sl, r.floor)
	g.Persistence, g.MaxGap = r.minRun, r.lnk-1
	return g
}

// clusters returns the candidate clusters of x under r, in order: the
// positions whose multiplier is not under the floor the sweep applies,
// split where consecutive candidates are more than r.lnk apart.
func clusters(cfg sst.Config, x []float64, r runRule) [][]int {
	floor := r.floor
	if !cfg.RobustFilter {
		floor = 0 // the sweep bounds nothing without the filter
	}
	rcfg := sst.NewIKA(cfg).Config()
	var out [][]int
	last := math.MinInt / 2
	for p, m := range sst.Multipliers(cfg, x) {
		if m < floor || p < rcfg.PastSpan() || p+rcfg.FutureSpan() > len(x) {
			continue // a NaN multiplier is a candidate
		}
		if p-last > r.lnk {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], p)
		last = p
	}
	return out
}

// clusterSizes returns, for every candidate position of x under r, the
// number of candidates in its cluster, and 0 elsewhere.
func clusterSizes(cfg sst.Config, x []float64, r runRule) []int {
	size := make([]int, len(x))
	for _, c := range clusters(cfg, x, r) {
		for _, p := range c {
			size[p] = len(c)
		}
	}
	return size
}

// ruleOn reports whether the sweep applies r at all.
func ruleOn(cfg sst.Config, r runRule) bool {
	return cfg.RobustFilter && r.floor > 0 && r.minRun > 1 && r.lnk >= 1
}

// runRuleCase holds what checkRunRule found, for the callers that
// require a case to have been exercised.
type runRuleCase struct {
	// ruled counts the windows the rule answered, inLong the candidates
	// of clusters that reached the minimum run (whose first members the
	// sweep held back and then solved).
	ruled, inLong int
}

// checkRunRule holds the run-ruled batch sweep of x to the Floor-0 sweep
// ref0 and the sweep at r.floor without the rule refF:
//   - the gate r describes declares the same detections over it as over
//     ref0, with and without a gap mask;
//   - a position in a cluster that reaches r.minRun, and every position
//     that is not a candidate, is bit-equal to refF — and so to ref0
//     wherever ref0 reaches the floor or is NaN;
//   - a candidate of a cluster that closes short reads its multiplier, an
//     upper bound of its score that a gate thresholding at r.floor passes
//     (or NaN);
//   - solved + bounded counts every position once, and ruled the short
//     clusters' candidates.
func checkRunRule(t *testing.T, name string, cfg sst.Config, x, ref0, refF []float64, r runRule, gaps []bool) runRuleCase {
	t.Helper()
	sl := ruledScorer(cfg, r)
	got, solved, bounded, ruled := sst.RunRuleSweep(sl, x)
	viaSweep, s2, b2 := sl.Sweep(x)
	bitEqual(t, name+" Sweep vs scoreRange", viaSweep, got)
	if s2 != solved || b2 != bounded {
		t.Fatalf("%s: Sweep counts %d solved %d bounded, scoreRange %d %d", name, s2, b2, solved, bounded)
	}
	rcfg := sl.Config()
	positions := max(len(x)-rcfg.PastSpan()-rcfg.FutureSpan()+1, 0)
	if solved+bounded != positions {
		t.Fatalf("%s: %d solved + %d bounded, want %d positions", name, solved, bounded, positions)
	}

	mult := sst.Multipliers(cfg, x)
	size := clusterSizes(cfg, x, r)
	on := ruleOn(cfg, r)
	var c runRuleCase
	short := 0
	for i := range x {
		g := got[i]
		switch {
		case !on || size[i] == 0 || size[i] >= r.minRun:
			if math.Float64bits(g) != math.Float64bits(refF[i]) {
				t.Fatalf("%s: score[%d] = %v, sweep without the rule %v (cluster of %d)", name, i, g, refF[i], size[i])
			}
			if w := ref0[i]; (math.IsNaN(w) || w >= r.floor) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: score[%d] = %v, Floor-0 sweep %v", name, i, g, w)
			}
		default:
			short++
			if math.Float64bits(g) != math.Float64bits(mult[i]) {
				t.Fatalf("%s: score[%d] = %v in a cluster of %d, want its multiplier %v", name, i, g, size[i], mult[i])
			}
			if w := ref0[i]; !math.IsNaN(g) && (g < r.floor || g < w) {
				t.Fatalf("%s: score[%d] = %v in a cluster of %d is not a bound of %v over the floor", name, i, g, size[i], w)
			}
		}
	}
	if on {
		if ruled != short {
			t.Fatalf("%s: %d positions answered by the run rule, %d candidates in short clusters", name, ruled, short)
		}
	} else if ruled != 0 {
		t.Fatalf("%s: rule off, yet %d positions answered by it", name, ruled)
	}
	c.ruled = ruled
	for i := range x {
		if on && size[i] >= r.minRun {
			c.inLong++ // the first minRun−1 of its cluster were held
		}
	}

	gate := gateFor(sl, r)
	if a, b := gate.DetectScored(x, got), gate.DetectScored(x, ref0); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: gate declares %+v over the ruled sweep, %+v over the Floor-0 sweep", name, a, b)
	}
	if gaps != nil {
		past, fut := rcfg.PastSpan()+1, rcfg.FutureSpan()
		a := gate.DetectScored(x, detect.MaskScores(got, gaps, past, fut))
		b := gate.DetectScored(x, detect.MaskScores(ref0, gaps, past, fut))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: gate declares %+v over the masked ruled sweep, %+v over the masked Floor-0 sweep", name, a, b)
		}
	}
	return c
}

// checkStream streams x through sl's StreamSweep in chunk-bin arrivals
// and holds it to the batch sweep of x bit for bit, with counters that
// never go backwards, never count a position twice, and equal the
// batch's after End.
func checkStream(t *testing.T, name string, sl *sst.SlidingScorer, x []float64, chunk int) {
	t.Helper()
	want, solved, bounded := sl.Sweep(x)
	rcfg := sl.Config()
	hi := len(x) - rcfg.FutureSpan() + 1
	sw := sl.NewStream()
	sw.Reset(0)
	got := nanSeries(len(x))
	ps, pb := 0, 0
	for n := min(chunk, len(x)); ; n = min(n+chunk, len(x)) {
		for sw.Pos() < hi && sw.Pos()+rcfg.FutureSpan() <= n {
			sw.NextInto(got, x[:n])
		}
		if sw.Pos() == hi {
			sw.End()
		}
		s, b := sw.Solved(), sw.Bounded()
		if s < ps || b < pb || s+b > max(sw.Pos()-rcfg.PastSpan(), 0) {
			t.Fatalf("%s: after %d bins %d solved %d bounded (was %d, %d) of %d positions stepped", name, n, s, b, ps, pb, sw.Pos()-rcfg.PastSpan())
		}
		ps, pb = s, b
		if n == len(x) {
			break
		}
	}
	sw.End() // idempotent
	bitEqual(t, name+" stream vs batch", got, want)
	if sw.Solved() != solved || sw.Bounded() != bounded {
		t.Fatalf("%s: stream %d solved %d bounded, batch %d %d", name, sw.Solved(), sw.Bounded(), solved, bounded)
	}
}

func bitEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func nanSeries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

func sweepAt(cfg sst.Config, floor float64, x []float64) []float64 {
	sl := sst.NewSliding(sst.NewIKA(cfg))
	sl.Floor = floor
	s, _, _ := sl.Sweep(x)
	return s
}

// firstHeld returns the second member of the first cluster of x under r
// that has one, or -1: the sweep of a prefix of x ending there ends with
// a cluster of two candidates.
func firstHeld(cfg sst.Config, x []float64, r runRule) int {
	for _, c := range clusters(cfg, x, r) {
		if len(c) >= 2 {
			return c[1]
		}
	}
	return -1
}

var (
	deployedCfg = sst.Config{Normalize: true, RobustFilter: true}
	ruleCfgs    = map[string]sst.Config{
		"deployed":        deployedCfg,
		"omega5":          {Omega: 5, Normalize: true, RobustFilter: true},
		"filter":          {RobustFilter: true},
		"future-smallest": {Normalize: true, RobustFilter: true, FutureSmallest: true},
		"normalize":       {Normalize: true}, // no filter: the rule never applies
	}
)

func sortedShapes() []string {
	var names []string
	for n := range sst.BoundShapes() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestRunRuleSweep: over every bound shape, the deployed and four other
// configurations (one without the filter, where the rule never applies), and a range of run rules (the deployed 7 and 6 among
// them), the run-ruled sweep keeps every score a declared run reads, and
// streaming it equals the batch sweep — also over a prefix that ends
// inside a cluster still short of the minimum run. The deployed rule
// must answer some windows by the rule and see some clusters reach the
// minimum run, whose first members it held back and then solved.
func TestRunRuleSweep(t *testing.T) {
	shapes := sst.BoundShapes()
	rules := []runRule{{1.6, 7, 6}, {0.5, 3, 2}, {6, 2, 1}, {1.6, 9, 7}, {1.6, 1, 1}, {math.Inf(1), 4, 3}}
	var deployed runRuleCase
	truncated := 0
	for _, shape := range sortedShapes() {
		x := shapes[shape]
		gaps := make([]bool, len(x))
		for i := 100; i < len(x); i += 37 {
			gaps[i] = true
		}
		for cname, cfg := range ruleCfgs {
			ref0 := sweepAt(cfg, 0, x)
			for _, r := range rules {
				if cname != "deployed" && r != rules[0] && r != rules[1] {
					continue
				}
				name := fmt.Sprintf("%s/%s/%v", shape, cname, r)
				refF := sweepAt(cfg, r.floor, x)
				c := checkRunRule(t, name, cfg, x, ref0, refF, r, gaps)
				if cname == "deployed" && r == rules[0] {
					deployed.ruled += c.ruled
					deployed.inLong += c.inLong
				}
				if cname != "deployed" {
					continue
				}
				sl := ruledScorer(cfg, r)
				for _, chunk := range []int{1, 17} {
					checkStream(t, fmt.Sprintf("%s/chunk=%d", name, chunk), sl, x, chunk)
				}
				if at := firstHeld(cfg, x, r); at >= 0 && ruleOn(cfg, r) && r.minRun > 2 {
					prefix := x[:at+sl.Config().FutureSpan()]
					checkStream(t, name+"/ends-held", sl, prefix, 3)
					checkRunRule(t, name+"/ends-held", cfg, prefix, sweepAt(cfg, 0, prefix), sweepAt(cfg, r.floor, prefix), r, nil)
					truncated++
				}
			}
		}
	}
	if deployed.ruled == 0 || deployed.inLong == 0 || truncated == 0 {
		t.Fatalf("deployed rule: %d windows answered by the rule, %d candidates in clusters that reached the run, %d prefixes ending in a held cluster; want all > 0",
			deployed.ruled, deployed.inLong, truncated)
	}
	t.Logf("deployed rule over the bound shapes: %d windows answered by the rule, %d candidates in clusters that reached the run; %d prefixes end in a held cluster",
		deployed.ruled, deployed.inLong, truncated)
}

// Next cannot hand back the positions a step revises, so a StreamSweep
// under the run rule refuses it.
func TestRunRuleNextPanics(t *testing.T) {
	sw := ruledScorer(deployedCfg, runRule{1.6, 7, 6}).NewStream()
	sw.Reset(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Next under a run rule did not panic")
		}
	}()
	sw.Next(sst.BoundShapes()["level-shift"])
}

// The run rule adds no allocation to the steady-state sweep.
func TestRunRuleSweepZeroAlloc(t *testing.T) {
	if sst.RaceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	x := sst.BoundShapes()["spikes"]
	sl := ruledScorer(deployedCfg, runRule{1.6, 7, 6})
	rcfg := sl.Config()
	lo, hi := rcfg.PastSpan(), len(x)-rcfg.FutureSpan()+1
	out := make([]float64, len(x))
	sl.ScoreRangeInto(out, x, lo, hi) // warm the pooled state
	if allocs := testing.AllocsPerRun(10, func() { sl.ScoreRangeInto(out, x, lo, hi) }); allocs != 0 {
		t.Errorf("allocs/sweep = %v, want 0", allocs)
	}
}

// FuzzRunRule drives checkRunRule and checkStream with an arbitrary
// series (or a bound shape), Floor, minimum run 1–9, link 1–7, gap mask,
// stream chunking and a prefix cut.
func FuzzRunRule(f *testing.F) {
	names := sortedShapes()
	for i := range names {
		f.Add([]byte(nil), uint8(i), 1.6, uint8(6), uint8(5), uint16(0), uint8(1))
		f.Add([]byte(nil), uint8(i)|0x40, 0.5, uint8(2), uint8(1), uint16(200), uint8(17))
	}
	levels := make([]byte, 0, 240)
	for i := 0; i < 240; i++ {
		b := byte(i*7) & 0x1f
		if i >= 120 {
			b |= 0x60
		}
		levels = append(levels, b)
	}
	f.Add(levels, uint8(0), 1.6, uint8(6), uint8(5), uint16(150), uint8(3))
	f.Add(levels, uint8(0x80), 3.0, uint8(8), uint8(6), uint16(0), uint8(5))
	spiky := append([]byte(nil), levels...)
	spiky[60], spiky[130], spiky[131] = 0xff, 0xfe, 0xfd
	f.Add(spiky, uint8(0xc0), 1.6, uint8(4), uint8(2), uint16(90), uint8(2))

	cfgs := []sst.Config{deployedCfg, ruleCfgs["omega5"], ruleCfgs["filter"], ruleCfgs["future-smallest"]}
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, floor float64, minRun, lnk uint8, cut uint16, chunk uint8) {
		cfg := cfgs[shape>>6]
		var x []float64
		if len(data) < 32 {
			x = sst.BoundShapes()[names[int(shape&0x3f)%len(names)]]
		} else {
			for _, b := range data[:min(len(data), 400)] {
				var v float64
				switch b {
				case 0xff:
					v = math.NaN()
				case 0xfe:
					v = math.Inf(1)
				case 0xfd:
					v = 1.3e150
				default:
					v = float64(b>>5)*6 + float64(b&0x1f)/8
				}
				x = append(x, v)
			}
		}
		if floor = math.Abs(floor); math.IsNaN(floor) {
			floor = 1.6
		}
		r := runRule{floor, 1 + int(minRun)%9, 1 + int(lnk)%7}
		var gaps []bool
		if cut%3 == 0 {
			gaps = make([]bool, len(x))
			for i := int(cut) % 41; i < len(x); i += 41 {
				gaps[i] = true
			}
		}
		name := fmt.Sprintf("%v/%d bins", r, len(x))
		checkRunRule(t, name, cfg, x, sweepAt(cfg, 0, x), sweepAt(cfg, floor, x), r, gaps)
		sl := ruledScorer(cfg, r)
		checkStream(t, name, sl, x, 1+int(chunk)%23)
		if m := int(cut) % (len(x) + 1); m > 0 && m < len(x) {
			checkStream(t, name+fmt.Sprintf("/prefix %d", m), sl, x[:m], 1+int(chunk)%5)
		}
	})
}
