// The -run-bench mode: a self-contained latency/allocation benchmark
// suite whose results are committed as BENCH_<n>.json at the repo root.
// Unlike `go test -bench`, it needs no test binary, pins its iteration
// counts (so CI runs are comparable), and records the pre-optimization
// baseline next to each fresh measurement. The -bench-check mode replays
// the suite and fails when an entry regresses against the committed
// baseline — on allocations for guarded entries (exact, the zero-alloc
// tripwire) and on ns/op for every entry (with generous headroom for CI
// host noise).
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/changelog"
	"repro/internal/funnel"
	"repro/internal/sst"
	"repro/internal/workload"
)

// benchStats is one measurement triple.
type benchStats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchEntry is one benchmark's record in the JSON file. Before is the
// measurement committed in the previous BENCH_<n>.json — the state of
// the code immediately prior to the optimization round this file
// records (same harness, same host class); it is absent for entries
// that are new in this round.
type benchEntry struct {
	Name       string      `json:"name"`
	Iters      int         `json:"iters"`
	AllocGuard bool        `json:"alloc_guard"`
	Before     *benchStats `json:"before,omitempty"`
	After      benchStats  `json:"after"`
}

// benchFile is the committed BENCH_<n>.json document.
type benchFile struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus,omitempty"`
	// CalibrationNs is the ns/op of a fixed floating-point kernel
	// measured on the host that produced this file. Checks re-measure
	// the same kernel and scale the ns/op gates by the ratio, so a
	// baseline recorded on a fast machine does not fail spuriously on a
	// slower CI host. Zero in older files means "no scaling".
	CalibrationNs float64      `json:"calibration_ns,omitempty"`
	Benchmarks    []benchEntry `json:"benchmarks"`
}

// calSink defeats dead-code elimination of the calibration kernel.
var calSink float64

// calibrateNs times a dependency-free sequential multiply-add sweep —
// the same shape as the scorers' inner loops — to fingerprint the
// host's single-core floating-point speed.
func calibrateNs() float64 {
	x := benchWindowSeries(2048)
	st := measure(2000, func() {
		var acc, m float64 = 0, 1
		for _, v := range x {
			m = m*0.999 + v*1e-6
			acc += v * m
		}
		calSink += acc
	})
	return st.NsPerOp
}

// measure times iters calls of f after a warm-up pass, reading the
// allocator counters around the loop. The warm-up fills sync.Pool
// workspaces and lazily-grown buffers so the loop sees steady state —
// the same discipline the testing.AllocsPerRun guards use.
func measure(iters int, f func()) benchStats {
	warm := iters / 10
	if warm < 2 {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		f()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchStats{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}
}

// benchWindowSeries mirrors the bench_test.go series: structure, noise
// and a level shift.
func benchWindowSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n)
	for i := range x {
		x[i] = 100 + 10*math.Sin(2*math.Pi*float64(i)/240) + rng.NormFloat64()
		if i >= n/2 {
			x[i] += 8
		}
	}
	return x
}

// baselineBefore holds the previous round's committed measurements
// (BENCH_1.json "after": go1.24, Intel Xeon 2.10GHz container) keyed by
// entry name. Entries new in this round have no before.
var baselineBefore = map[string]benchStats{
	"per_window/funnel-ika":      {NsPerOp: 15170, AllocsPerOp: 0, BytesPerOp: 0},
	"per_window/robust-sst":      {NsPerOp: 31961, AllocsPerOp: 53, BytesPerOp: 12032},
	"per_window/classic-sst":     {NsPerOp: 29851, AllocsPerOp: 42, BytesPerOp: 10336},
	"per_window/cusum":           {NsPerOp: 574881, AllocsPerOp: 4, BytesPerOp: 6576},
	"per_window/mrls":            {NsPerOp: 564333, AllocsPerOp: 3090, BytesPerOp: 320934},
	"backfill/score-series-auto": {NsPerOp: 24229369, AllocsPerOp: 4, BytesPerOp: 16535},
	"fleet/assess-change":        {NsPerOp: 23753901, AllocsPerOp: 173, BytesPerOp: 699316},
	"fleet/assess-all-4":         {NsPerOp: 93586404, AllocsPerOp: 675, BytesPerOp: 2691408},
}

// runBenchSuite executes the suite. When checkPath is non-empty the
// results are compared against that baseline file and an error is
// returned on an allocation regression; otherwise the results are
// written to outPath.
func runBenchSuite(iters int, outPath, checkPath string) error {
	if iters < 10 {
		iters = 10
	}
	fmt.Printf("benchmark suite: %d iterations per scorer entry (%s %s/%s)\n",
		iters, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	cal := calibrateNs()
	fmt.Printf("host calibration kernel: %.0f ns/op\n", cal)

	var entries []benchEntry
	record := func(name string, n int, guard bool, st benchStats) {
		e := benchEntry{Name: name, Iters: n, AllocGuard: guard, After: st}
		if b, ok := baselineBefore[name]; ok {
			bb := b
			e.Before = &bb
		}
		entries = append(entries, e)
		fmt.Printf("  %-30s %12.0f ns/op %10.1f allocs/op %12.0f B/op\n",
			name, st.NsPerOp, st.AllocsPerOp, st.BytesPerOp)
	}
	add := func(name string, n int, guard bool, f func()) {
		record(name, n, guard, measure(n, f))
	}

	// Per-window scoring: the Table-2 quantity, one entry per method.
	x := benchWindowSeries(400)
	scorers := []struct {
		name   string
		scorer sst.Scorer
	}{
		{"per_window/funnel-ika", sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true})},
		{"per_window/robust-sst", sst.NewRobust(sst.Config{Normalize: true, RobustFilter: true})},
		{"per_window/classic-sst", sst.NewClassic(sst.Config{Normalize: true})},
		{"per_window/cusum", baselines.NewCUSUM()},
		{"per_window/mrls", baselines.NewMRLS()},
	}
	for _, c := range scorers {
		cfg := c.scorer.Config()
		t0 := cfg.PastSpan()
		span := len(x) - cfg.FutureSpan() - t0
		i := 0
		s := c.scorer
		add(c.name, iters, true, func() {
			s.ScoreAt(x, t0+i%span)
			i++
		})
	}

	// The incremental sliding sweep, amortized per window: each op is a
	// full ScoreRangeInto over the series, divided by the number of
	// window positions so the figure is directly comparable with the
	// per_window entries.
	{
		sl := sst.NewSliding(sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true}))
		cfg := sl.Config()
		lo, hi := cfg.PastSpan(), len(x)-cfg.FutureSpan()+1
		out := make([]float64, len(x))
		sweepIters := iters / 10
		if sweepIters < 3 {
			sweepIters = 3
		}
		st := measure(sweepIters, func() {
			sl.ScoreRangeInto(out, x, lo, hi)
		})
		span := float64(hi - lo)
		st.NsPerOp /= span
		st.AllocsPerOp /= span
		st.BytesPerOp /= span
		record("per_window/sliding-ika", sweepIters, true, st)
	}

	// History backfill: the parallel batch-scoring path.
	long := benchWindowSeries(2048)
	ika := sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true})
	backIters := iters / 50
	if backIters < 3 {
		backIters = 3
	}
	add("backfill/score-series-auto", backIters, false, func() {
		sst.ScoreSeriesParallel(ika, long, 0)
	})

	// Fleet assessment: the full per-change pipeline and the AssessAll
	// fan-out the deployment runs tens of thousands of times per day.
	p := workload.DefaultParams()
	p.Changes = 4
	p.HistoryDays = 2
	sc, err := workload.Generate(p)
	if err != nil {
		return fmt.Errorf("generate workload: %w", err)
	}
	// Serial entry pinned to one worker so it stays comparable with the
	// BENCH_1 measurement; its wins are the algorithmic ones (sliding
	// scorer, memoized control averages). The -parallel entry is the
	// production default: GOMAXPROCS workers fanned over the impact set.
	assessor, err := funnel.NewAssessor(sc.Source, sc.Topo, funnel.Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     2,
		AssessWorkers:   1,
	})
	if err != nil {
		return fmt.Errorf("new assessor: %w", err)
	}
	parAssessor, err := funnel.NewAssessor(sc.Source, sc.Topo, funnel.Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     2,
	})
	if err != nil {
		return fmt.Errorf("new assessor: %w", err)
	}
	changes := make([]changelog.Change, 0, len(sc.Cases))
	for _, cs := range sc.Cases {
		changes = append(changes, cs.Change)
	}
	fleetIters := iters / 20
	if fleetIters < 3 {
		fleetIters = 3
	}
	ci := 0
	add("fleet/assess-change", fleetIters, false, func() {
		if _, err := assessor.Assess(changes[ci%len(changes)]); err != nil {
			panic(err)
		}
		ci++
	})
	ci = 0
	add("fleet/assess-change-parallel", fleetIters, false, func() {
		if _, err := parAssessor.Assess(changes[ci%len(changes)]); err != nil {
			panic(err)
		}
		ci++
	})
	allIters := iters / 50
	if allIters < 2 {
		allIters = 2
	}
	add("fleet/assess-all-4", allIters, false, func() {
		for _, r := range assessor.AssessAll(changes, 4) {
			if r.Err != nil {
				panic(r.Err)
			}
		}
	})

	if checkPath != "" {
		return checkAgainstBaseline(checkPath, cal, entries)
	}
	return writeBenchFile(outPath, "funnel-bench/v1", cal, entries)
}

// writeBenchFile commits a measured entry set as a baseline document.
func writeBenchFile(outPath, schema string, cal float64, entries []benchEntry) error {
	doc := benchFile{
		Schema:        schema,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		CalibrationNs: cal,
		Benchmarks:    entries,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// nsHeadroom is the latency-gate multiplier: an entry fails when its
// measured ns/op exceeds this factor times the committed baseline. CI
// hosts are noisy — shared cores, frequency scaling, cold caches — so
// the headroom is generous; the gate exists to catch order-of-magnitude
// regressions (an accidentally reintroduced O(ω²) rebuild, a dropped
// memoization), not single-digit drift.
const nsHeadroom = 1.6

// checkAgainstBaseline fails on a regression against the committed
// baseline file. Two gates:
//
//   - Allocations (guarded entries only): no more than
//     ceil(1.2 × baseline) + 0.5 allocs per op. The half-alloc absolute
//     headroom absorbs stray background-runtime allocations landing
//     inside the measurement loop; any real hot-path regression costs at
//     least one full alloc per op, so a zero baseline still catches it.
//   - Latency (every entry present in the baseline): ns/op may not
//     exceed nsHeadroom × baseline, scaled by the calibration-kernel
//     ratio when the baseline recorded one — a host that runs the fixed
//     kernel 2× slower than the baseline host is allowed 2× the ns/op.
//     The scale never drops below 1: faster hosts keep the full gate.
//
// calNow is this run's calibration-kernel measurement (see calibrateNs).
func checkAgainstBaseline(path string, calNow float64, measured []benchEntry) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var doc benchFile
	if err := json.Unmarshal(buf, &doc); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	scale := 1.0
	if doc.CalibrationNs > 0 && calNow > doc.CalibrationNs {
		scale = calNow / doc.CalibrationNs
	}
	if scale != 1.0 {
		fmt.Printf("  host is %.2fx slower than the baseline host — ns gates scaled accordingly\n", scale)
	}
	base := make(map[string]benchEntry, len(doc.Benchmarks))
	for _, e := range doc.Benchmarks {
		base[e.Name] = e
	}
	failed := 0
	for _, m := range measured {
		b, ok := base[m.Name]
		if !ok {
			fmt.Printf("  %-30s SKIP (not in baseline)\n", m.Name)
			continue
		}
		bad := false
		if m.AllocGuard {
			allowed := math.Ceil(b.After.AllocsPerOp*1.2) + 0.5
			if m.After.AllocsPerOp > allowed {
				bad = true
				fmt.Printf("  %-30s FAIL %.1f allocs/op > allowed %.0f (baseline %.1f)\n",
					m.Name, m.After.AllocsPerOp, allowed, b.After.AllocsPerOp)
			}
		}
		if allowedNs := b.After.NsPerOp * nsHeadroom * scale; b.After.NsPerOp > 0 && m.After.NsPerOp > allowedNs {
			bad = true
			fmt.Printf("  %-30s FAIL %.0f ns/op > allowed %.0f (baseline %.0f)\n",
				m.Name, m.After.NsPerOp, allowedNs, b.After.NsPerOp)
		}
		if bad {
			failed++
			continue
		}
		fmt.Printf("  %-30s ok   %.1f allocs/op (baseline %.1f), %.0f ns/op (baseline %.0f)\n",
			m.Name, m.After.AllocsPerOp, b.After.AllocsPerOp, m.After.NsPerOp, b.After.NsPerOp)
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed vs %s", failed, path)
	}
	fmt.Println("allocation and latency checks passed")
	return nil
}
