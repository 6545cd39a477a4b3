// Command benchmark is the repository's one benchmark: it runs the
// deployed FUNNEL path — ingest socket, WAL, streaming assessment,
// telemetry — and the batch and recovery paths next to it, inside one
// OS process, on inputs generated from a seed, and prints end-to-end
// metrics (untraced) or per-layer metrics (traced). BENCHMARK.json at
// the repository root declares the workloads and metrics; README.md in
// this directory explains them.
//
// The harness only calls public functions of repro/internal/...; it
// adds no tracing inside the program. Every workload is a closed loop
// with one client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// totalBudget is the watchdog: however many workloads an invocation
// runs, it dumps goroutines, cleans up and exits 3 after this long.
const totalBudget = 6 * time.Minute

const (
	// roundWidth is the length of one round of a timed region: long
	// enough to hold some tens of operations, short enough to fit inside
	// the quiet spells of the shared host.
	roundWidth = 250 * time.Millisecond
	// quietShare is the share of a run's rounds, fastest first, the
	// end-to-end time metrics are taken over.
	quietShare = 0.25
	// setupRepeats is how many times a run sets its workload up;
	// setup_s is the median, the last set-up is the one the timed
	// region runs on.
	setupRepeats = 3
	// setupYardReads is how many yardstick readings are taken before,
	// between and after the set-ups.
	setupYardReads = 6
)

// bench is one benchmark workload: setup lays down histories and warms
// caches (its time is setup_s); run is the timed region; verify checks
// the program's outputs after the clock stops; report turns what was
// measured into metrics.
type bench interface {
	setup(e *env) error
	run(e *env, total time.Duration)
	verify(e *env)
	report(e *env, setupSeconds float64)
	teardown()
}

// workloads lists the workloads in the order the default run takes
// them; later issues refer to them by these names.
var workloads = []struct {
	name string
	make func() bench
}{
	{"rollout-stream", func() bench { return &rolloutStream{} }},
	{"ingest-flood", func() bench { return &ingestFlood{} }},
	{"batch-backlog", func() bench { return &batchBacklog{} }},
	{"restart-recover", func() bench { return &restartRecover{} }},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

// realMain is main with its exit code returned and its output injectable,
// so tests can drive the whole command.
func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		names    = fs.String("workload", strings.Join(workloadNames(), ","), "comma-separated workloads to run")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 10, "length of each timed region in seconds")
		trace    = fs.Int("trace", 0, "1 records spans and prints the per-layer metrics, 0 prints the end-to-end metrics")
		traceOut = fs.String("trace-out", "", "directory that receives a traced run's spans-<workload>.json (default: -dir)")
		quick    = fs.Bool("quick", false, "same shapes at about a twentieth of the size, for tests")
		repeat   = fs.Int("repeat", 0, "run every workload this many times in child processes, one seed each, and print the spread")
		dir      = fs.String("dir", filepath.Join(".bench_build", "tmp"), "parent of the scratch directory (created if missing)")
		forced   = fs.Bool("force-failure", false, "count one failed operation per workload (exercises the failure path in tests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []string
	for _, n := range strings.Split(*names, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		known := false
		for _, w := range workloads {
			known = known || w.name == n
		}
		if !known {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", n, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = append(selected, n)
	}
	if len(selected) == 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need at least one workload and a positive -seconds")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, dir: *dir, traceOut: *traceOut, forceFailure: *forced}
	if opt.traceOut == "" {
		opt.traceOut = opt.dir
	}

	if *repeat > 0 {
		return spreadReport(stdout, selected, opt, *repeat)
	}

	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(opt.dir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	dropRunDir := registry.push(func() { removeAll(runDir) })

	// A killed benchmark must leave nothing behind: release listeners
	// and stores, delete the scratch directory, exit 130.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sigs:
			registry.runAll(3 * time.Second)
			os.Exit(130)
		case <-finished:
		}
	}()
	watchdog := time.AfterFunc(totalBudget, func() {
		fmt.Fprintf(os.Stderr, "benchmark: watchdog fired after %v; goroutines:\n", totalBudget)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		registry.runAll(3 * time.Second)
		os.Exit(3)
	})

	fmt.Fprintf(stdout, "env.go = %s\nenv.nproc = %d\nenv.tmpfs = %v\nenv.dir = %s\n",
		runtime.Version(), runtime.NumCPU(), onTmpfs(runDir), runDir)
	fmt.Fprintf(stdout, "load: closed loop, 1 client (one publisher, one admin connection), seed %d, %.3g s timed, trace %v, quick %v\n",
		opt.seed, opt.seconds, opt.trace, opt.quick)

	code := 0
	yard := newYardstick()
	for _, name := range selected {
		res := runWorkload(name, opt, runDir, yard)
		printResult(stdout, res, opt.trace)
		if res.failed > 0 {
			code = 1
		}
	}
	watchdog.Stop()
	signal.Stop(sigs)
	dropRunDir()
	return code
}

// runWorkload sets a workload up, runs the timed region, verifies,
// reports and tears down, and checks that no goroutine outlives it.
func runWorkload(name string, opt options, runDir string, yard *yardstick) *result {
	res := &result{workload: name}
	e := &env{opt: opt, runDir: runDir, tr: newTracer(), yard: yard, res: res, factor: 1}
	var mk func() bench
	for _, w := range workloads {
		if w.name == name {
			mk = w.make
		}
	}
	baseline := runtime.NumGoroutine()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	cal0 := calibrate()

	// Set up setupRepeats times, tearing the earlier ones down again:
	// setup_s is the median, the timed region runs on the last. The
	// yardstick is read before, between and after, and the set-up times
	// are divided by the factor those readings give.
	var w bench
	var setups, readings []float64
	var err error
	readYard := func() {
		for i := 0; i < setupYardReads; i++ {
			readings = append(readings, e.yard.read())
		}
	}
	readYard()
	for i := 0; i < setupRepeats && err == nil; i++ {
		if w != nil {
			// Hand the discarded set-up's memory back before the
			// next one allocates, or peak RSS depends on when the
			// collector happened to run.
			w.teardown()
			w = nil
			debug.FreeOSMemory()
		}
		w = mk()
		t0 := time.Now()
		err = w.setup(e)
		setups = append(setups, time.Since(t0).Seconds())
		readYard()
	}
	setupFactor := hostFactor(readings)
	setupSeconds := median(setups) / setupFactor
	res.info = append(res.info, fmt.Sprintf("set-up took %.4g s, host-speed factor %.4f", setups, setupFactor))
	if err != nil {
		res.op(1)
		res.fail("set-up: %v", err)
	} else {
		runtime.GC()
		// A traced run spends half its time in the workload (spans on
		// in every other round) and half on the layer ladder.
		total := time.Duration(opt.seconds * float64(time.Second))
		if opt.trace {
			total /= 2
		}
		w.run(e, total)
		w.verify(e)
		if opt.forceFailure {
			res.op(1)
			res.fail("failure forced by -force-failure")
		}
		w.report(e, setupSeconds)
	}
	w.teardown()
	cal1 := calibrate()

	leaked := leakedGoroutines(baseline, 2*time.Second)
	res.op(1)
	if leaked > 0 {
		res.fail("%d goroutines outlived the workload", leaked)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	}
	if opt.trace {
		var gc1 runtime.MemStats
		runtime.ReadMemStats(&gc1)
		res.layer("host.calibration_ns", math.Max(cal0, cal1), 2)
		res.layer("process.gc_cycles", float64(gc1.NumGC-gc0.NumGC), 1)
		res.layer("process.gc_pause_total_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, int(gc1.NumGC-gc0.NumGC))
		res.layer("process.goroutines_leaked", float64(leaked), 1)
		res.layer("process.peak_rss_mb", peakRSSMB(), 1)
		res.layer("harness.spans", float64(len(e.tr.spans)), 1)
		// One file per workload, next to the run directory, which is
		// removed when the run ends.
		spansPath := filepath.Join(opt.traceOut, "spans-"+name+".json")
		if err := writeSpans(spansPath, e.tr.spans); err != nil {
			res.op(1)
			res.fail("write spans: %v", err)
		} else {
			res.info = append(res.info, "spans written to "+spansPath)
		}
		res.fillLayers()
	}
	res.info = append(res.info, fmt.Sprintf("host.calibration_ns before %.4f after %.4f, peak RSS %.1f MiB", cal0, cal1, peakRSSMB()))
	return res
}

// endToEnd fills the end-to-end metrics every workload reports, from
// the set-up time (already relative to the yardstick), the timed rounds
// and the resident size the workload sampled at its checkpoint. The
// three time metrics are taken over the run's quiet rounds and divided
// by the region's host-speed factor; the same figures over every round,
// as the clock read them, are kept as per-layer diagnostics
// (harness.whole_run.*).
func endToEnd(e *env, setupSeconds float64, rounds []*round, residentBytesPerMeas float64) {
	res := e.res
	res.add("setup_s", setupSeconds, "s", setupRepeats)
	quiet := quietRounds(rounds)
	lat := pooled(quiet, latOf)
	rate, _ := medianOfRounds(quiet, (*round).rate)
	ops, _, cpuMs := totals(quiet)
	res.add("latency_p50_ms", percentile(lat, 0.5)/e.factor, "ms", len(lat))
	res.add("ops_per_s", rate*e.factor, "1/s", ops)
	res.add("cpu_ms_per_op", cpuMs/float64(ops)/e.factor, "ms", ops)
	res.info = append(res.info, fmt.Sprintf("time metrics over the %d quietest of %d rounds of %v, divided by the host-speed factor %.4f (as the clock read them: p50 %.4g ms, %.4g ops/s, %.4g CPU ms per op)",
		len(quiet), len(rounds), roundWidth, e.factor, percentile(lat, 0.5), rate, cpuMs/float64(ops)))
	// The per-second series shows what the quiet rounds leave out: a
	// compaction or a noisy neighbour is a dip.
	series := "ops/s per second:"
	for i := 0; i < len(rounds); {
		var ops int
		var secs float64
		for ; i < len(rounds) && secs < 1; i++ {
			ops += rounds[i].ops
			secs += rounds[i].seconds()
		}
		series += fmt.Sprintf(" %.4g", float64(ops)/secs)
	}
	res.info = append(res.info, series)
	res.add("resident_bytes_per_meas", residentBytesPerMeas, "B", 1)
}

// totals sums operations, wall-clock seconds and CPU milliseconds over
// rounds.
func totals(rounds []*round) (ops int, secs, cpuMs float64) {
	for _, r := range rounds {
		ops += r.ops
		secs += r.seconds()
		cpuMs += float64(r.cpuTime()) / 1e6
	}
	return ops, secs, cpuMs
}

// jsonValue is one metric in the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric as name, value, unit and sample
// count, then the one-line JSON result the benchmark contract asks for:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printResult(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "\nworkload %s: attempted %d, failed %d\n", res.workload, res.attempted, res.failed)
	for _, line := range res.info {
		fmt.Fprintf(w, "  # %s\n", line)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	out := map[string]jsonValue{}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-44s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		if isEndToEnd(m.Name) != traced {
			v := m.Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out[m.Name] = jsonValue{Value: v, Unit: m.Unit}
		}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{res.failed == 0, attempted, res.failed, out})
	fmt.Fprintf(w, "%s\n", line)
}

// endToEndNames are the metrics of an untraced run; every other metric
// is a per-layer metric.
var endToEndNames = []string{
	"setup_s", "latency_p50_ms", "ops_per_s",
	"cpu_ms_per_op", "resident_bytes_per_meas",
}

func isEndToEnd(name string) bool {
	for _, n := range endToEndNames {
		if n == name {
			return true
		}
	}
	return false
}
