package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/funnel"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	return d
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	d := readDeclaration(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		check("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program calls it %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(d.EndToEnd) != len(endToEndNames) {
		t.Fatalf("%d end-to-end metrics declared, the program prints %d", len(d.EndToEnd), len(endToEndNames))
	}
	setup := false
	for i, m := range d.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Name != endToEndNames[i] {
			t.Errorf("end-to-end metric %d is %q, the program prints %q", i, m.Name, endToEndNames[i])
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v must be in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range d.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("setup_s (unit s, better lower) is not declared")
	}

	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program prints %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		check("per-layer metric", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %q [%s], the program prints %q [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("%s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}

	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if len(d.Command) != 2 || d.Command[0] != "bash" || d.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", d.Command)
	}
}

// testYard is the one yardstick the tests share (its tables take a
// moment to build).
var testYard = sync.OnceValue(newYardstick)

// runQuick runs one workload at -quick size and checks what every run
// must satisfy.
func runQuick(t *testing.T, name string, traced bool) (*result, string) {
	t.Helper()
	opt := options{seed: 1, seconds: 0.5, trace: traced, quick: true, dir: t.TempDir(), traceOut: t.TempDir()}
	if traced {
		// Half of a traced run is the workload, and spans are recorded
		// in its every other round: make that at least two rounds.
		opt.seconds = 4.4 * roundWidth.Seconds()
	}
	res := runWorkload(name, opt, opt.dir, testYard())
	var out bytes.Buffer
	printResult(&out, res, traced)
	if res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%s: attempted %d, failed %d: %v", name, res.attempted, res.failed, res.failures)
	}
	if left, _ := os.ReadDir(opt.dir); len(left) != 0 {
		t.Errorf("%s left %d entries in its scratch directory", name, len(left))
	}
	if traced {
		// A traced run writes its spans to a file of the workload's own.
		raw, err := os.ReadFile(filepath.Join(opt.traceOut, "spans-"+name+".json"))
		var spans []span
		if err == nil {
			err = json.Unmarshal(raw, &spans)
		}
		if m, _ := res.get("harness.spans"); err != nil || len(spans) == 0 || float64(len(spans)) != m.Value {
			t.Errorf("%s: span file holds %d spans (%v), harness.spans = %v", name, len(spans), err, m.Value)
		}
	}
	return res, out.String()
}

func TestQuickSmoke(t *testing.T) {
	d := readDeclaration(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, out := runQuick(t, w.name, traced)
			declared := d.EndToEnd
			if traced {
				declared = d.PerLayer
			}
			rl, err := lastJSONLine([]byte(out))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rl.Correct || rl.Failed != 0 || rl.Attempted != res.attempted {
				t.Errorf("%s: result line says correct=%v attempted=%d failed=%d", w.name, rl.Correct, rl.Attempted, rl.Failed)
			}
			if len(rl.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: result line has %d metrics, %d are declared", w.name, traced, len(rl.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := rl.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s is missing from the result line", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: %s = %v %s, declared unit %s", w.name, m.Name, got.Value, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
				}
				// Every metric is printed exactly once in the readable part.
				if n := strings.Count(out, "\n  "+m.Name+" "); n != 1 {
					t.Errorf("%s traced=%v: %s is printed %d times", w.name, traced, m.Name, n)
				}
			}
			if traced {
				if m, _ := res.get("process.goroutines_leaked"); m.Value != 0 {
					t.Errorf("%s leaked %v goroutines", w.name, m.Value)
				}
				checkBypass(t, w.name, res)
			}
		}
	}
}

// checkBypass holds the traced runs to the two bypass predictions of the
// design: a flood advances no score state, and the batch path writes no
// log and runs no streamer.
func checkBypass(t *testing.T, name string, res *result) {
	switch name {
	case "ingest-flood":
		if m, ok := res.get("funnel.stream.advances_per_meas"); !ok || m.N == 0 || m.Value >= 0.001 {
			t.Errorf("ingest-flood: funnel.stream.advances_per_meas = %+v, want < 0.001", m)
		}
	case "batch-backlog":
		for _, n := range []string{"monitor.wal.appends", "monitor.wal.compactions", "funnel.stream.advances"} {
			if m, _ := res.get(n); m.Value != 0 {
				t.Errorf("batch-backlog: %s = %v, want 0", n, m.Value)
			}
		}
		if m, _ := res.get("funnel.verdict_accuracy"); m.Value < backlogAccuracyFloor {
			t.Errorf("batch-backlog: funnel.verdict_accuracy = %v", m.Value)
		}
	}
}

// After the command returns — on success and on a forced correctness
// failure — no goroutine it started is still running, no listener it
// opened is still bound, and its scratch directory is gone.
func TestCommandLeavesNothingBehind(t *testing.T) {
	// The first signal.Notify of a process starts the runtime's signal
	// loop, which stays for good; start it before taking the baseline.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGUSR2)
	signal.Stop(warm)
	for _, forced := range []bool{false, true} {
		dir := t.TempDir()
		before := runtime.NumGoroutine()
		args := []string{"-quick", "-seconds", "0.4", "-workload", "rollout-stream,batch-backlog", "-dir", dir}
		if forced {
			args = append(args, "-force-failure")
		}
		var out bytes.Buffer
		code := realMain(args, &out)
		if want := map[bool]int{false: 0, true: 1}[forced]; code != want {
			t.Fatalf("forced=%v: exit code %d, want %d\n%s", forced, code, want, out.String())
		}
		// A failed run still prints every metric and says it is incorrect.
		if n := strings.Count(out.String(), "\n  latency_p50_ms "); n != 2 {
			t.Errorf("forced=%v: latency_p50_ms printed %d times, want once per workload", forced, n)
		}
		if forced != strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("forced=%v: result lines disagree:\n%s", forced, out.String())
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("forced=%v: %d entries left under %s", forced, len(left), dir)
		}
		if n := leakedGoroutines(before, 2*time.Second); n != 0 {
			t.Errorf("forced=%v: %d goroutines outlived the command", forced, n)
		}
	}
}

func TestRigReleasesItsListeners(t *testing.T) {
	dir := t.TempDir()
	e := &env{opt: options{dir: dir}, runDir: dir, tr: newTracer(), res: &result{}}
	r, err := startRig(e, funnel.Config{ServerMetrics: rolloutMetrics, HistoryDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{r.d.IngestAddr().String(), r.d.AdminAddr().String(), r.d.DebugAddr().String()}
	for _, a := range addrs {
		c, err := net.DialTimeout("tcp", a, time.Second)
		if err != nil {
			t.Fatalf("listener %s is not up: %v", a, err)
		}
		c.Close()
	}
	r.close()
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			t.Errorf("listener %s is still bound after close", a)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d entries left under %s", len(left), dir)
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var out bytes.Buffer
	if code := realMain([]string{"-workload", "nosuch"}, &out); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q", out.String())
	}
}
