package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// waitTimeout bounds every single wait the harness makes on the
// program (a bin becoming visible, a verdict arriving, an admin reply):
// a hang becomes one counted failed operation instead of a stuck run.
const waitTimeout = 30 * time.Second

// pollPause is how long the harness sleeps between two polls of a
// public read while it waits for the program. It keeps the waiting
// harness off the two cores the program needs; at ~60 µs effective it
// adds about one percent to a 6 ms verdict.
const pollPause = 20 * time.Microsecond

// metric is one printed value with its unit and the number of samples
// (rounds, operations or ladder iterations) behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result collects what one workload run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	metrics   []metric
	info      []string // free-form lines printed above the metrics
}

// op counts n attempted operations.
func (r *result) op(n int) { r.attempted += n }

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 12 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// add appends a metric.
func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

// get returns a metric by name.
func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// options are the settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	dir     string // parent of the run's scratch directory
	// traceOut, when set, receives the traced run's spans as JSON.
	traceOut string
	// forceFailure counts one failed operation per workload, so tests
	// can watch the failure path.
	forceFailure bool
}

// env is what a workload gets: its options, a scratch directory that
// the harness removes afterwards, the tracer, the yardstick, and the
// result to fill.
type env struct {
	opt    options
	runDir string
	tr     *tracer
	yard   *yardstick
	res    *result
	// factor is the host-speed factor of the timed region, which the
	// workload's run stores when its round clock finishes.
	factor float64
}

// subdir creates a fresh directory under the run's scratch directory.
func (e *env) subdir(prefix string) (string, error) {
	return os.MkdirTemp(e.runDir, prefix)
}

// scale picks the full or the -quick size of a workload dimension.
func (e *env) scale(full, quick int) int {
	if e.opt.quick {
		return quick
	}
	return full
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibrationSink keeps the calibration kernel's result alive.
var calibrationSink uint64

// calibrate times a fixed arithmetic kernel (an xorshift chain, no
// memory traffic) and returns nanoseconds per step. Run before and
// after a workload it makes a noisy host recognisable in the output.
func calibrate() float64 {
	const steps = 4 << 20
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := float64(time.Since(t0).Nanoseconds()) / steps
		calibrationSink += x
		if d < best {
			best = d
		}
	}
	return best
}

// leakedGoroutines waits up to grace for the goroutine count to fall
// back to baseline and returns how many are still above it.
func leakedGoroutines(baseline int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitUntil polls cond until it holds or waitTimeout passes.
func waitUntil(cond func() bool) bool {
	if cond() {
		return true
	}
	deadline := time.Now().Add(waitTimeout)
	for {
		time.Sleep(pollPause)
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// onTmpfs reports whether dir lives on a tmpfs mount.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	const tmpfsMagic = 0x01021994
	return int64(st.Type) == tmpfsMagic
}

// cleanups is the stack of things to release when the process is told
// to stop mid-run: every listener, store and scratch directory the
// harness opens is pushed here, and popped again when the normal path
// has released it.
type cleanups struct {
	mu  sync.Mutex
	fns []*cleanup
}

type cleanup struct {
	once sync.Once
	fn   func()
}

// push registers fn and returns the function that runs it (once) and
// forgets it.
func (c *cleanups) push(fn func()) (release func()) {
	cl := &cleanup{fn: fn}
	c.mu.Lock()
	c.fns = append(c.fns, cl)
	c.mu.Unlock()
	return func() {
		cl.once.Do(cl.fn)
		c.mu.Lock()
		for i, x := range c.fns {
			if x == cl {
				c.fns = append(c.fns[:i], c.fns[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
	}
}

// runAll releases everything still registered, newest first, giving up
// after limit (a store wedged on a dead disk must not keep a killed
// benchmark alive).
func (c *cleanups) runAll(limit time.Duration) {
	c.mu.Lock()
	fns := append([]*cleanup(nil), c.fns...)
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i].once.Do(fns[i].fn)
		}
	}()
	select {
	case <-done:
	case <-time.After(limit):
	}
}

// registry is the process-wide cleanup stack the signal handler and the
// watchdog unwind.
var registry cleanups

// removeAll deletes dir, retrying briefly: a background compaction may
// still be creating a file while the tree is being walked.
func removeAll(dir string) {
	for i := 0; i < 5; i++ {
		if err := os.RemoveAll(dir); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
