package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runLine is the one-line JSON result a run prints last.
type runLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// lastJSONLine parses the last non-empty line of a run's output.
func lastJSONLine(out []byte) (runLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if b := bytes.TrimSpace(sc.Bytes()); len(b) > 0 {
			last = append(last[:0], b...)
		}
	}
	var rl runLine
	if err := json.Unmarshal(last, &rl); err != nil {
		return rl, fmt.Errorf("last output line is not a result: %w", err)
	}
	return rl, nil
}

// spreadReport runs every selected workload n times, each run in a child
// process of its own (GC state does not carry over) and with a seed of
// its own, and prints per workload and end-to-end metric the
// median, the quartiles, the interquartile distance as a share of the
// median — the acceptance arithmetic — and (max−min)/median.
func spreadReport(w io.Writer, selected []string, opt options, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	code := 0
	// Seed by seed, the workloads taking turns: each workload's runs are
	// spread over the whole session, so a slow quarter of an hour on the
	// host shows in every workload's spread and in no workload's median.
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, name := range selected {
			args := []string{
				"-workload", name,
				"-seed", strconv.FormatInt(opt.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
				"-trace", "0",
				"-dir", opt.dir,
			}
			if opt.quick {
				args = append(args, "-quick")
			}
			// When the parent is told to stop it passes SIGTERM on, so
			// the child runs its own clean-up (listeners, stores, scratch
			// directory) and exits 130; a child that has not gone after
			// WaitDelay is killed. Output waits for it either way.
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 10 * time.Second
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if ctx.Err() != nil {
				return 130
			}
			rl, perr := lastJSONLine(out)
			if err != nil || perr != nil || !rl.Correct {
				fmt.Fprintf(w, "%s seed %d: run failed (%v %v, correct=%v, failed ops %d)\n", name, opt.seed+int64(i), err, perr, rl.Correct, rl.Failed)
				code = 1
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range rl.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	for _, name := range selected {
		fmt.Fprintf(w, "\nspread of %s over %d runs (seeds %d..%d, %.3g s timed each)\n", name, n, opt.seed, opt.seed+int64(n)-1, opt.seconds)
		fmt.Fprintf(w, "  %-26s %12s %12s %12s %10s %14s\n", "metric", "median", "q1", "q3", "iqr/med", "(max-min)/med")
		for _, m := range endToEndNames {
			v := values[name][m]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			fmt.Fprintf(w, "  %-26s %12.5g %12.5g %12.5g %10.4f %14.4f\n", m, q2, q1, q3, (q3-q1)/q2, (s[len(s)-1]-s[0])/q2)
		}
	}
	return code
}
