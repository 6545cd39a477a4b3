package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestMain lets the test binary stand in for the command: re-executed
// with FUNNEL_RUN_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FUNNEL_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runFunnel runs the command, failing the test unless it exits 0, and
// returns its stdout and stderr.
func runFunnel(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	stdout, stderr, code := runFunnelExit(t, args...)
	if code != 0 {
		t.Fatalf("funnel %v: exit %d\n%s", args, code, stderr)
	}
	return stdout, stderr
}

// runFunnelExit runs the command and returns its stdout, stderr and
// exit code.
func runFunnelExit(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FUNNEL_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("funnel %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.Bytes(), errb.Bytes(), code
}

// stripTraces re-renders a -json report list without its trace objects.
func stripTraces(t *testing.T, raw []byte) []byte {
	t.Helper()
	var reports []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &reports); err != nil {
		t.Fatalf("stdout is not a report list: %v", err)
	}
	for _, r := range reports {
		delete(r, "trace")
	}
	out, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTimingsFlagLeavesReportsAlone: -timings adds traces to the JSON
// and stage metrics on stderr, and changes nothing else — the flag used
// to pick a different scorer.
func TestTimingsFlagLeavesReportsAlone(t *testing.T) {
	args := []string{"-changes", "16", "-history", "3", "-seed", "7", "-json"}
	plain, plainErr := runFunnel(t, args...)
	timed, timedErr := runFunnel(t, append(args, "-timings")...)

	if len(plainErr) != 0 {
		t.Errorf("stderr without -timings: %s", plainErr)
	}
	if !strings.Contains(string(timedErr), `"stage.sst_window"`) {
		t.Errorf("-timings stderr carries no sst_window stage:\n%.400s", timedErr)
	}
	if !bytes.Contains(timed, []byte(`"trace"`)) || bytes.Contains(plain, []byte(`"trace"`)) {
		t.Error("traces must appear with -timings and only then")
	}
	if a, b := stripTraces(t, plain), stripTraces(t, timed); !bytes.Equal(a, b) {
		t.Errorf("-timings changed the reports (%d vs %d bytes once traces are stripped)", len(a), len(b))
	}
}

// TestTraceModeHonoursTrends: -trends reaches the assessor in trace
// mode too. The generated -seed 7 scenario prints pre-trend warnings;
// assessed from its exported trace, it must print them as well.
func TestTraceModeHonoursTrends(t *testing.T) {
	p := workload.DefaultParams()
	p.Changes, p.HistoryDays, p.Seed = 16, 3, 7
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, workload.ExportTrace(sc)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, _ := runFunnel(t, "-trace", path, "-history", "3", "-trends", "-v")
	if n := bytes.Count(out, []byte("[pre-trend warning]")); n == 0 {
		t.Errorf("-trace -trends printed no [pre-trend warning]:\n%.600s", out)
	}
}

// TestStageFlags pins -detector and -causality: registry detectors and
// the BSTS stage run and report, and an unknown name exits 1.
func TestStageFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-detector", "edivisive", "-causality", "bsts"},
		{"-detector", "cusum"},
	} {
		out, _ := runFunnel(t, append([]string{"-changes", "2", "-history", "2", "-summary"}, args...)...)
		if !bytes.Contains(out, []byte("total: 2 change(s)")) {
			t.Errorf("funnel %v printed no reports", args)
		}
	}
	_, stderr, code := runFunnelExit(t, "-changes", "2", "-detector", "nosuch")
	if code != 1 || !strings.Contains(string(stderr), "registered: [cusum edivisive mrls sst sst-classic sst-robust wow]") {
		t.Errorf("-detector nosuch: exit %d, stderr %q; want exit 1 listing the registry", code, stderr)
	}
	if _, stderr, code := runFunnelExit(t, "-changes", "2", "-causality", "nosuch"); code != 1 {
		t.Errorf("-causality nosuch: exit %d, stderr %q; want exit 1", code, stderr)
	}
}
