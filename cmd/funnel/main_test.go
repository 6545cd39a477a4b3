package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// runFunnel runs the command and returns its stdout and stderr.
func runFunnel(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FUNNEL_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("funnel %v: %v\n%s", args, err, errb.Bytes())
	}
	return out.Bytes(), errb.Bytes()
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
