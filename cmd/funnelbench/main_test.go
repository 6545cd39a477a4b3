package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with FUNNELBENCH_RUN_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FUNNELBENCH_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runBench runs the command and returns its exit code, stdout and
// stderr.
func runBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FUNNELBENCH_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	// A non-zero exit is a result, not a failure to run.
	if err := cmd.Run(); cmd.ProcessState == nil {
		t.Fatalf("funnelbench %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// The artefact modes print their paper rows and exit 0.
func TestArtefactModes(t *testing.T) {
	for _, c := range []struct {
		flag string
		want []string
	}{
		{"-fig2", []string{"==== Fig. 2", "bin  ramp-up  level-shift", " 580 "}},
		{"-table2", []string{"==== Table 2", "run time/window", "FUNNEL", "CUSUM", "MRLS"}},
	} {
		code, out, errs := runBench(t, c.flag)
		if code != 0 {
			t.Errorf("%s exits %d: %s", c.flag, code, errs)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s output lacks %q:\n%s", c.flag, w, out)
			}
		}
	}
}

// Without a mode there is nothing to run, and the benchmark suites this
// command once carried are gone with their flags: both are usage errors.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-run-bench"},
		{"-run-ingest-bench"},
		{"-run-read-bench"},
		{"-run-stream-bench"},
		{"-bench-check", "x.json"},
	} {
		code, out, errs := runBench(t, args...)
		if code != 2 || out != "" || !strings.Contains(errs, "-table1") {
			t.Errorf("funnelbench %v: exit %d, stdout %q, want 2 and the usage on stderr:\n%s", args, code, out, errs)
		}
		if args != nil && !strings.Contains(errs, "flag provided but not defined: "+args[0]) {
			t.Errorf("funnelbench %v is not rejected as an unknown flag:\n%s", args, errs)
		}
	}
}

// -csv writes the file it says it wrote, and a directory it cannot make
// is an error, not a silent skip.
func TestCSVOutput(t *testing.T) {
	small := []string{"-fig5", "-changes", "1", "-history", "1", "-bootstraps", "2", "-csv"}
	dir := t.TempDir()

	good := filepath.Join(dir, "out")
	code, out, errs := runBench(t, append(small, good)...)
	if code != 0 {
		t.Fatalf("-csv %s exits %d: %s", good, code, errs)
	}
	path := filepath.Join(good, "fig5_ccdf.csv")
	if !strings.Contains(out, "wrote "+path) {
		t.Errorf("no \"wrote\" line for %s:\n%s", path, out)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "method,delay_minutes,ccdf\nFUNNEL,") {
		t.Errorf("%s starts %.60q", path, body)
	}

	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs = runBench(t, append(small, filepath.Join(file, "sub"))...)
	if code != 1 || strings.Contains(out, "wrote ") || !strings.Contains(errs, "not a directory") {
		t.Errorf("-csv under a regular file: exit %d, stderr %q", code, errs)
	}
}
