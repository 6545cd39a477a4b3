package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with FUNNELSERVE_RUN_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FUNNELSERVE_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runServe runs the command and returns its combined output and exit
// code.
func runServe(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FUNNELSERVE_RUN_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return out.String(), 0
	case errors.As(err, &exit):
		return out.String(), exit.ExitCode()
	}
	t.Fatalf("funnelserve %v: %v", args, err)
	return "", 0
}

// TestHelpListsFlags: assessment always streams on one background
// scorer, so neither the flag that used to switch streaming on nor the
// knobs that sized the scoring pool and its queue are listed.
func TestHelpListsFlags(t *testing.T) {
	out, code := runServe(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "-history") {
		t.Errorf("-h does not list -history:\n%s", out)
	}
	for _, gone := range []string{"stream", "stream-workers", "stream-queue"} {
		if regexp.MustCompile(`(?m)^\s*-` + gone + `(\s|$)`).MatchString(out) {
			t.Errorf("-h still lists -%s:\n%s", gone, out)
		}
	}
}

// TestFsckWithoutDataIsUsageError: -fsck needs a directory to check.
func TestFsckWithoutDataIsUsageError(t *testing.T) {
	out, code := runServe(t, "-fsck")
	if code != 2 || !strings.Contains(out, "-fsck requires -data") {
		t.Fatalf("-fsck without -data: exit %d\n%s", code, out)
	}
}
