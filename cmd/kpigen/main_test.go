package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
)

// TestMain lets the test binary stand in for the command: re-executed
// with KPIGEN_RUN_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("KPIGEN_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runGen runs the command and returns its combined output and exit
// code.
func runGen(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "KPIGEN_RUN_MAIN=1")
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
	t.Fatalf("kpigen %v: %v", args, err)
	return "", 0
}

// TestLoadFillsStore: -load publishes every series × bin into an ingest
// endpoint and loses nothing.
func TestLoadFillsStore(t *testing.T) {
	epoch := time.Date(2015, 12, 1, 0, 10, 0, 0, time.UTC)
	store := monitor.NewStore(epoch, time.Minute)
	srv := monitor.NewIngestServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out, code := runGen(t, "-load", addr.String(), "-servers", "3", "-kpis", "2", "-bins", "5",
		"-epoch", epoch.Format(time.RFC3339))
	if code != 0 || !strings.Contains(out, "published 30 measurements") || !strings.Contains(out, " 0 dropped") {
		t.Fatalf("-load exited %d:\n%s", code, out)
	}
	// The publisher has hung up; its handler reads the last frames to
	// EOF.
	full := func() bool {
		for _, key := range store.Keys() {
			if s, _ := store.Series(key); s.Len() != 5 || s.HasGaps() {
				return false
			}
		}
		return store.Len() == 6
	}
	for deadline := time.Now().Add(5 * time.Second); !full(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d series after -load, want 6 × 5 bins", store.Len())
		}
	}
}

// TestHelpListsNoBatch: packed batch frames are the only wire form, so
// the knob that sized them is gone.
func TestHelpListsNoBatch(t *testing.T) {
	out, code := runGen(t, "-h")
	if code != 0 || !strings.Contains(out, "-load") {
		t.Fatalf("-h exited %d:\n%s", code, out)
	}
	if strings.Contains(out, "-batch") {
		t.Errorf("-h still lists -batch:\n%s", out)
	}
}

// TestBadEpochIsUsageError: a malformed -epoch exits 2 before dialing.
func TestBadEpochIsUsageError(t *testing.T) {
	out, code := runGen(t, "-load", "127.0.0.1:1", "-epoch", "yesterday")
	if code != 2 || !strings.Contains(out, "bad -epoch") {
		t.Fatalf("bad -epoch: exit %d\n%s", code, out)
	}
}
