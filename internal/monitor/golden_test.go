package monitor

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenDir holds the log generations and the snapshot one fixed program
// leaves (TestLogBytesGolden).
const goldenDir = "testdata/golden-v3"

// TestLogBytesGolden pins the version 3 log bytes, and the head and
// segment bytes, across builds. One fixed program — in-process batches
// series-major and time-major, one-measurement Appends, 0x05 frames with
// defines and references, late writes into sealed chunks, a gap, and a
// Compact between two generations — must leave every wal-<gen>.log, the
// head and the base segment byte for byte as committed under
// testdata/golden-v3. The
// store model's AppendBatch rerun holds the socket path to the
// in-process one within one build; this holds a build to the ones
// before it, so a change to both paths at once shows here. Rewrite the
// files with -update only for a deliberate format change.
func TestLogBytesGolden(t *testing.T) {
	dir := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = 8
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := []topo.KPIKey{
		{Scope: topo.ScopeServer, Entity: "web-01", Metric: "cpu.util"},
		{Scope: topo.ScopeServer, Entity: "web-01", Metric: "mem.util"},
		{Scope: topo.ScopeInstance, Entity: "kv-00", Metric: "ops"},
		{Scope: topo.ScopeService, Entity: "front", Metric: "pv.count"},
		{Scope: topo.ScopeServer, Entity: "web-02", Metric: "cpu.util"},
		{Scope: topo.ScopeServer, Entity: "web-03", Metric: "cpu.util"},
	}
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin)*time.Minute + 7*time.Second) }
	m := func(ki, bin int) Measurement {
		return Measurement{keys[ki], at(bin), float64(ki*1000+bin) + float64(bin%4)/4}
	}
	timeMajor := func(kis []int, lo, hi int) []Measurement {
		var ms []Measurement
		for bin := lo; bin < hi; bin++ {
			for _, ki := range kis {
				ms = append(ms, m(ki, bin))
			}
		}
		return ms
	}
	table, enc := newKeyTable(st, maxKeyCacheEntries), &keyIDs{}
	send := func(ms []Measurement) {
		for _, f := range idFrames(t, enc, ms) {
			if err := table.ingestFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Generation 1.
	var ms []Measurement
	for ki := range 3 {
		for bin := range 20 {
			ms = append(ms, m(ki, bin))
		}
	}
	st.AppendBatch(ms)                               // series-major
	st.AppendBatch(timeMajor([]int{3, 4}, 0, 20))    // time-major
	send(timeMajor([]int{0, 1, 2, 3, 4, 5}, 20, 26)) // references, and key 5's defines
	st.Append(m(0, 26))
	st.Append(Measurement{keys[0], at(3), -1.5})  // late, into a sealed chunk
	send([]Measurement{{keys[5], at(30), 0.125}}) // past a gap
	checkGolden(t, dir, "wal-1.log")

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Generation 2: the connection's ids are the log's no longer, so its
	// references define their keys in the log.
	send(timeMajor([]int{5, 4, 3, 2, 1, 0}, 31, 35))
	st.AppendBatch(timeMajor([]int{0, 1, 2, 3, 4, 5}, 35, 40))
	send([]Measurement{{keys[2], at(9), 2.5}}) // late, into a sealed chunk
	st.Append(m(1, 40))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{headFile, segmentName(1), "wal-2.log"}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	for _, name := range names {
		checkGolden(t, dir, name)
	}
}

// checkGolden compares dir's file name with its golden copy, or writes
// that copy under -update.
func checkGolden(t *testing.T, dir, name string) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d bytes, golden %d; first difference at offset %d", name, len(got), len(want), i)
	}
}
