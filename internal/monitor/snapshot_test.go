package monitor

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
)

// TestSnapshotRoundTrip: gaps survive, and the restored store keeps
// working (see the store reference model's opSnapshot and opReopen).
func TestSnapshotRoundTrip(t *testing.T) {
	p := progOps(opAppend, 0, opGap, 2, opAppend, wr(1, 1, 0), opSnapshot, 0, opCompact, 0, opReopen, 0, opAppend, wr(1, 2, 0))
	runProgram(t, progConfig{span: 8, shards: 4}, p, nil)
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewStore(t0, time.Minute)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: len=%d err=%v", got.Len(), err)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"FNLS\x00\x63", // wrong version
	}
	for i, c := range cases {
		if _, err := ReadSnapshot(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Truncated body.
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0, 1})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(full[:len(full)-4])); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

func TestSnapshotBadScope(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{Measurementkey(99), t0, 1})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil {
		t.Fatal("invalid scope should be rejected on read")
	}
}

// Measurementkey builds a key with an arbitrary scope byte for
// negative tests.
func Measurementkey(scope uint8) topo.KPIKey {
	return topo.KPIKey{Scope: topo.Scope(scope), Entity: "x", Metric: "y"}
}

// A snapshot key costs one allocation, which both strings share: the
// bytes are gathered in the caller's scratch.
func TestReadSnapshotStringAllocs(t *testing.T) {
	keys := []topo.KPIKey{
		{Scope: topo.ScopeServer, Entity: "srv-0042", Metric: "cpu.util"},
		{Scope: topo.ScopeService, Entity: "grp000.core", Metric: ""},
		{Scope: topo.ScopeInstance, Entity: "", Metric: ""},
	}
	var framed []byte
	for _, k := range keys {
		framed, _ = appendKey(framed, k)
	}
	scratch := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(20, func() {
		b := framed
		for _, want := range keys {
			var got topo.KPIKey
			got, b, scratch = snapshotKey(b, scratch)
			if got != want {
				t.Fatalf("read %v; want %v", got, want)
			}
		}
	})
	if allocs != 2 { // the empty key allocates nothing
		t.Fatalf("%v allocations for 3 keys, want 2", allocs)
	}
}

// TestRestoreSeriesAllocs pins what restoring a series from a snapshot
// allocates: its entry, key, chunk list, each chunk's bytes and chunk,
// and its tail. The pass's own allocations — store, maps sized from the
// header, blocks, workers — do not grow with the series count.
func TestRestoreSeriesAllocs(t *testing.T) {
	image := func(n int) []byte {
		s := NewStore(t0, time.Minute)
		s.SetChunkSpan(16)
		for i := range n {
			k := topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("srv-%04d", i), Metric: "cpu.util"}
			for bin := range 20 { // one chunk and a tail of 4
				s.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin * i)})
			}
		}
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	restore := func(snap []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			rc := &recovery{shards: StoreShards}
			err := rc.readSnapshot(bytes.NewReader(snap), int64(len(snap)))
			rc.join()
			if err != nil || rc.stats.SnapshotSeries == 0 {
				t.Fatalf("restore: %v, %d series", err, rc.stats.SnapshotSeries)
			}
		})
	}
	small, large := restore(image(256)), restore(image(2048))
	perSeries := (large - small) / (2048 - 256)
	t.Logf("%.3f allocations per restored series", perSeries)
	if perSeries > 6.05 {
		t.Fatalf("%.2f allocations per restored series (%v for 256, %v for 2048), want 6", perSeries, small, large)
	}
}

// ReadSnapshot reconstructs a default-striped Store from a snapshot
// stream, counting its quarantined chunks the way recovery does.
func ReadSnapshot(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	rc := &recovery{shards: StoreShards}
	err = rc.readSnapshot(bytes.NewReader(data), int64(len(data)))
	rc.join()
	if err != nil {
		return nil, err
	}
	if n := rc.stats.QuarantinedChunks; n > 0 {
		rc.store.quarantined.Add(int64(n))
	}
	return rc.store, nil
}
