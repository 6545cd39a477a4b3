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

// TestSnapshotBadScope: a series whose scope byte names none of the
// three scopes is refused on read. Append drops such a key, so the bad
// snapshot is a valid one with the first series' scope byte patched.
func TestSnapshotBadScope(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0, 1})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	const scopeAt = 4 + 2 + 8 + 8 + 4 + 4 // the header's length
	if _, err := ReadSnapshot(bytes.NewReader(snap)); err != nil || snap[scopeAt] != byte(kCPU.Scope) {
		t.Fatalf("unpatched snapshot: %v, scope byte %d", err, snap[scopeAt])
	}
	snap[scopeAt] = 99
	if _, err := ReadSnapshot(bytes.NewReader(snap)); err == nil {
		t.Fatal("invalid scope should be rejected on read")
	}
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
// allocates: its entry, key, chunk list, and each chunk's bytes and
// chunk. Its tail is cut from its worker's slab (keyRuns.newTail), and
// the pass's own allocations — store, maps sized from the header,
// blocks, workers — do not grow with the series count.
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
	if perSeries > 5.05 {
		t.Fatalf("%.2f allocations per restored series (%v for 256, %v for 2048), want 5", perSeries, small, large)
	}
}

// TestRestoredTailHasSpanCapacity: a series restored with a snapshot
// tail holds it at span capacity, where replay appends in place, and
// one without a tail holds none; after a reopen replays bins onto the
// tail, it still has span capacity and the store's values. At a span
// wider than a slab the tail is its own size.
func TestRestoredTailHasSpanCapacity(t *testing.T) {
	const span = 16
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, PersistOptions{Shards: 4, SyncInterval: -1, CompactBytes: -1, ChunkSpan: span})
	if err != nil {
		t.Fatal(err)
	}
	tailed := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "tailed"}
	sealed := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "sealed"}
	write := func(k topo.KPIKey, lo, hi int) {
		for bin := lo; bin < hi; bin++ {
			st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
		}
	}
	write(tailed, 0, span+4)
	write(sealed, 0, span)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := st.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	write(tailed, span+4, span+7) // into the log, onto the snapshot's tail
	want := snapshotBytes(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := ReadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if e := restored.shardFor(tailed).series[tailed]; len(e.tail) != 4 || cap(e.tail) != span {
		t.Fatalf("restored tail holds %d bins at capacity %d, want 4 at %d", len(e.tail), cap(e.tail), span)
	}
	if e := restored.shardFor(sealed).series[sealed]; e.tail != nil {
		t.Fatalf("a series restored without a tail holds one of capacity %d", cap(e.tail))
	}
	// A span wider than a slab gets a tail of its own bins: a header's
	// span alone cannot demand memory.
	wide := NewStore(t0, time.Minute)
	wide.SetChunkSpan(maxSnapshotSpan)
	wide.Append(Measurement{tailed, t0, 1})
	var wideSnap bytes.Buffer
	if err := wide.WriteSnapshot(&wideSnap); err != nil {
		t.Fatal(err)
	}
	if restored, err = ReadSnapshot(&wideSnap); err != nil {
		t.Fatal(err)
	}
	if e := restored.shardFor(tailed).series[tailed]; len(e.tail) != 1 || cap(e.tail) > slabBins {
		t.Fatalf("at span %d the restored tail holds %d bins at capacity %d", maxSnapshotSpan, len(e.tail), cap(e.tail))
	}

	re, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e := re.shardFor(tailed).series[tailed]; e.tailLen() != 7 || cap(e.tail) != span {
		t.Fatalf("after replay the tail holds %d bins at capacity %d, want 7 at %d", e.tailLen(), cap(e.tail), span)
	}
	if got := snapshotBytes(t, re); !bytes.Equal(got, want) {
		t.Fatal("the reopened store differs from the one closed")
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
