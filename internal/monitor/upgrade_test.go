package monitor_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/testrig"
)

// TestOpenReadsVersion1Head: the version 2 head the golden program
// wrote before heads indexed their chunks, and the version 1 head before
// that (whose series all have head 0 — what a build that renumbered bins
// on prune wrote for a store never pruned), open through the eager
// segment pass to the same store as the version 3 head that replaced
// them beside the same segment and log, and a compaction of the version
// 2 one writes a version 3 head. A version 1 head with bins pruned inside
// a series' first chunk is refused, naming the last build that reads
// it.
func TestOpenReadsVersion1Head(t *testing.T) {
	var dir string
	open := func(head []byte) (*monitor.Store, error) {
		t.Helper()
		dir = t.TempDir()
		for _, name := range []string{"seg-1.fnlc", "wal-2.log"} {
			raw, err := os.ReadFile(filepath.Join("testdata", "golden-v3", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "head.fnlh"), head, 0o644); err != nil {
			t.Fatal(err)
		}
		return monitor.OpenPersistent(dir, time.Time{}, 0, monitor.PersistOptions{Shards: 4, CompactBytes: -1, SyncInterval: -1})
	}
	read := func(dir, name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	v3, v2, v1 := read("golden-v3", "head.fnlh"), read("head-v2", "head.fnlh"), read("head-v1", "head.fnlh")
	for i, head := range [][]byte{v1, v2, v3} {
		if v := binary.BigEndian.Uint16(head[4:]); v != uint16(i+1) {
			t.Fatalf("head version %d, want %d", v, i+1)
		}
	}
	want, err := open(v3)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	if want.Len() == 0 {
		t.Fatal("the golden store is empty")
	}
	for i, head := range [][]byte{v1, v2} {
		got, err := open(head)
		if err != nil {
			t.Fatalf("a version %d head: %v", i+1, err)
		}
		if d := testrig.StoreDiff(got, want); d != "" {
			t.Fatalf("the version %d head opens to another store: %s", i+1, d)
		}
		if err := got.Compact(); err != nil {
			t.Fatal(err)
		}
		got.Close()
		if compacted, err := os.ReadFile(filepath.Join(dir, "head.fnlh")); err != nil || binary.BigEndian.Uint16(compacted[4:]) != 3 {
			t.Fatalf("the compaction after a version %d head left head version %d (%v), want 3", i+1, binary.BigEndian.Uint16(compacted[4:]), err)
		}
	}
	// The first series' head field follows the fixed header, the one
	// segment, the series count and the series' key.
	bad := bytes.Clone(v1)
	at := 4 + 2 + 8 + 8 + 4 + 4 + 9 + 4
	at += 1 + 2 + int(binary.BigEndian.Uint16(bad[at+1:]))
	at += 2 + int(binary.BigEndian.Uint16(bad[at:]))
	binary.BigEndian.PutUint32(bad[at:], 1)
	binary.BigEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if s, err := open(bad); err == nil || !strings.Contains(err.Error(), "e8b4fb7") {
		if s != nil {
			s.Close()
		}
		t.Fatalf("a version 1 head with a pruned head: %v, want a refusal naming e8b4fb7", err)
	}
}
