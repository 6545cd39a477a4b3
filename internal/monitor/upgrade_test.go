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

// TestOpenReadsVersion1Head: a version 1 head whose series all have head
// 0 — what a build that renumbered bins on prune wrote for a store never
// pruned, here the golden program's — opens to the same store as the
// version 2 head that replaced it beside the same segment and log. One
// with bins pruned inside a series' first chunk is refused, naming the
// last build that reads it.
func TestOpenReadsVersion1Head(t *testing.T) {
	open := func(head []byte) (*monitor.Store, error) {
		t.Helper()
		dir := t.TempDir()
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
	v2, err := os.ReadFile(filepath.Join("testdata", "golden-v3", "head.fnlh"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "head-v1", "head.fnlh"))
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint16(v1[4:]) != 1 || binary.BigEndian.Uint16(v2[4:]) != 2 {
		t.Fatalf("head versions %d and %d, want 1 and 2", binary.BigEndian.Uint16(v1[4:]), binary.BigEndian.Uint16(v2[4:]))
	}
	want, err := open(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := open(v1)
	if err != nil {
		t.Fatalf("a version 1 head: %v", err)
	}
	defer got.Close()
	if want.Len() == 0 {
		t.Fatal("the golden store is empty")
	}
	if d := testrig.StoreDiff(got, want); d != "" {
		t.Fatalf("the version 1 head opens to another store: %s", d)
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
