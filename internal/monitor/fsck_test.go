package monitor

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/topo"
)

// buildCorruptDir creates a persistence directory whose snapshot has
// exactly one CRC-failing chunk, and returns it with the series key
// and chunk span used.
func buildCorruptDir(t *testing.T) (string, topo.KPIKey, int) {
	t.Helper()
	dir := t.TempDir()
	opts := persistOptsNoBG(2)
	opts.ChunkSpan = 16
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-9", Metric: "cpu.util"}
	for bin := 0; bin < 80; bin++ {
		st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, k, opts.ChunkSpan
}

func TestFsckEmptyDir(t *testing.T) {
	rep, err := Fsck(t.TempDir(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.SnapshotPresent || len(rep.WALs) != 0 {
		t.Fatalf("empty dir not clean: %+v", rep)
	}
}

func TestFsckVerifyReportsQuarantine(t *testing.T) {
	dir, _, _ := buildCorruptDir(t)
	rep, err := Fsck(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("fsck called a corrupt snapshot healthy")
	}
	if rep.QuarantinedChunks != 1 || rep.Repaired {
		t.Fatalf("verify pass: %+v", rep)
	}
	// Verify-only must not touch the directory: a second pass sees the
	// same damage.
	rep2, err := Fsck(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.QuarantinedChunks != 1 {
		t.Fatalf("verify mutated the directory: %+v", rep2)
	}
}

func TestFsckRepairDropsQuarantine(t *testing.T) {
	dir, k, span := buildCorruptDir(t)
	rep, err := Fsck(dir, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.DroppedChunks != 1 {
		t.Fatalf("repair pass: %+v", rep)
	}

	// The repaired directory is clean on re-check...
	rep2, err := Fsck(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Healthy() || rep2.QuarantinedChunks != 0 {
		t.Fatalf("post-repair check: %+v", rep2)
	}

	// ...and reopens with zero quarantines; the dropped chunk's bins
	// are plain NaN gaps, every other bin is intact.
	st, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.QuarantinedChunks() != 0 {
		t.Fatalf("quarantine survived repair: %d", st.QuarantinedChunks())
	}
	got, ok := st.Series(k)
	if !ok || got.Len() != 80 {
		t.Fatalf("series shape after repair: ok=%v len=%d", ok, got.Len())
	}
	nan := 0
	for i, v := range got.Values {
		if math.IsNaN(v) {
			nan++
		} else if v != float64(i) {
			t.Fatalf("bin %d = %v after repair, want %v", i, v, float64(i))
		}
	}
	if nan != span {
		t.Fatalf("%d NaN bins after repair, want one span (%d)", nan, span)
	}
}

func TestFsckCountsWALRecordsAndTornTails(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	k := fleetKeys(1)[0]
	for bin := 0; bin < 5; bin++ {
		st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the live log's tail: append half a record.
	wal := genLog(t, dir, 0)
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 40, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Fsck(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTails != 1 || rep.WALRecords != 5 || len(rep.WALs) != 1 || rep.WALs[0].Path != wal {
		t.Fatalf("TornTails = %d, WALRecords = %d, want 1 and 5 from %s (%+v)", rep.TornTails, rep.WALRecords, wal, rep)
	}
	if w := rep.WALs[0]; !w.TornTail || w.TornAt != info.Size() || w.Unread != 6 {
		t.Fatalf("bad record reported at offset %d with %d bytes unread, want %d and 6 (%+v)", w.TornAt, w.Unread, info.Size(), w)
	}
	if rep.Healthy() {
		t.Fatal("torn tail called healthy")
	}
}

func TestFsckUnrecoverableSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("GARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Fsck(dir, nil, true); err == nil {
		t.Fatal("fsck accepted a snapshot with destroyed framing")
	}
}
