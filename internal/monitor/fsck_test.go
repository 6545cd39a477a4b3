package monitor

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/topo"
)

// buildCorruptDir creates a persistence directory whose segment has
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
	snap := filepath.Join(dir, segmentName(1))
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
		t.Fatal("fsck called a corrupt segment healthy")
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

// TestFsckChecksTheIndex: a head whose index places a chunk elsewhere
// than its copy in the segment — here a later chunk's bytes, under the
// chunk's own CRC — is reported, by entry, as a mismatch with the
// segments' framing (and the chunk, read where the index says, as
// quarantined); a repair rewrites the head, which then agrees.
func TestFsckChecksTheIndex(t *testing.T) {
	dir := t.TempDir()
	opts := persistOptsNoBG(2)
	opts.ChunkSpan = 16
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	for bin := 0; bin < 80; bin++ {
		st.Append(Measurement{kCPU, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	_, later := st.shardFor(kCPU).series[kCPU].chunks[3].Home()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteFile(t, filepath.Join(dir, headFile), func(raw []byte) []byte {
		return patchIndex(raw, func(e []byte) { binary.BigEndian.PutUint64(e[1:], uint64(later)) })
	})
	rep, err := Fsck(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IndexMismatches != 1 || rep.QuarantinedChunks != 1 || rep.Healthy() || rep.ChunkReads != int64(rep.Chunks) {
		t.Fatalf("fsck of a head indexing a chunk at another's bytes: %+v", rep)
	}
	if rep, err = Fsck(dir, nil, true); err != nil || !rep.Repaired {
		t.Fatalf("repair: %+v (%v)", rep, err)
	}
	if rep, err = Fsck(dir, nil, false); err != nil || !rep.Healthy() || rep.IndexMismatches != 0 {
		t.Fatalf("after the repair: %+v (%v)", rep, err)
	}
}

// TestFsckRepairKeepsRefusedLogs: a log of a version this build does
// not read holds records the segments lack, so repair refuses the
// directory and leaves it byte for byte as it was.
func TestFsckRepairKeepsRefusedLogs(t *testing.T) {
	for _, version := range []uint16{2, 9} {
		dir := t.TempDir()
		st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(2))
		if err != nil {
			t.Fatal(err)
		}
		k := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "cpu"}
		for bin := 0; bin < 20; bin++ {
			if bin == 10 {
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin)})
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		rewriteFile(t, genLog(t, dir, 0), func(raw []byte) []byte {
			binary.BigEndian.PutUint16(raw[4:6], version)
			return raw
		})
		before := dirImage(t, dir)
		if _, ok := before[headFile]; !ok {
			t.Fatal("no head beside the log")
		}
		rep, err := Fsck(dir, nil, true)
		if !errors.Is(err, errWALVersion) || rep.Repaired {
			t.Fatalf("version %d: repair %+v (%v), want it refused", version, rep, err)
		}
		if !reflect.DeepEqual(dirImage(t, dir), before) {
			t.Fatalf("version %d: the refused repair changed the directory", version)
		}
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
	if err := os.WriteFile(filepath.Join(dir, headFile), []byte("GARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Fsck(dir, nil, true); err == nil {
		t.Fatal("fsck accepted a head with destroyed framing")
	}
}
