package monitor

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// persistOptsNoBG disables the background loop's timers so tests
// control sync/compact explicitly.
func persistOptsNoBG(shards int) PersistOptions {
	return PersistOptions{Shards: shards, SyncInterval: -1, CompactBytes: -1}
}

// snapshotBytes dumps a store for byte-level comparison.
func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPersistentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStore(t0, time.Minute)
	keys := fleetKeys(20)
	for bin := 0; bin < 30; bin++ {
		for ki, k := range keys {
			m := Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin*10 + ki)}
			st.Append(m)
			ref.Append(m)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), snapshotBytes(t, ref)) {
		t.Fatal("recovered store differs from reference")
	}
	rec := re.Recovered()
	if rec.WALRecords == 0 {
		t.Fatalf("expected WAL replay, got %+v", rec)
	}
	if rec.TornTails != 0 {
		t.Fatalf("unexpected torn tails: %+v", rec)
	}
	if re.Start() != ref.Start() || re.Step() != ref.Step() {
		t.Fatalf("epoch mismatch: %v/%v vs %v/%v", re.Start(), re.Step(), ref.Start(), ref.Step())
	}
}

// TestPersistentRecoverWithoutClose reopens a directory whose store was
// never closed — the process-kill case. Appends flush to the OS on
// every call, so nothing may be lost.
func TestPersistentRecoverWithoutClose(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStore(t0, time.Minute)
	keys := fleetKeys(12)
	var batch []Measurement
	for bin := 0; bin < 10; bin++ {
		batch = batch[:0]
		for ki, k := range keys {
			batch = append(batch, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin + ki)})
		}
		st.AppendBatch(batch)
		ref.AppendBatch(batch)
	}
	// No Close: the abandoned store's files are simply left behind, as
	// after a SIGKILL.
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), snapshotBytes(t, ref)) {
		t.Fatal("kill-style recovery lost measurements")
	}
}

func TestPersistentTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		st.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: chop a few bytes off the log.
	logPath := genLog(t, dir, 0)
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovered()
	if rec.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1 (stats %+v)", rec.TornTails, rec)
	}
	if rec.WALRecords != n-1 {
		t.Fatalf("WALRecords = %d, want %d", rec.WALRecords, n-1)
	}
	ser, ok := re.Series(kCPU)
	if !ok || ser.Len() != n-1 {
		t.Fatalf("series len = %d, want %d", ser.Len(), n-1)
	}
	for i := 0; i < n-1; i++ {
		if ser.Values[i] != float64(i) {
			t.Fatalf("bin %d = %v", i, ser.Values[i])
		}
	}
}

// TestPersistentCRCCatchesCorruption flips a payload byte mid-log and
// checks replay stops there instead of storing garbage.
func TestPersistentCRCCatchesCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := genLog(t, dir, 0)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovered()
	if rec.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", rec.TornTails)
	}
	if rec.WALRecords >= 8 {
		t.Fatalf("replayed %d records past the corruption", rec.WALRecords)
	}
	if ser, ok := re.Series(kCPU); ok {
		for i, v := range ser.Values {
			if v != float64(i) {
				t.Fatalf("bin %d holds garbage %v", i, v)
			}
		}
	}
}

// TestCompactTruncatesLogsAndSurvivesReopen: one compaction leaves
// exactly one snapshot and one generation — the live one, numbered
// above the one it folded in — and the logs written after it replay on
// top of the snapshot.
func TestCompactTruncatesLogsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStore(t0, time.Minute)
	keys := fleetKeys(8)
	add := func(s *Store, lo, hi int) {
		for bin := lo; bin < hi; bin++ {
			for ki, k := range keys {
				s.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin*100 + ki)})
			}
		}
	}
	add(st, 0, 10)
	add(ref, 0, 10)
	preCompact := logBytes(t, dir)
	before, err := listWALs(faultfs.OS, dir)
	if err != nil || len(before) != 1 {
		t.Fatalf("generations before the compaction: %+v (%v), want one", before, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("a fresh open wrote a snapshot (stat: %v)", err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := logBytes(t, dir); got >= preCompact {
		t.Fatalf("compaction did not shrink logs: %d → %d", preCompact, got)
	}
	after, err := listWALs(faultfs.OS, dir)
	if err != nil || len(after) != 1 || after[0].gen != before[0].gen+1 {
		t.Fatalf("generations after the compaction: %+v (%v), want only generation %d", after, err, before[0].gen+1)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // the snapshot and the live generation's log
		t.Fatalf("compaction left %d files behind, want 2: %v", len(entries), entries)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends land in the fresh logs.
	add(st, 10, 15)
	add(ref, 10, 15)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), snapshotBytes(t, ref)) {
		t.Fatal("compact + reopen lost measurements")
	}
	if rec := re.Recovered(); rec.SnapshotSeries != len(keys) || rec.Generations != 1 || rec.WALRecords != 5*len(keys) {
		t.Fatalf("recovery stats %+v, want %d series from the snapshot and 5 bins from one generation", rec, len(keys))
	}
}

// TestRecoveryReplaysRotatedLogs fakes a compaction that crashed after
// rotation but before the snapshot rename: the generation it rotated
// away from must replay (and replaying it below a generation that holds
// the same records is idempotent). The reopen reads both and rewrites
// neither.
func TestRecoveryReplaysRotatedLogs(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStore(t0, time.Minute)
	for i := 0; i < 12; i++ {
		m := Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)}
		st.Append(m)
		ref.Append(m)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the rotation started a generation above
	// the one holding the records and the replacement snapshot never
	// landed. Duplicate the log into the new generation instead of
	// leaving it empty, so the same records sit in both — replay must be
	// idempotent.
	gens, err := listWALs(faultfs.OS, dir)
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations %+v (%v), want one", gens, err)
	}
	raw, err := os.ReadFile(gens[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(gens[0].gen+1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), snapshotBytes(t, ref)) {
		t.Fatal("rotated-log recovery diverged")
	}
	if rec := re.Recovered(); rec.Generations != 2 || rec.WALRecords != 24 {
		t.Fatalf("recovery stats %+v, want 12 records from each of 2 generations", rec)
	}
	after, err := listWALs(faultfs.OS, dir)
	if err != nil || len(after) != 3 || after[2].gen != gens[0].gen+2 {
		t.Fatalf("generations after the reopen: %+v (%v), want the two replayed and a live one above them", after, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("the reopen wrote a snapshot (stat: %v)", err)
	}
	// The next compaction is what consumes them.
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if after, err = listWALs(faultfs.OS, dir); err != nil || len(after) != 1 {
		t.Fatalf("generations after a compaction: %+v (%v), want the live one only", after, err)
	}
}

func TestPersistentPruneThenCompactDropsHistory(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		st.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	cut := t0.Add(10 * time.Minute)
	st.Prune(cut)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Start().Equal(cut) {
		t.Fatalf("recovered epoch %v, want %v", re.Start(), cut)
	}
	ser, ok := re.Series(kCPU)
	if !ok || ser.Len() != 10 {
		t.Fatalf("series len = %d, want 10", ser.Len())
	}
	if ser.Values[0] != 10 {
		t.Fatalf("first kept bin = %v, want 10", ser.Values[0])
	}
}

func TestPersistentStepMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	st.Append(Measurement{kCPU, t0, 1})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPersistent(dir, t0, time.Hour, persistOptsNoBG(1)); err == nil {
		t.Fatal("step mismatch should fail")
	}
}

func TestInMemoryStorePersistenceNoOps(t *testing.T) {
	s := NewStore(t0, time.Minute)
	if s.persist != nil {
		t.Fatal("in-memory store claims persistence")
	}
	if err := s.Sync(); err != ErrNotPersistent {
		t.Fatalf("Sync = %v, want ErrNotPersistent", err)
	}
	if err := s.Compact(); err != ErrNotPersistent {
		t.Fatalf("Compact = %v, want ErrNotPersistent", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	if rec := s.Recovered(); rec != (RecoveryStats{}) {
		t.Fatalf("Recovered = %+v, want zero", rec)
	}
}

// TestPersistentShardCountChange reopens a directory with a different
// stripe count; striping is an in-memory detail, the data must come
// back identical.
func TestPersistentShardCountChange(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(8))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStore(t0, time.Minute)
	keys := fleetKeys(16)
	for bin := 0; bin < 6; bin++ {
		for ki, k := range keys {
			m := Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin + ki)}
			st.Append(m)
			ref.Append(m)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(3))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3", re.Shards())
	}
	if !bytes.Equal(snapshotBytes(t, re), snapshotBytes(t, ref)) {
		t.Fatal("shard-count change corrupted recovery")
	}
}

// TestAutoCompactTriggers lets the byte threshold drive a background
// compaction.
func TestAutoCompactTriggers(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, PersistOptions{
		Shards:       2,
		CompactBytes: 2048, // tiny: a few dozen appends
		SyncInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := fleetKeys(8)
	deadline := time.Now().Add(5 * time.Second)
	for bin := 0; ; bin++ {
		for ki, k := range keys {
			st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin + ki)})
		}
		if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
			info, _ := os.Stat(filepath.Join(dir, snapshotFile))
			if info.Size() > 64 { // more than a bare header: a real dump landed
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("background compaction never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

// logBytes sums the log sizes, every generation's.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	gens, err := listWALs(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, g := range gens {
		info, err := os.Stat(g.path)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestListWALsOrdersNumerically: generation 10 is younger than
// generation 9, and 100 than 20, whatever the file names' byte order
// says.
func TestListWALsOrdersNumerically(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{walName(100), walName(10), walName(9), walName(20), snapshotFile, "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := listWALs(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range gens {
		got = append(got, fmt.Sprintf("%d:%s", g.gen, filepath.Base(g.path)))
	}
	want := []string{"9:wal-9.log", "10:wal-10.log", "20:wal-20.log", "100:wal-100.log"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("listWALs = %v, want %v", got, want)
	}
}
