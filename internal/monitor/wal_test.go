package monitor

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/topo"
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

// The store reference model drives these: every reopen must recover
// what it says reached the disk, RecoveryStats included.
func TestPersistentRoundTrip(t *testing.T) {
	var p []int
	for bin := 0; bin < 30; bin++ {
		p = append(p, opBin, wr(0, 0, 0))
	}
	runProgram(t, progConfig{span: 16, shards: 4, keys: fleetKeys(20)}, progOps(append(p, opReopen, 0)...), nil)
}

// TestPersistentRecoverWithoutClose reopens a copy of a directory whose
// store was never closed — the process-kill case. Appends flush to the
// OS on every call, so nothing may be lost.
func TestPersistentRecoverWithoutClose(t *testing.T) {
	r := newProgRunner(t, progConfig{span: 16, shards: 4, keys: fleetKeys(12)}, nil)
	r.run(progOps(opBin, wr(0, 1, 0), opBin, wr(0, 1, 0), opAppend, 40, opBin, wr(0, 1, 4)))
	defer r.s.Close()
	killed := r.fork(t)
	killed.openRetry(4, 16, 0, snapshotBytes(t, r.s))
	killed.finish()
}

// TestPersistentTornTail tears the final record, and
// TestPersistentCRCCatchesCorruption flips a payload bit mid-log: replay
// stops there instead of storing garbage.
func TestPersistentTornTail(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 1}, progOps(opAppend, wr(0, 0, 9), opDamage, 6<<8|63<<2), nil)
}

func TestPersistentCRCCatchesCorruption(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 1}, progOps(opAppend, wr(0, 0, 7), opDamage, 2<<8|32<<2), nil)
}

// TestCompactTruncatesLogsAndSurvivesReopen: one compaction leaves
// exactly one snapshot and one generation — the live one, numbered
// above the one it folded in — and the logs written after it replay on
// top of the snapshot.
func TestCompactTruncatesLogsAndSurvivesReopen(t *testing.T) {
	r := newProgRunner(t, progConfig{span: 16, shards: 2, keys: fleetKeys(8)}, nil)
	bins := func(n int) []byte { return bytes.Repeat(progOps(opBin, wr(0, 0, 0)), n) }
	r.run(bins(10))
	preCompact := logBytes(t, r.dir)
	before, err := listWALs(faultfs.OS, r.dir)
	if _, serr := os.Stat(filepath.Join(r.dir, snapshotFile)); err != nil || len(before) != 1 || !os.IsNotExist(serr) {
		t.Fatalf("generations %+v (%v) and a snapshot (stat: %v) before the compaction, want one and none", before, err, serr)
	}
	r.run(progOps(opCompact, 0))
	if got := logBytes(t, r.dir); got >= preCompact {
		t.Fatalf("compaction did not shrink logs: %d → %d", preCompact, got)
	}
	after, err := listWALs(faultfs.OS, r.dir)
	if err != nil || len(after) != 1 || after[0].gen != before[0].gen+1 {
		t.Fatalf("generations after the compaction: %+v (%v), want only generation %d", after, err, before[0].gen+1)
	}
	if entries, err := os.ReadDir(r.dir); err != nil || len(entries) != 2 { // the snapshot and the live generation's log
		t.Fatalf("compaction left %d files behind (%v), want 2: %v", len(entries), err, entries)
	}
	// Post-compaction appends land in the fresh log, and replay on top
	// of the snapshot.
	r.run(append(bins(5), progOps(opReopen, ro(3, 0, 0))...))
	r.finish()
}

// TestRecoveryReplaysRotatedLogs fakes a compaction that crashed after
// rotation but before the snapshot rename: the generation it rotated
// away from must replay (and replaying it below a generation that holds
// the same records is idempotent). The reopen reads both and rewrites
// neither.
func TestRecoveryReplaysRotatedLogs(t *testing.T) {
	r := newProgRunner(t, progConfig{span: 8, shards: 1}, nil)
	r.run(progOps(opAppend, wr(0, 0, 11)))
	gen := r.s.persist.gen
	before := r.close()
	// The rotation started a generation above the one holding the records
	// and the replacement snapshot never landed; the same records sit in
	// both.
	raw, err := os.ReadFile(filepath.Join(r.dir, walName(gen)))
	if err == nil {
		err = os.WriteFile(filepath.Join(r.dir, walName(gen+1)), raw, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	r.gens[gen+1] = r.gens[gen]
	r.openRetry(1, 8, 0, before)
	if rec := r.s.Recovered(); rec.Generations != 2 || rec.WALRecords != 24 {
		t.Fatalf("recovery stats %+v, want 12 records from each of 2 generations", rec)
	}
	after, err := listWALs(faultfs.OS, r.dir)
	if _, serr := os.Stat(filepath.Join(r.dir, snapshotFile)); err != nil || len(after) != 3 || after[2].gen != gen+2 || !os.IsNotExist(serr) {
		t.Fatalf("generations after the reopen: %+v (%v), want the two replayed and a live one above them and no snapshot (%v)", after, err, serr)
	}
	// The next compaction is what consumes them.
	r.run(progOps(opCompact, 0))
	if after, err = listWALs(faultfs.OS, r.dir); err != nil || len(after) != 1 {
		t.Fatalf("generations after a compaction: %+v (%v), want the live one only", after, err)
	}
	r.finish()
}

func TestPersistentPruneThenCompactDropsHistory(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 2}, progOps(opAppend, 19, opPruneChunks, 10, opCompact, 0, opReopen, 0), nil)
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
	var p []int
	for bin := 0; bin < 6; bin++ {
		p = append(p, opBin, wr(0, 0, 0))
	}
	runProgram(t, progConfig{span: 16, shards: 16, keys: fleetKeys(16)}, progOps(append(p, opReopen, ro(3, 0, 0))...), nil)
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

// TestAppendDropsWhatTheLogCannotCarry: an in-process measurement whose
// entity or metric is over 65 535 bytes, or whose time is outside the
// Unix-nanosecond range, is dropped on the way in, as one before the
// epoch is. It neither reaches memory nor fail-stops persistence, and
// what is appended beside and after it is logged and survives a reopen.
func TestAppendDropsWhatTheLogCannotCarry(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 70000)
	bad := []Measurement{
		{topo.KPIKey{Scope: topo.ScopeServer, Entity: long, Metric: "cpu"}, t0, 1},
		{topo.KPIKey{Scope: topo.ScopeServer, Entity: "web-01", Metric: long}, t0, 2},
		{topo.KPIKey{Scope: topo.ScopeServer, Entity: "web-01", Metric: "far"}, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), 3},
	}
	st.Append(bad[0])
	if got := st.PersistState(); got != PersistHealthy {
		t.Fatalf("after one Append of a %d-byte entity the store is %v, want healthy", len(long), got)
	}
	good := Measurement{kCPU, t0.Add(time.Minute), 4}
	st.AppendBatch([]Measurement{bad[1], good, bad[2]})
	if got := st.PersistState(); got != PersistHealthy {
		t.Fatalf("after a batch with one good measurement in three the store is %v, want healthy", got)
	}
	for _, m := range bad {
		if _, ok := st.SeriesLen(m.Key); ok {
			t.Errorf("key with a %d-byte entity and a %d-byte metric at %v is in memory", len(m.Key.Entity), len(m.Key.Metric), m.T)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rc := re.Recovered(); rc.WALRecords != 1 || rc.TornTails != 0 {
		t.Fatalf("reopen replayed %d records with %d torn tails, want 1 and 0", rc.WALRecords, rc.TornTails)
	}
	if got, ok := re.Series(kCPU); !ok || got.Len() != 2 || got.Values[1] != good.V || re.Len() != 1 {
		t.Fatalf("reopened store holds %d series, %v of the good key, want only it with %v at bin 1", re.Len(), got, good.V)
	}
}

// TestAppendDropsUnknownScope: a key whose scope is none of the three
// is dropped, not logged as a define that replay refuses, which would
// end its shard's generation there and lose every measurement
// acknowledged after it.
func TestAppendDropsUnknownScope(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := topo.KPIKey{Scope: 99, Entity: "x", Metric: "y"}
	st.Append(Measurement{bad, t0, 1})
	st.Append(Measurement{kCPU, t0, 2})
	if _, ok := st.SeriesLen(bad); ok {
		t.Error("a key of scope 99 is in memory")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rc := re.Recovered(); rc.WALRecords != 1 || rc.TornTails != 0 {
		t.Fatalf("reopen replayed %d records with %d torn tails, want 1 and 0", rc.WALRecords, rc.TornTails)
	}
	if got, ok := re.Series(kCPU); !ok || got.Len() != 1 || got.Values[0] != 2 || re.Len() != 1 {
		t.Fatalf("reopened store holds %d series, %v of the good key, want only it with 2 at bin 0", re.Len(), got)
	}
}

// TestUnixNanosRange: AppendBatch's time test keeps the first and last
// instants a Unix-nanosecond timestamp carries and drops the ones just
// outside, where its whole-second shortcut does not decide.
func TestUnixNanosRange(t *testing.T) {
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	for _, c := range []struct {
		t  time.Time
		ok bool
	}{{lo, true}, {lo.Add(-1), false}, {hi, true}, {hi.Add(1), false}, {lo.Add(time.Second), true}, {t0, true}} {
		if n, ok := unixNanos(c.t); ok != c.ok || ok && n != c.t.UnixNano() {
			t.Errorf("unixNanos(%v) = %d, %v; want ok %v", c.t, n, ok, c.ok)
		}
	}
}
