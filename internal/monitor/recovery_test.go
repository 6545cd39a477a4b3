package monitor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/topo"
)

// copyImage copies a flat data directory into a fresh temp dir.
func copyImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// genLog returns the path of the log that is back generations older
// than the newest one in dir.
func genLog(t *testing.T, dir string, back int) string {
	t.Helper()
	gens, err := listWALs(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if back >= len(gens) {
		t.Fatalf("%d generations in %s, want more than %d", len(gens), dir, back)
	}
	return gens[len(gens)-1-back].path
}

// diffSpan is the chunk span of the recovery images.
const diffSpan = 16

// imageProg writes a crash image: 40 bins of 48 keys compacted into a
// base segment, walBins more — half of them compacted into a level-0
// segment, the rest in the log — by Append and AppendBatch, with a late
// write into a sealed chunk and one (key, bin) twice in a batch, and
// then a generation of 20 more bins per reopen in gens, each the
// progShards selector of the reopen.
func imageProg(walBins int, gens ...int) []int {
	var p []int
	for bin := 0; bin < 40+walBins; bin++ {
		if bin == 40 || bin == 40+walBins/2 && walBins >= 2 {
			p = append(p, opCompact, 0)
		}
		p = append(p, opBin, wr(0, bin%2, bin%4|bin%5/4*4))
	}
	p = append(p, opLateSealed, wr(1, 1, 3))
	for _, sel := range gens {
		p = append(p, opReopen, ro(sel, 0, 0))
		for bin := 0; bin < 20; bin++ {
			p = append(p, opBin, wr(0, 1, bin%4))
		}
	}
	return p
}

// writeImage runs imageProg on a fresh directory of the given shard
// count and returns its runner, the store closed.
func writeImage(t *testing.T, shards, walBins int, gens ...int) *progRunner {
	r := newProgRunner(t, progConfig{span: diffSpan, shards: shards, keys: fleetKeys(48)}, nil)
	r.run(progOps(imageProg(walBins, gens...)...))
	r.finish()
	return r
}

// rewriteFile applies edit to the bytes of the file at path.
func rewriteFile(t *testing.T, path string, edit func(raw []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryMatchesSerialOracle reopens, at several shard counts and on
// one replay worker and on several, the directories the recovery
// scenarios leave — built by store programs, checked against the store
// reference model as every reopen is. The model is the serial oracle: it
// replays the records each generation holds, up to its first bad one,
// one at a time over the installed snapshot, and RecoveryStats must
// count them.
func TestRecoveryMatchesSerialOracle(t *testing.T) {
	cfg := progConfig{span: diffSpan, shards: 4, keys: fleetKeys(12)}
	// grow writes n bins of every key, by Append and AppendBatch in turn,
	// in orders that change from bin to bin.
	grow := func(n int) []int {
		var p []int
		for b := 0; b < n; b++ {
			p = append(p, opBin, wr(0, b%2, b%4))
		}
		return p
	}
	late := []int{opLateSealed, wr(1, 1, 3), opLateTail, wr(2, 1, 1), opLateLine, wr(3, 0, 0), opBin, wr(0, 1, 4)}
	cat := func(parts ...[]int) []int { return slices.Concat(parts...) }
	image := cat(grow(40), []int{opCompact, 0}, grow(25), late)
	// held drops every series but key 0's whole and holds the prune's
	// compaction, so that the bins after it share its generation; a
	// compact op lets the compaction run. crashAt is how many disk ops its
	// program's last store has made when the program ends.
	held := cat([]int{opReopen, 0}, grow(10), []int{opAppend, wr(0, 0, 30), opPruneChunks, wr(0, 0, 12)}, grow(3))
	crashAt := func(t *testing.T, prog []int) int {
		r := newProgRunner(t, cfg, nil)
		r.run(progOps(prog...))
		defer r.finish()
		return int(r.ffs.Ops())
	}
	scenarios := []struct {
		name    string
		writer  int   // shards of the writing store
		shards  []int // reopen with each of these
		program func(t *testing.T) []int
		keys    []topo.KPIKey // cfg's when nil
	}{
		{"written with 16 shards", 16, []int{16, 4, 1}, func(*testing.T) []int { return image }, nil},
		{"written with 4 shards", 4, []int{16}, func(*testing.T) []int { return image }, nil},
		{
			// The prune's compaction installs its snapshot and dies deleting
			// the generation below: its records, some before the new epoch,
			// replay under the newer generations' rewrites of its bins.
			"rotated and live logs overlap", 4, []int{4, 1},
			func(t *testing.T) []int {
				crash := crashAt(t, cat(held, []int{opCompact, 0})) // the compaction's last op: a removal
				return cat([]int{opReopen, ro(0, 0, crash)}, held[2:], []int{opCompact, 0}, late, grow(2), late)
			},
			nil,
		},
		{
			"torn tail and garbage length", 4, []int{4},
			func(*testing.T) []int {
				return cat(image, []int{opReopen, ro(0, 0, 0)}, grow(10), []int{opDamage, 8<<8 | 32<<2 | 1, opDamage, 6<<8 | 40<<2})
			},
			nil,
		},
		{
			// The CRC holds but the last entry of a group does not decode:
			// the entries before it apply, then that shard's records end;
			// the other shards replay on.
			"undecodable body inside a group", 4, []int{4},
			func(*testing.T) []int { return cat(image, []int{opDamage, 9<<8 | 40<<2}) },
			nil,
		},
		{"one rotten snapshot chunk", 4, []int{4}, func(*testing.T) []int { return cat(image, []int{opCompact, 0, opDamage, 10 << 8}) }, nil},
		{
			// No snapshot: the epoch comes from the first generation with a
			// header, not the oldest, whose open died at its header write,
			// nor one in between that died the same way.
			"no snapshot", 4, []int{4, 16},
			func(*testing.T) []int {
				return cat([]int{opReopen, ro(0, 0, 7)}, grow(20), []int{opReopen, ro(0, 0, 7)}, grow(5), late)
			},
			nil,
		},
		{
			// Three generations, each rewriting bins of the one below.
			"three generations without a compaction", 16, []int{16, 4},
			func(*testing.T) []int {
				return cat(image, []int{opReopen, ro(1, 0, 0)}, late, grow(4), []int{opReopen, ro(1, 0, 0)}, late, grow(4))
			},
			nil,
		},
		{
			// Each generation replays by the shard bytes of the layout that
			// wrote it, whatever layout reads it.
			"shard count 16 to 4 to 16 across generations", 16, []int{16, 4, 1},
			func(*testing.T) []int {
				return cat(grow(20), []int{opReopen, ro(0, 0, 0)}, grow(10), late, []int{opReopen, ro(1, 0, 0)}, grow(10))
			},
			nil,
		},
		{
			// A prune drops series whole and later bins re-create them in the
			// same generation, defining their keys twice; the prune's
			// compaction dies at its first op, so the generation stays.
			"prune and re-create within one generation", 4, []int{4, 16},
			func(t *testing.T) []int {
				crash := crashAt(t, held) + 1 // the compaction's first op
				return cat([]int{opReopen, ro(0, 0, crash)}, held[2:], []int{opCompact, 0})
			},
			nil,
		},
		{
			// Consecutive group records of a shard carry its keys in
			// different orders, by AppendBatch and by frames.
			"key order changes from record to record", 4, []int{4, 16},
			func(*testing.T) []int {
				var p []int
				for b := 0; b < 12; b++ {
					p = append(p, opBin, wr(0, 1+b%3, b%4))
				}
				return p
			},
			nil,
		},
		{
			// A bad record ends its own generation and nothing else: every
			// younger one still replays.
			"torn tail in a generation that is not the newest", 4, []int{4},
			func(*testing.T) []int {
				return cat(image, []int{opReopen, ro(0, 0, 0)}, grow(5), []int{opReopen, ro(0, 0, 0)}, grow(5),
					[]int{opDamage, 6<<8 | 32<<2 | 2, opDamage, 8<<8 | 32<<2 | 1})
			},
			nil,
		},
		{
			// A snapshot and two generations, written at 2 shards and at 16,
			// rewrite the same bins. At four workers a key's records go to
			// worker h mod 2 in the first generation and h mod 4 in the
			// second, and every key here has h mod 4 of 2 or 3, so lives in
			// a shard whose owner is not the first's worker. Only the wait
			// for the snapshot's installs keeps the first generation's writes
			// from landing under its series, and only the barrier between
			// the generations keeps them from landing after the second's.
			name: "generations at two shard counts rewrite the same bins", writer: 2, shards: []int{16, 4},
			keys: keysWhere(64, func(h int) bool { return h%4 >= 2 }),
			program: func(*testing.T) []int {
				rewrite := func(p []int) []int {
					for k := range 8 {
						p = append(p, opLateSealed, wr(k, k%2, 37*k), opLateTail, wr(k, 1, k), opLateLine, wr(k, 0, k))
					}
					return p
				}
				p := rewrite(cat(grow(150), []int{opCompact, 0}, grow(20)))
				return rewrite(append(p, opReopen, ro(1, 0, 0))) // 16 shards
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := cfg
			cfg.shards = sc.writer
			if sc.keys != nil {
				cfg.keys = sc.keys
			}
			image := newProgRunner(t, cfg, nil)
			image.run(progOps(sc.program(t)...))
			before := image.close()
			for _, procs := range []int{4, 3, 1} {
				for _, shards := range sc.shards {
					t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						r := image.fork(t)
						r.openRetry(shards, diffSpan, 0, before)
						r.finish()
					})
				}
			}
		})
	}
}

// keysWhere returns the first n fleet keys whose FNV-1a hash, reduced
// mod 16 as a 16-shard store stripes it, satisfies keep.
func keysWhere(n int, keep func(h int) bool) []topo.KPIKey {
	var keys []topo.KPIKey
	for _, k := range fleetKeys(16 * n) {
		if len(keys) < n && keep(shardOf(16, byte(k.Scope), k.Entity, k.Metric)) {
			keys = append(keys, k)
		}
	}
	return keys
}

// readFailFS fails the reads of one file once they pass a byte count.
type readFailFS struct {
	faultfs.FS
	path  string
	after int
}

type readFailFile struct {
	faultfs.File
	left int
}

func (fs readFailFS) Open(name string) (faultfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || filepath.Base(name) != filepath.Base(fs.path) {
		return f, err
	}
	return &readFailFile{File: f, left: fs.after}, nil
}

func (f *readFailFile) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, fmt.Errorf("read failed: %w", faultfs.ErrInjected)
	}
	n, err := f.File.Read(p[:min(len(p), f.left)])
	f.left -= n
	return n, err
}

// TestRecoveryErrorJoinsWorkers breaks a recovery two ways. First the
// second and third of three generations — a read that fails with the
// second's workers busy, a header the third's reader refuses: the open
// must fail with the second's error (the first in generation order).
// Then a segment whose framing breaks in its second block, after the
// first block's groups went to the workers: Fsck's eager pass must fail
// with the framing error, and an open, which reads the segment's header
// only, quarantines the chunks past the cut. Either way no worker may
// outlive the open, and no file may stay open.
func TestRecoveryErrorJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	image := writeImage(t, 8, 30, 0, 0).dir // written with 8 shards, reopened with 4 twice
	second := genLog(t, image, 1)
	rewriteFile(t, genLog(t, image, 0), func(raw []byte) []byte {
		binary.BigEndian.PutUint16(raw[4:6], 99)
		return raw
	})
	opts := persistOptsNoBG(8)
	opts.ChunkSpan = diffSpan
	failRead := readFailFS{FS: faultfs.OS, path: second, after: 4 << 10}
	before := runtime.NumGoroutine()
	cfs := &countingFS{FS: failRead}
	opts.FS = cfs
	st, err := OpenPersistent(copyImage(t, image), time.Time{}, 0, opts)
	if err == nil {
		st.Close()
		t.Fatal("OpenPersistent replayed past a failed read")
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("error %q, want the read failure in %s", err, filepath.Base(second))
	}
	if n := cfs.open.Load(); n != 0 {
		t.Fatalf("failed open (%v): %d files left open", err, n)
	}
	rep, err := Fsck(copyImage(t, image), failRead, false)
	if err != nil || len(rep.WALs) != 3 || rep.WALs[0].ReadError != nil || !errors.Is(rep.WALs[1].ReadError, faultfs.ErrInjected) || rep.WALs[2].ReadError == nil {
		t.Fatalf("fsck: %+v (%v), want the first generation readable and the other two not", rep.WALs, err)
	}

	// A snapshot of several reader blocks, cut short inside the second.
	dir := t.TempDir()
	st, err = OpenPersistent(dir, t0, time.Minute, persistOptsNoBG(8))
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(400)
	rng := rand.New(rand.NewPCG(1, 2))
	batch := make([]Measurement, len(keys))
	for bin := range 1600 { // three sealed chunks a series

		for i, k := range keys {
			batch[i] = Measurement{k, t0.Add(time.Duration(bin) * time.Minute), rng.NormFloat64()}
		}
		st.AppendBatch(batch)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteFile(t, filepath.Join(dir, segmentName(1)), func(raw []byte) []byte {
		if len(raw) < 2*replayBlock {
			t.Fatalf("the segment is %d bytes, want more than two blocks of %d", len(raw), replayBlock)
		}
		return raw[:3*replayBlock/2]
	})
	cfs = &countingFS{FS: faultfs.OS}
	if _, err := Fsck(dir, cfs, false); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("fsck: error %v, want the segment's framing cut short", err)
	}
	if n := cfs.open.Load(); n != 0 {
		t.Fatalf("failed fsck: %d files left open", n)
	}
	// An open reads the segment's header only: the chunks the head's
	// index places past the cut are quarantined there, and the store
	// closes every file it opened.
	cfs = &countingFS{FS: faultfs.OS}
	st, err = OpenPersistent(dir, time.Time{}, 0, PersistOptions{Shards: 8, SyncInterval: -1, CompactBytes: -1, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	if q := st.Recovered().QuarantinedChunks; q == 0 || q >= len(keys)*3 {
		t.Fatalf("%d chunks quarantined at open, want those past the cut", q)
	}
	st.Close()
	if n := cfs.open.Load(); n != 0 {
		t.Fatalf("closed store: %d files left open", n)
	}

	// Joined workers have returned from their function; give the
	// scheduler a moment to retire them before calling it a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the failed opens, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
