package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// runWorkload drives a fixed file workload through fs and returns the
// error sequence it observed, for determinism comparisons.
func runWorkload(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	var errs []string
	note := func(op string, err error) {
		if err != nil {
			errs = append(errs, op)
		}
	}
	for i := 0; i < 4; i++ {
		name := filepath.Join(dir, "f"+string(rune('0'+i)))
		f, err := fsys.Create(name)
		note("create", err)
		if err != nil {
			continue
		}
		for j := 0; j < 8; j++ {
			_, err := f.Write(bytes.Repeat([]byte{byte(j)}, 64))
			note("write", err)
		}
		note("sync", f.Sync())
		f.Close()
	}
	return errs
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a")
	f, err := OS.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(name, filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	g, err := OS.Open(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(g)
	g.Close()
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir: %v entries, err %v", len(ents), err)
	}
	if err := OS.Remove(filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := OS.MkdirAll(filepath.Join(dir, "x", "y"), 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestZeroPlanIsTransparent(t *testing.T) {
	dir := t.TempDir()
	ff := New(Plan{}, nil)
	errs := runWorkload(t, ff, dir)
	if len(errs) != 0 {
		t.Fatalf("zero plan injected faults: %v", errs)
	}
	st := ff.Stats()
	if st.Ops == 0 {
		t.Fatal("ops not counted")
	}
	if st.WriteErrs+st.ShortWrites+st.SyncErrs+st.NoSpaceErrs+st.CrashedOps+st.CorruptReads != 0 {
		t.Fatalf("zero plan delivered faults: %+v", st)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	plan := Plan{Seed: 42, WriteErrProb: 0.2, ShortWriteProb: 0.2, SyncErrProb: 0.5}
	a := runWorkload(t, New(plan, nil), t.TempDir())
	b := runWorkload(t, New(plan, nil), t.TempDir())
	if len(a) == 0 {
		t.Fatal("expected some injected faults")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules differ: %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	c := runWorkload(t, New(Plan{Seed: 43, WriteErrProb: 0.2, ShortWriteProb: 0.2, SyncErrProb: 0.5}, nil), t.TempDir())
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

func TestShortWriteAppliesPrefix(t *testing.T) {
	// With ShortWriteProb 1 every write is torn: some strict prefix
	// lands, the rest doesn't, and the caller sees ErrInjected.
	dir := t.TempDir()
	ff := New(Plan{Seed: 7, ShortWriteProb: 1}, nil)
	f, err := ff.Create(filepath.Join(dir, "t")) // Create is op 1, no write faults apply
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 128)
	n, err := f.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n < 0 || n >= len(payload) {
		t.Fatalf("short write applied %d of %d bytes", n, len(payload))
	}
	f.Close()
	got, err := os.ReadFile(filepath.Join(dir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || !bytes.Equal(got, payload[:n]) {
		t.Fatalf("on-disk bytes (%d) don't match reported prefix (%d)", len(got), n)
	}
	if ff.Stats().ShortWrites == 0 {
		t.Fatal("short write not counted")
	}
}

func TestENOSPCWindowClears(t *testing.T) {
	dir := t.TempDir()
	// Ops 3..5 fail with ENOSPC, then the episode clears.
	ff := New(Plan{Seed: 1, ENOSPCStart: 3, ENOSPCEnd: 6}, nil)
	f, err := ff.Create(filepath.Join(dir, "e")) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ok")); err != nil { // op 2
		t.Fatal(err)
	}
	for op := 3; op <= 5; op++ {
		_, err := f.Write([]byte("no"))
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("op %d: want ENOSPC, got %v", op, err)
		}
	}
	if _, err := f.Write([]byte("ok")); err != nil { // op 6: cleared
		t.Fatalf("episode did not clear: %v", err)
	}
	f.Close()
	if got := ff.Stats().NoSpaceErrs; got != 3 {
		t.Fatalf("NoSpaceErrs = %d, want 3", got)
	}
}

func TestSetENOSPCManualToggle(t *testing.T) {
	dir := t.TempDir()
	ff := New(Plan{Seed: 1}, nil)
	f, err := ff.Create(filepath.Join(dir, "m"))
	if err != nil {
		t.Fatal(err)
	}
	ff.SetENOSPC(true)
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("forced episode: want ENOSPC, got %v", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("forced episode sync: want ENOSPC, got %v", err)
	}
	ff.SetENOSPC(false)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("cleared episode: %v", err)
	}
	f.Close()
}

func TestCrashAtOpTearsAndLatches(t *testing.T) {
	dir := t.TempDir()
	// Crash on the 3rd mutating op (a write); op 2's bytes survive,
	// op 3 is torn, everything after is dead.
	ff := New(Plan{Seed: 11, CrashAtOp: 3}, nil)
	f, err := ff.Create(filepath.Join(dir, "c")) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{1}, 32)); err != nil { // op 2
		t.Fatal(err)
	}
	n, err := f.Write(bytes.Repeat([]byte{2}, 32)) // op 3: torn
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash op: want ErrCrashed, got %v", err)
	}
	if n >= 32 {
		t.Fatalf("crash op applied full write (%d bytes)", n)
	}
	if _, err := f.Write([]byte("dead")); !errors.Is(err, ErrCrashed) { // op 4
		t.Fatalf("post-crash write: want ErrCrashed, got %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // op 5
		t.Fatalf("post-crash sync: want ErrCrashed, got %v", err)
	}
	f.Close()
	if _, err := ff.Create(filepath.Join(dir, "c2")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create: want ErrCrashed, got %v", err)
	}
	if err := ff.Rename(filepath.Join(dir, "c"), filepath.Join(dir, "r")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename: want ErrCrashed, got %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32+n {
		t.Fatalf("on-disk %d bytes, want %d (full op 2 + torn prefix)", len(got), 32+n)
	}
	st := ff.Stats()
	if st.CrashedOps < 4 {
		t.Fatalf("CrashedOps = %d, want >= 4", st.CrashedOps)
	}
}

func TestCorruptReadFlipsOneBit(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "r")
	want := bytes.Repeat([]byte{0x5A}, 256)
	if err := os.WriteFile(name, want, 0o644); err != nil {
		t.Fatal(err)
	}
	ff := New(Plan{Seed: 5, CorruptReadProb: 1}, nil)
	f, err := ff.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		t.Fatal("read corruption not applied")
	}
	diff := 0
	for i := range got {
		diff += popcount8(got[i] ^ want[i])
	}
	// io.ReadAll issues several Reads; each flips at most one bit.
	if diff == 0 || int64(diff) != ff.Stats().CorruptReads {
		t.Fatalf("flipped %d bits, stats say %d", diff, ff.Stats().CorruptReads)
	}
	// The file on disk is untouched.
	onDisk, err := os.ReadFile(name)
	if err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("underlying file mutated: %v", err)
	}
}

// TestCorruptReadAtFlipsOneBit: a read at an offset meets the same
// read faults as a sequential one, and a zero plan passes it through.
func TestCorruptReadAtFlipsOneBit(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "r")
	want := bytes.Repeat([]byte{0x5A}, 256)
	if err := os.WriteFile(name, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, prob := range []float64{0, 1} {
		ff := New(Plan{Seed: 5, CorruptReadProb: prob}, nil)
		f, err := ff.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 64)
		n, err := f.ReadAt(got, 100)
		f.Close()
		if err != nil || n != len(got) {
			t.Fatalf("ReadAt: %d bytes, %v", n, err)
		}
		diff := 0
		for i := range got {
			diff += popcount8(got[i] ^ want[100+i])
		}
		if wantDiff := int(prob); diff != wantDiff || ff.Stats().CorruptReads != int64(wantDiff) {
			t.Fatalf("CorruptReadProb %v: flipped %d bits, stats say %d", prob, diff, ff.Stats().CorruptReads)
		}
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestOpsCounterForSweeps(t *testing.T) {
	// The sweep recipe: run clean, learn N, then crash at every index
	// 1..N and observe the crash always fires.
	dir := t.TempDir()
	clean := New(Plan{Seed: 3}, nil)
	runWorkload(t, clean, dir)
	total := clean.Ops()
	if total == 0 {
		t.Fatal("no ops counted")
	}
	for at := int64(1); at <= total; at++ {
		ff := New(Plan{Seed: 3, CrashAtOp: at}, nil)
		runWorkload(t, ff, t.TempDir())
		if ff.Stats().CrashedOps == 0 {
			t.Fatalf("crash at op %d never fired", at)
		}
	}
}

func TestErrorClassification(t *testing.T) {
	if !errors.Is(ErrNoSpace, syscall.ENOSPC) {
		t.Fatal("ErrNoSpace must match syscall.ENOSPC")
	}
	if errors.Is(ErrInjected, ErrCrashed) || errors.Is(ErrCrashed, ErrInjected) {
		t.Fatal("transient and crash errors must be distinct")
	}
}
