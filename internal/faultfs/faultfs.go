// Package faultfs abstracts the filesystem operations the persistent
// KPI store performs — create, open, write, sync, rename, remove,
// readdir — behind a small interface with two implementations: the
// real OS (the production default, a set of direct forwarding calls
// with no added work on the I/O path) and a deterministic, seedable
// fault injector that delivers the disk failures a production service
// eventually meets: short writes, transient write and sync errors,
// out-of-space episodes that later clear, read-side bit corruption,
// and whole-process crash schedules that tear the operation they land
// on and fail everything after it. It is the storage twin of
// internal/faultnet: test infrastructure for proving the WAL and
// snapshot machinery self-heals, with no dependencies beyond the
// standard library.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// File is the slice of *os.File the persister uses: sequential reads
// for recovery, reads at an offset for the sealed chunks an open leaves
// on disk, writes and fsyncs for the logs and snapshots.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file (or directory) to stable storage.
	Sync() error
}

// FS is the filesystem surface the persister talks to. Paths follow
// the usual os package conventions.
type FS interface {
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// Open opens a file (or directory, for directory fsyncs) for
	// reading, sequentially or at an offset.
	Open(name string) (File, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OS is the production filesystem: every call forwards to the os
// package.
var OS FS = osFS{}

// osFS implements FS on the real filesystem.
type osFS struct{}

// Create forwards to os.Create.
func (osFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open forwards to os.Open.
func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename forwards to os.Rename.
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove forwards to os.Remove.
func (osFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll forwards to os.MkdirAll.
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir forwards to os.ReadDir.
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// ErrInjected marks a transient injected I/O failure — the disk
// hiccuped but may work again. Storage layers should classify it like
// EINTR: retry-able, not fail-stop.
var ErrInjected = errors.New("faultfs: injected transient I/O error")

// ErrCrashed marks the crash horizon of a crash-at-operation schedule:
// the process conceptually died here, so the operation (and every
// mutating operation after it) has no effect. Permanent by definition.
var ErrCrashed = errors.New("faultfs: crashed")

// ErrNoSpace is the injected out-of-space failure; errors.Is(err,
// syscall.ENOSPC) holds, matching what the os package surfaces for a
// genuinely full disk.
var ErrNoSpace = fmt.Errorf("faultfs: injected disk full: %w", syscall.ENOSPC)

// Plan describes which faults to inject. The zero value injects
// nothing (a transparent wrapper). All probabilistic decisions draw
// from one seeded stream, so a fixed Plan over a deterministic
// workload yields a reproducible fault schedule.
//
// Mutating operations — Create, Write, Sync, Rename, Remove,
// MkdirAll — advance a shared operation counter that the ENOSPC
// window and the crash schedule index into; reads and opens do not
// (crashing a read makes no sense — the process is what dies).
type Plan struct {
	// Seed makes every probabilistic decision deterministic; 0 means 1.
	Seed int64
	// WriteErrProb is the per-Write probability of a transient error
	// with no bytes applied.
	WriteErrProb float64
	// ShortWriteProb is the per-Write probability of a short write:
	// a random strict prefix reaches the file and an error is
	// returned, like a write interrupted by a signal or a quota edge.
	ShortWriteProb float64
	// SyncErrProb is the per-Sync probability of a transient error;
	// the data's durability is then unknown, exactly like a failed
	// fsync in production.
	SyncErrProb float64
	// CorruptReadProb is the per-Read probability of flipping one bit
	// of the returned buffer — a latent media error surfacing on the
	// read path. The file itself is untouched.
	CorruptReadProb float64
	// ENOSPCStart/ENOSPCEnd bound an out-of-space episode: mutating
	// operations with 1-based index in [ENOSPCStart, ENOSPCEnd) fail
	// with ErrNoSpace, then the episode clears (a log rotation or
	// operator intervention freed space). Zero start disables;
	// ENOSPCEnd 0 with a non-zero start means the episode never
	// clears by itself (use SetENOSPC to clear it manually).
	ENOSPCStart, ENOSPCEnd int64
	// CrashAtOp tears the mutating operation with that 1-based index —
	// a Write applies only a seeded prefix, anything else has no
	// effect — and fails it and every later mutating operation with
	// ErrCrashed. 0 disables. Sweeping CrashAtOp over every index of
	// a workload proves recovery from a kill at any point.
	CrashAtOp int64
}

// Stats counts the faults an injector actually delivered.
type Stats struct {
	// Ops is the number of mutating operations attempted (the
	// counter CrashAtOp and the ENOSPC window index into).
	Ops int64
	// WriteErrs, ShortWrites, SyncErrs, CorruptReads, NoSpaceErrs and
	// CrashedOps count delivered faults by kind.
	WriteErrs, ShortWrites, SyncErrs, CorruptReads, NoSpaceErrs, CrashedOps int64
}

// FaultFS wraps an inner FS with the faults of a Plan. One FaultFS
// may back many files. The operation counter is a bare atomic so a
// plan with no probabilistic faults adds only one uncontended add to
// the I/O path; the seeded rng is serialized under a mutex, so a
// fixed Plan over a deterministic (serialized) workload yields a
// reproducible fault schedule.
type FaultFS struct {
	inner FS
	plan  Plan
	ops   atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand

	// enospc forces an out-of-space episode on/off regardless of the
	// plan window, for tests that steer the episode by hand.
	enospc atomic.Bool

	writeErrs, shortWrites, syncErrs, corruptReads, noSpaceErrs, crashedOps atomic.Int64
}

// New wraps inner (nil means the real OS) with the plan's faults.
func New(plan Plan, inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultFS{inner: inner, plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// Stats snapshots the delivered-fault counters.
func (f *FaultFS) Stats() Stats {
	return Stats{
		Ops:          f.ops.Load(),
		WriteErrs:    f.writeErrs.Load(),
		ShortWrites:  f.shortWrites.Load(),
		SyncErrs:     f.syncErrs.Load(),
		CorruptReads: f.corruptReads.Load(),
		NoSpaceErrs:  f.noSpaceErrs.Load(),
		CrashedOps:   f.crashedOps.Load(),
	}
}

// Ops returns the number of mutating operations attempted so far. A
// crash-schedule sweep first runs the workload fault-free to learn the
// total, then crashes at every index up to it.
func (f *FaultFS) Ops() int64 { return f.ops.Load() }

// SetENOSPC forces the out-of-space episode on or off, overriding the
// plan window — the manual lever for tests that drive an episode
// around specific workload phases.
func (f *FaultFS) SetENOSPC(on bool) { f.enospc.Store(on) }

// opFault draws the fault decision for the next mutating operation.
// prefix is meaningful only for writes (the short-write/torn length
// within [0, n)).
type opFault struct {
	err    error
	prefix int
}

// nextOp advances the mutating-operation counter and decides this
// operation's fate. isWrite enables the write-specific faults; n is
// the write length. The counter bump and the window checks are
// lock-free; the rng mutex is only taken when a probabilistic fault
// is actually configured, so a zero-fault plan never serializes
// concurrent writers.
func (f *FaultFS) nextOp(isWrite bool, n int) opFault {
	op := f.ops.Add(1)
	if c := f.plan.CrashAtOp; c > 0 && op >= c {
		f.crashedOps.Add(1)
		if isWrite && op == c && n > 0 {
			// The operation the crash lands on is torn: a seeded prefix
			// reached the disk before the process died.
			f.mu.Lock()
			prefix := f.rng.Intn(n)
			f.mu.Unlock()
			return opFault{err: ErrCrashed, prefix: prefix}
		}
		return opFault{err: ErrCrashed}
	}
	if f.enospc.Load() || (f.plan.ENOSPCStart > 0 && op >= f.plan.ENOSPCStart &&
		(f.plan.ENOSPCEnd <= 0 || op < f.plan.ENOSPCEnd)) {
		f.noSpaceErrs.Add(1)
		return opFault{err: ErrNoSpace}
	}
	if isWrite {
		if f.plan.WriteErrProb > 0 || f.plan.ShortWriteProb > 0 {
			f.mu.Lock()
			defer f.mu.Unlock()
			if p := f.plan.WriteErrProb; p > 0 && f.rng.Float64() < p {
				f.writeErrs.Add(1)
				return opFault{err: ErrInjected}
			}
			if p := f.plan.ShortWriteProb; p > 0 && n > 0 && f.rng.Float64() < p {
				f.shortWrites.Add(1)
				return opFault{err: ErrInjected, prefix: f.rng.Intn(n)}
			}
		}
	} else if p := f.plan.SyncErrProb; p > 0 {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.rng.Float64() < p {
			f.syncErrs.Add(1)
			return opFault{err: ErrInjected}
		}
	}
	return opFault{}
}

// corruptRead decides whether (and where) to flip a bit of an n-byte
// read result.
func (f *FaultFS) corruptRead(n int) (int, bool) {
	if f.plan.CorruptReadProb <= 0 || n == 0 {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng.Float64() >= f.plan.CorruptReadProb {
		return 0, false
	}
	f.corruptReads.Add(1)
	return f.rng.Intn(n * 8), true
}

// Create counts a mutating operation and forwards on success.
func (f *FaultFS) Create(name string) (File, error) {
	if ft := f.nextOp(false, 0); ft.err != nil {
		return nil, &fs.PathError{Op: "create", Path: name, Err: ft.err}
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Open forwards, wrapping the file so its reads can corrupt.
func (f *FaultFS) Open(name string) (File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Rename counts a mutating operation and forwards on success.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if ft := f.nextOp(false, 0); ft.err != nil {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: ft.err}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove counts a mutating operation and forwards on success.
func (f *FaultFS) Remove(name string) error {
	if ft := f.nextOp(false, 0); ft.err != nil {
		return &fs.PathError{Op: "remove", Path: name, Err: ft.err}
	}
	return f.inner.Remove(name)
}

// MkdirAll counts a mutating operation and forwards on success.
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if ft := f.nextOp(false, 0); ft.err != nil {
		return &fs.PathError{Op: "mkdir", Path: path, Err: ft.err}
	}
	return f.inner.MkdirAll(path, perm)
}

// ReadDir forwards (listing is not a mutating operation).
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

// faultFile applies the injector's write, sync and read faults to one
// open file.
type faultFile struct {
	fs    *FaultFS
	inner File
}

// Write applies the fault decision: pass through, fail with nothing
// applied, or tear — write a seeded prefix and fail.
func (f *faultFile) Write(p []byte) (int, error) {
	ft := f.fs.nextOp(true, len(p))
	if ft.err == nil {
		return f.inner.Write(p)
	}
	if ft.prefix > 0 {
		// A torn write: the prefix reached the disk before the fault.
		n, err := f.inner.Write(p[:ft.prefix])
		if err != nil {
			return n, err
		}
		return n, ft.err
	}
	return 0, ft.err
}

// Read forwards, then possibly flips one bit of the result — a latent
// media error surfacing on the read path.
func (f *faultFile) Read(p []byte) (int, error) {
	n, err := f.inner.Read(p)
	if n > 0 {
		if bit, ok := f.fs.corruptRead(n); ok {
			p[bit/8] ^= 1 << (bit % 8)
		}
	}
	return n, err
}

// ReadAt forwards, then possibly flips one bit of the result, as Read
// does.
func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.inner.ReadAt(p, off)
	if n > 0 {
		if bit, ok := f.fs.corruptRead(n); ok {
			p[bit/8] ^= 1 << (bit % 8)
		}
	}
	return n, err
}

// Sync counts a mutating operation and forwards on success.
func (f *faultFile) Sync() error {
	if ft := f.fs.nextOp(false, 0); ft.err != nil {
		return ft.err
	}
	return f.inner.Sync()
}

// Close forwards; closing is not failed — a dying process cannot keep
// a file open, and the interesting damage is in the unflushed writes.
func (f *faultFile) Close() error { return f.inner.Close() }
