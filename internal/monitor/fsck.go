package monitor

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/chunk"
	"repro/internal/faultfs"
)

// FsckWAL is the health of one log generation as seen by Fsck.
type FsckWAL struct {
	Path     string
	Records  int  // group-decoded measurements replayed
	TornTail bool // replay dropped records: see OpenPersistent's RecoveryStats.TornTails
	// TornAt is the file offset of the record that failed its length or
	// CRC check and ended the replay, Unread the bytes from there to the
	// end of the file, none of which were replayed; both 0 when no record
	// did (TornTail is then a shard ended by an undecodable body).
	TornAt, Unread int64
	ReadError      error // header damage or a failed read: the store it left is partial
}

// FsckReport is the result of walking a persistence directory.
type FsckReport struct {
	SnapshotPresent   bool
	SnapshotSeries    int
	Series            int // series after WAL replay
	Chunks            int // sealed chunks across all series
	QuarantinedChunks int // chunks failing their CRC (or tombstoned earlier)
	WALs              []FsckWAL
	WALRecords        int
	TornTails         int
	Repaired          bool
	DroppedChunks     int // quarantined chunks rewritten as explicit NaN gaps
}

// Healthy reports whether the directory recovers with no data loss
// beyond what a clean crash allows: no quarantined chunks, no torn log
// tails, no unreadable logs.
func (r FsckReport) Healthy() bool {
	if r.QuarantinedChunks > 0 || r.TornTails > 0 {
		return false
	}
	for _, w := range r.WALs {
		if w.ReadError != nil {
			return false
		}
	}
	return true
}

// Fsck verifies a persistence directory offline: it recovers the
// snapshot (checking every sealed chunk's CRC) and replays every log
// generation exactly as OpenPersistent does — each up to its first bad
// record, whose offset and the bytes left unread behind it it reports —
// instead of mutating anything. No store process may be using dir.
//
// With repair set and damage found, the recovered state is
// consolidated back to disk: quarantined chunks are rewritten as
// explicit NaN gaps (the data is gone either way — this makes the loss
// a plain gap instead of a quarantine flag), a clean snapshot is
// installed atomically, and the now-consolidated logs are removed. The
// directory then reopens with zero quarantines; the missing bins keep
// surfacing through gap accounting as Inconclusive, never as invented
// values.
//
// A snapshot whose framing is damaged (bad magic, truncated stream) is
// beyond repair and returns an error.
func Fsck(dir string, fsys faultfs.FS, repair bool) (FsckReport, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	var rep FsckReport

	var store *Store
	snapPath := filepath.Join(dir, snapshotFile)
	if f, err := fsys.Open(snapPath); err == nil {
		store, err = readSnapshotShards(f, StoreShards, &rep.QuarantinedChunks)
		f.Close()
		if err != nil {
			return rep, fmt.Errorf("monitor: fsck: snapshot unrecoverable: %w", err)
		}
		rep.SnapshotPresent = true
		rep.SnapshotSeries = store.Len()
	} else if !os.IsNotExist(err) {
		return rep, err
	}

	gens, err := listWALs(fsys, dir)
	if err != nil {
		return rep, err
	}
	if store == nil {
		// With no snapshot the oldest readable log header carries the
		// epoch, as in OpenPersistent.
		if hdrStart, hdrStep, ok := oldestWALHeader(fsys, gens); ok {
			store = NewStoreShards(hdrStart, hdrStep, StoreShards)
		}
	}
	for _, r := range replayGenerations(fsys, gens, store) {
		rep.WALs = append(rep.WALs, FsckWAL{
			Path:      r.path,
			Records:   r.stats.WALRecords,
			TornTail:  r.stats.TornTails > 0,
			TornAt:    r.tornAt,
			Unread:    r.unread,
			ReadError: r.err,
		})
		rep.WALRecords += r.stats.WALRecords
		rep.TornTails += r.stats.TornTails
	}

	if store == nil {
		return rep, nil // empty directory: nothing to verify
	}
	rep.Series = store.Len()
	for i := range store.shards {
		for _, e := range store.shards[i].series {
			rep.Chunks += len(e.chunks)
		}
	}

	if !repair || rep.Healthy() {
		return rep, nil
	}

	// Repair: drop quarantines by making the loss explicit, then
	// consolidate everything into one clean snapshot.
	gap := make([]float64, store.span)
	for i := range gap {
		gap[i] = math.NaN()
	}
	for i := range store.shards {
		for _, e := range store.shards[i].series {
			for ci, c := range e.chunks {
				if c.Quarantined() {
					e.chunks[ci] = chunk.Encode(gap)
					rep.DroppedChunks++
				}
			}
		}
	}
	store.quarantined.Store(0)

	tmpPath := filepath.Join(dir, snapshotTmpFile)
	tmp, err := fsys.Create(tmpPath)
	if err != nil {
		return rep, err
	}
	if err := store.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		fsys.Remove(tmpPath)
		return rep, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpPath)
		return rep, err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpPath)
		return rep, err
	}
	if err := fsys.Rename(tmpPath, snapPath); err != nil {
		fsys.Remove(tmpPath)
		return rep, err
	}
	if err := syncFSDir(fsys, dir); err != nil {
		return rep, err
	}
	// The snapshot now covers every log's contents; damaged or not,
	// they are dead weight.
	for _, w := range rep.WALs {
		if err := fsys.Remove(w.Path); err != nil {
			return rep, err
		}
	}
	rep.Repaired = true
	return rep, nil
}
