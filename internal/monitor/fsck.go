package monitor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/faultfs"
)

// FsckWAL is the health of one log generation as seen by Fsck.
type FsckWAL struct {
	Path     string
	Version  uint16 // the log format its header names; 0 when no header was read
	Records  int    // group-decoded measurements replayed
	TornTail bool   // replay dropped records: see OpenPersistent's RecoveryStats.TornTails
	// TornAt is the file offset of the record that failed its length or
	// CRC check and ended the replay, Unread the bytes from there to the
	// end of the file, none of which were replayed; both 0 when no record
	// did (TornTail is then a shard ended by an undecodable entry).
	TornAt, Unread int64
	ReadError      error // header damage or a failed read: the store it left is partial
}

// FsckReport is the result of walking a persistence directory.
type FsckReport struct {
	SnapshotPresent   bool // a head file is installed
	SnapshotSeries    int  // series the head holds
	Series            int  // series after WAL replay
	Chunks            int  // sealed chunks across all series
	QuarantinedChunks int  // chunks failing their CRC or token walk (or tombstoned earlier)
	IndexMismatches   int  // chunks the head's index places elsewhere than their newest copy in the segments
	WALs              []FsckWAL
	WALRecords        int
	TornTails         int
	Repaired          bool
	DroppedChunks     int // quarantined chunks rewritten as explicit NaN gaps
	// ChunkReads and ChunkReadBytes are the reads of chunks at the
	// offsets the head's index records, and their bytes (see
	// monitor.chunk_reads).
	ChunkReads, ChunkReadBytes int64
}

// Healthy reports whether the directory recovers with no data loss
// beyond what a clean crash allows: no quarantined chunks, a head whose
// index agrees with the segments, no torn log tails, no unreadable logs.
func (r FsckReport) Healthy() bool {
	if r.QuarantinedChunks > 0 || r.IndexMismatches > 0 || r.TornTails > 0 {
		return false
	}
	for _, w := range r.WALs {
		if w.ReadError != nil {
			return false
		}
	}
	return true
}

// Fsck verifies a persistence directory offline: it runs OpenPersistent's
// recovery pass (recoverDir) eagerly — the head, then every live
// segment's framing and every chunk's newest copy in them, which a
// version 3 head's index must name (a version 2 head's chunks are read
// from them and CRC-checked), then every log generation up to its first
// bad record, whose offset and the bytes left unread behind it it
// reports — and then reads, CRC-checks and token-walks every sealed
// chunk, which an open leaves to the chunk's first decode, instead of
// mutating anything. No store process may be using dir.
//
// With repair set and damage found, the recovered state is
// consolidated back to disk: quarantined chunks are rewritten as
// explicit NaN gaps (the data is gone either way — this makes the loss
// a plain gap instead of a quarantine flag), a base segment and a head
// listing it alone are installed atomically, and the now-consolidated
// logs and every other segment are removed. The directory then reopens
// with zero quarantines; the missing bins keep surfacing through gap
// accounting as Inconclusive, never as invented values.
//
// A head or segment whose framing is damaged (bad magic, truncated
// stream, a head checksum that fails) is beyond repair and returns an
// error, and so does a log of a version this build does not read:
// repair leaves the directory as it found it.
func Fsck(dir string, fsys faultfs.FS, repair bool) (FsckReport, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	var rep FsckReport

	rc, err := recoverDir(fsys, dir, StoreShards, 0, true)
	if err != nil {
		return rep, err
	}
	defer rc.closeSegments()
	store := rc.store
	rep.SnapshotPresent = rc.headBytes > 0
	rep.SnapshotSeries = rc.stats.SnapshotSeries
	rep.QuarantinedChunks = rc.stats.QuarantinedChunks
	rep.IndexMismatches = rc.mismatches
	for _, r := range rc.gens {
		rep.WALs = append(rep.WALs, FsckWAL{
			Path:      r.path,
			Version:   r.version,
			Records:   r.stats.WALRecords,
			TornTail:  r.stats.TornTails > 0,
			TornAt:    r.tornAt,
			Unread:    r.unread,
			ReadError: r.err,
		})
	}
	rep.WALRecords = rc.stats.WALRecords
	rep.TornTails = rc.stats.TornTails

	if store == nil {
		return rep, nil // empty directory: nothing to verify
	}
	rep.Series = store.Len()
	for i := range store.shards {
		for _, e := range store.shards[i].series {
			rep.Chunks += len(e.chunks)
			for _, c := range e.chunks {
				// The eager pass reads every chunk: none is left to a ReadAt.
				failed, err := c.Check()
				if err != nil {
					return rep, fmt.Errorf("monitor: fsck: %w", err)
				}
				if failed {
					rep.QuarantinedChunks++
				}
			}
		}
	}
	rep.ChunkReads, rep.ChunkReadBytes = store.chunkReads.Load(), store.chunkReadBytes.Load()

	if !repair || rep.Healthy() {
		return rep, nil
	}
	for _, w := range rep.WALs {
		if errors.Is(w.ReadError, errWALVersion) {
			// The base segment would lack the refused log's records, and the
			// repair would then remove the log.
			return rep, fmt.Errorf("monitor: fsck: not repairing: %w", w.ReadError)
		}
	}

	// Repair: drop quarantines by making the loss explicit, then
	// consolidate everything into one base segment.
	gap := make([]float64, store.span)
	for i := range gap {
		gap[i] = math.NaN()
	}
	for i := range store.shards {
		for _, e := range store.shards[i].series {
			for ci, c := range e.chunks {
				if c.Quarantined() {
					// Copy-on-write, as setBinLocked does: a published chunks
					// slice is never written in place.
					chunks := make([]*chunk.Chunk, len(e.chunks))
					copy(chunks, e.chunks)
					chunks[ci] = chunk.Encode(gap)
					e.chunks = chunks
					rep.DroppedChunks++
				}
			}
		}
	}
	store.quarantined.Store(0)

	var c snapshotCut
	c.take(store)
	seq := rc.maxSeq + 1
	live := []segmentRef{{seq: seq, level: baseLevel}}
	if _, err := writeSegmentFile(fsys, dir, seq, &c, pickAll); err != nil {
		return rep, err
	}
	if _, err := commitHead(fsys, dir, &c, live); err != nil {
		return rep, err
	}
	// The head now covers every log's contents and every other segment;
	// damaged or not, they are dead weight.
	if err := removeStale(fsys, dir, live, math.MaxUint64); err != nil {
		return rep, err
	}
	rep.Repaired = true
	return rep, nil
}
