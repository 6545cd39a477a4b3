package monitor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultfs"
	"repro/internal/topo"
)

// The differential recovery test: OpenPersistent replays a log's
// records concurrently by shard, applies group records through a
// key→entry table and validates snapshot chunks off-thread; the oracle
// below is the recovery it replaced — one record after the other, one
// Store.Append per measurement, every chunk validated inline — kept
// here, and only here, as the reference. Both recover copies of the
// same directory image and must agree on every byte and every count.

// oracleRecover rebuilds the store dir holds without touching dir.
func oracleRecover(dir string, start time.Time, step time.Duration, opts PersistOptions) (*Store, RecoveryStats, error) {
	opts = opts.withDefaults()
	var stats RecoveryStats
	var store *Store
	if f, err := os.Open(filepath.Join(dir, snapshotFile)); err == nil {
		store, err = oracleReadSnapshot(f, opts.Shards, &stats.QuarantinedChunks)
		f.Close()
		if err != nil {
			return nil, stats, err
		}
		stats.SnapshotSeries = store.Len()
	} else if !os.IsNotExist(err) {
		return nil, stats, err
	}
	gens, err := listWALs(faultfs.OS, dir)
	if err != nil {
		return nil, stats, err
	}
	stats.Generations = len(gens)
	for _, g := range gens {
		if store, err = oracleReplayWAL(g.path, store, step, opts.Shards, opts.ChunkSpan, &stats); err != nil {
			return nil, stats, err
		}
	}
	if store == nil {
		store = NewStoreShards(start, step, opts.Shards)
		store.span = opts.ChunkSpan
	}
	if step > 0 && store.step != step {
		return nil, stats, fmt.Errorf("step mismatch")
	}
	store.quarantined.Add(int64(stats.QuarantinedChunks))
	return store, stats, nil
}

// oracleReplayWAL is the record-at-a-time replay: every decoded
// measurement goes through Store.Append on its own.
func oracleReplayWAL(path string, store *Store, step time.Duration, shards, span int, stats *RecoveryStats) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return store, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return store, nil
		}
		return store, err
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return store, fmt.Errorf("bad WAL magic in %s", path)
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != walVersion {
		return store, fmt.Errorf("unsupported WAL version %d in %s", v, path)
	}
	hdrStart := time.Unix(0, int64(binary.BigEndian.Uint64(hdr[6:14]))).UTC()
	hdrStep := time.Duration(binary.BigEndian.Uint64(hdr[14:22]))
	if hdrStep <= 0 {
		return store, fmt.Errorf("bad WAL step in %s", path)
	}
	if store == nil {
		if step > 0 && hdrStep != step {
			return store, fmt.Errorf("step mismatch")
		}
		store = NewStoreShards(hdrStart, hdrStep, shards)
		store.span = span
	}
	var lenBuf [4]byte
	ended := make(map[byte]bool) // shards an undecodable body has ended
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if err == io.EOF {
				return store, nil
			}
			if err == io.ErrUnexpectedEOF {
				stats.TornTails++
				return store, nil
			}
			return store, err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxWALRecord {
			stats.TornTails++
			return store, nil
		}
		payload := make([]byte, 1+int(n)+4) // shard byte, bodies, CRC
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				stats.TornTails++
				return store, nil
			}
			return store, err
		}
		body, crcBytes := payload[1:1+n], payload[1+n:]
		if crc32.ChecksumIEEE(payload[:1+n]) != binary.BigEndian.Uint32(crcBytes) {
			stats.TornTails++
			return store, nil
		}
		stats.LogBytes += int64(len(payload)) + 4
		for len(body) > 0 && !ended[payload[0]] {
			m, rest, err := decodeMeasurementBody(body, nil)
			if err != nil {
				// As when the shard had a log of its own: it ends here.
				stats.TornTails++
				ended[payload[0]] = true
				break
			}
			store.Append(m)
			stats.WALRecords++
			body = rest
		}
	}
}

// oracleReadSnapshot reads a version-3 snapshot on one goroutine,
// checking and validating each chunk where it is framed.
func oracleReadSnapshot(r io.Reader, shards int, quarantined *int) (*Store, error) {
	br := bufio.NewReader(r)
	var hdr [4 + 2 + 8 + 8 + 4 + 4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != snapshotMagic || binary.BigEndian.Uint16(hdr[4:6]) != snapshotVersion {
		return nil, fmt.Errorf("oracle reads version-%d snapshots only", snapshotVersion)
	}
	start := time.Unix(0, int64(binary.BigEndian.Uint64(hdr[6:14]))).UTC()
	step := time.Duration(binary.BigEndian.Uint64(hdr[14:22]))
	span := int(binary.BigEndian.Uint32(hdr[22:26]))
	count := binary.BigEndian.Uint32(hdr[26:30])
	if step <= 0 || span < 2 || span > maxSnapshotSpan {
		return nil, fmt.Errorf("bad snapshot header")
	}
	store := NewStoreShards(start, step, shards)
	store.span = span
	u32 := func() (uint32, error) {
		var b [4]byte
		_, err := io.ReadFull(br, b[:])
		return binary.BigEndian.Uint32(b[:]), err
	}
	for i := uint32(0); i < count; i++ {
		scope, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if s := topo.Scope(scope); s != topo.ScopeServer && s != topo.ScopeInstance && s != topo.ScopeService {
			return nil, fmt.Errorf("bad snapshot scope %d", scope)
		}
		entity, err := readSnapshotString(br)
		if err != nil {
			return nil, err
		}
		metric, err := readSnapshotString(br)
		if err != nil {
			return nil, err
		}
		head, err := u32()
		if err != nil {
			return nil, err
		}
		chunks, err := u32()
		if err != nil {
			return nil, err
		}
		if int(head) >= span || (head > 0 && chunks == 0) {
			return nil, fmt.Errorf("bad snapshot head %d", head)
		}
		e := &seriesEntry{head: int(head), arrivalNanos: 1}
		for c := uint32(0); c < chunks; c++ {
			encLen, err := u32()
			if err != nil {
				return nil, err
			}
			if encLen == snapshotTombstone {
				e.chunks = append(e.chunks, chunk.Tombstone(span))
				*quarantined++
				continue
			}
			if int(encLen) > 10*span {
				return nil, fmt.Errorf("snapshot chunk of %d bytes exceeds span %d", encLen, span)
			}
			wantCRC, err := u32()
			if err != nil {
				return nil, err
			}
			data := make([]byte, encLen)
			if _, err := io.ReadFull(br, data); err != nil {
				return nil, err
			}
			ck, err := chunk.FromEncoded(data, span)
			if err != nil || ck.CRC() != wantCRC {
				ck = chunk.Tombstone(span)
				*quarantined++
			}
			e.chunks = append(e.chunks, ck)
		}
		tail, err := u32()
		if err != nil {
			return nil, err
		}
		if int(tail) >= span {
			return nil, fmt.Errorf("snapshot tail of %d bins exceeds span %d", tail, span)
		}
		for j := uint32(0); j < tail; j++ {
			var b [8]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			e.tail = append(e.tail, math.Float64frombits(binary.BigEndian.Uint64(b[:])))
		}
		key := topo.KPIKey{Scope: topo.Scope(scope), Entity: entity, Metric: metric}
		store.shardFor(key).series[key] = e
	}
	return store, nil
}

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

// addGeneration reopens the image in dir with the given shard count,
// logs bins [lo, hi) of every series and closes again — with no
// compaction, so the image gains one generation on top of those it had.
func addGeneration(t *testing.T, dir string, shards, lo, hi int, value func(series, bin int) float64) {
	t.Helper()
	opts := persistOptsNoBG(shards)
	opts.ChunkSpan = diffSpan
	st, err := OpenPersistent(dir, time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	var batch []Measurement
	for bin := lo; bin < hi; bin++ {
		batch = batch[:0]
		for si, k := range fleetKeys(diffKeys) {
			batch = append(batch, Measurement{k, st.Start().Add(time.Duration(bin) * time.Minute), value(si, bin)})
		}
		st.AppendBatch(batch)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

const (
	diffSpan     = 16
	diffKeys     = 48
	diffSnapBins = 40 // two sealed chunks and a tail per series in the snapshot
	diffWALBins  = 30 // enough on top to seal a third chunk during replay
)

// writeImage builds a crash image in a fresh directory: diffSnapBins
// bins compacted into the snapshot, walBins more in the log —
// written through both Append (one record per group) and
// AppendBatch (one group per shard-batch), with a late write into a
// sealed chunk and the same (key, bin) twice inside one group. value
// gives the measurement at (series, bin); epoch is the store's start.
func writeImage(t *testing.T, shards int, epoch time.Time, walBins int, value func(series, bin int) float64) string {
	t.Helper()
	dir := t.TempDir()
	opts := persistOptsNoBG(shards)
	opts.ChunkSpan = diffSpan
	st, err := OpenPersistent(dir, epoch, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(diffKeys)
	at := func(bin int) time.Time { return epoch.Add(time.Duration(bin) * time.Minute) }
	var batch []Measurement
	for bin := 0; bin < diffSnapBins+walBins; bin++ {
		if bin == diffSnapBins {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		batch = batch[:0]
		for si, k := range keys {
			if (si+bin)%11 == 0 {
				continue // a gap
			}
			m := Measurement{k, at(bin), value(si, bin)}
			if bin%3 == 0 {
				st.Append(m)
			} else {
				batch = append(batch, m)
			}
		}
		if bin == diffSnapBins+5 {
			batch = append(batch,
				Measurement{keys[1], at(3), -3},            // late write into a sealed chunk
				Measurement{keys[2], at(bin), -1},          // same (key, bin) twice in one group:
				Measurement{keys[2], at(bin), value(2, 0)}, // the later one wins
			)
		}
		st.AppendBatch(batch)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// diffValue is the default image content.
func diffValue(series, bin int) float64 { return float64(series*1000 + bin) }

// walRecordOffsets returns the file offset of every record's length
// word in a log.
func walRecordOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	var offs []int
	for off := walHeaderLen; off+4 <= len(raw); {
		offs = append(offs, off)
		off += int(binary.BigEndian.Uint32(raw[off:])) + walRecordOverhead
	}
	return offs
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

// diffRecover recovers two copies of image — the oracle one, and one
// through OpenPersistent with the given shard count — and fails unless
// they agree. It returns the reopened store (nil when both refused the
// image) and its recovery statistics.
func diffRecover(t *testing.T, image string, shards int) (*Store, RecoveryStats) {
	t.Helper()
	opts := persistOptsNoBG(shards)
	opts.ChunkSpan = diffSpan
	want, wantStats, wantErr := oracleRecover(copyImage(t, image), time.Time{}, 0, opts)
	got, err := OpenPersistent(copyImage(t, image), time.Time{}, 0, opts)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("OpenPersistent error %v, oracle error %v", err, wantErr)
	}
	if err != nil {
		return nil, RecoveryStats{}
	}
	t.Cleanup(func() { got.Close() })
	gotStats := got.Recovered()
	counts := gotStats
	counts.SnapshotTime, counts.ReplayTime, counts.AttachTime = 0, 0, 0
	if counts != wantStats {
		t.Fatalf("recovery stats %+v, oracle %+v", counts, wantStats)
	}
	if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
		t.Fatal("recovered store is not byte-identical to the oracle's")
	}
	if g, w := got.QuarantinedChunks(), want.QuarantinedChunks(); g != w {
		t.Fatalf("QuarantinedChunks() = %d, oracle %d", g, w)
	}
	keys := want.Keys()
	if len(keys) != got.Len() {
		t.Fatalf("%d series, oracle %d", got.Len(), len(keys))
	}
	for _, k := range keys {
		_, g := got.ArrivalWatermark(k)
		_, w := want.ArrivalWatermark(k)
		if g != w {
			t.Fatalf("%v: arrival watermark present = %v, oracle %v", k, g, w)
		}
	}
	return got, gotStats
}

func TestRecoveryMatchesSerialOracle(t *testing.T) {
	bin := func(s *Store, key topo.KPIKey, b int) float64 {
		t.Helper()
		ser, ok := s.Series(key)
		if !ok || ser.Len() <= b {
			t.Fatalf("%v has no bin %d", key, b)
		}
		return ser.Values[b]
	}
	keys := fleetKeys(diffKeys)

	scenarios := []struct {
		name   string
		shards []int // reopen with each of these
		build  func(t *testing.T) string
		check  func(t *testing.T, s *Store, rec RecoveryStats)
	}{
		{
			name:   "written with 16 shards",
			shards: []int{16, 4, 1},
			build:  func(t *testing.T) string { return writeImage(t, 16, t0, diffWALBins, diffValue) },
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.SnapshotSeries != diffKeys || rec.WALRecords == 0 || rec.TornTails != 0 {
					t.Fatalf("recovery stats %+v", rec)
				}
				if got := bin(s, keys[1], 3); got != -3 {
					t.Fatalf("late write into a sealed chunk lost: bin 3 = %v", got)
				}
				if got := bin(s, keys[2], diffSnapBins+5); got != diffValue(2, 0) {
					t.Fatalf("second write of a (key, bin) inside one group lost: %v", got)
				}
			},
		},
		{
			name:   "written with 4 shards",
			shards: []int{16},
			build:  func(t *testing.T) string { return writeImage(t, 4, t0, diffWALBins, diffValue) },
		},
		{
			// Both generations hold the same (key, bin)s with different
			// values, and the older one also reaches back before the
			// snapshot's epoch: the newer value must win, the pre-epoch
			// records must be counted and dropped. (The name dates from
			// the wal-<shard>.old / .log pair; the floor list pins it.)
			name:   "rotated and live logs overlap",
			shards: []int{4, 1},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				// The older store's logged bins 40..99 are the image's bins
				// -5..54. Its logs go in as the generation a compaction
				// that died before its snapshot landed would have left
				// below the image's own.
				older := writeImage(t, 4, t0.Add(-45*time.Minute), 60, func(series, bin int) float64 { return -float64(series*1000 + bin) })
				gens, err := listWALs(faultfs.OS, dir)
				if err != nil || len(gens) != 1 || gens[0].gen < 2 {
					t.Fatalf("image generations %+v (%v), want one numbered 2 or more", gens, err)
				}
				raw, err := os.ReadFile(genLog(t, older, 0))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, walName(gens[0].gen-1)), raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				// Bin 45 of the image is in both generations' logs.
				if got := bin(s, keys[5], 45); got != diffValue(5, 45) {
					t.Fatalf("the newer generation did not win over the older one: bin 45 = %v, want %v", got, diffValue(5, 45))
				}
				// Bin 35 of the image, bin 80 of the older store, is in the
				// snapshot and the older generation only.
				if got := bin(s, keys[5], 35); got != -float64(5*1000+80) {
					t.Fatalf("older generation not replayed over the snapshot: bin 35 = %v", got)
				}
				if rec.Generations != 2 {
					t.Fatalf("Generations = %d, want 2", rec.Generations)
				}
			},
		},
		{
			// A garbage length half way through the older generation, a
			// torn tail on the newer: each ends its own generation where
			// it lies, once, and nothing else.
			name:   "torn tail and garbage length",
			shards: []int{4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				addGeneration(t, dir, 4, 60, 80, diffValue)
				rewriteFile(t, genLog(t, dir, 1), func(raw []byte) []byte {
					offs := walRecordOffsets(t, raw)
					binary.BigEndian.PutUint32(raw[offs[len(offs)/2]:], 0xFFFFFFF0)
					return raw
				})
				rewriteFile(t, genLog(t, dir, 0), func(raw []byte) []byte { return raw[:len(raw)-5] })
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.TornTails != 2 || rec.Generations != 2 {
					t.Fatalf("recovery stats %+v, want one torn tail in each of 2 generations", rec)
				}
			},
		},
		{
			// The CRC holds but a body inside the group does not decode:
			// the bodies before it apply, then that shard's records end as
			// its log used to; the other shards' replay on.
			name:   "undecodable body inside a group",
			shards: []int{4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				rewriteFile(t, genLog(t, dir, 0), func(raw []byte) []byte {
					offs := walRecordOffsets(t, raw)
					for _, off := range offs[len(offs)/3:] {
						n := int(binary.BigEndian.Uint32(raw[off:]))
						rec := raw[off+4 : off+5+n] // shard byte and bodies
						_, rest, err := decodeMeasurementBody(rec[1:], nil)
						if err != nil {
							t.Fatal(err)
						}
						if len(rest) == 0 {
							continue // a single-record group
						}
						rec[len(rec)-len(rest)] = 0xEE // the second body's scope
						binary.BigEndian.PutUint32(raw[off+5+n:], crc32.ChecksumIEEE(rec))
						return raw
					}
					t.Fatal("no multi-record group in the last two thirds of the log")
					return nil
				})
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.TornTails != 1 {
					t.Fatalf("TornTails = %d, want 1", rec.TornTails)
				}
			},
		},
		{
			name:   "one rotten snapshot chunk",
			shards: []int{4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				ref := NewStore(t0, time.Minute)
				ref.SetChunkSpan(diffSpan)
				for b := 0; b < diffSpan; b++ {
					if (7+b)%11 != 0 {
						ref.Append(Measurement{keys[7], t0.Add(time.Duration(b) * time.Minute), diffValue(7, b)})
					}
				}
				ref.Append(Measurement{keys[7], t0.Add(diffSpan * time.Minute), 0}) // seals chunk 0
				data := ref.shardFor(keys[7]).series[keys[7]].chunks[0].Data()
				rewriteFile(t, filepath.Join(dir, snapshotFile), func(raw []byte) []byte {
					at := bytes.Index(raw, data)
					if at < 0 {
						t.Fatal("chunk bytes not found in the snapshot")
					}
					raw[at+len(data)/2] ^= 0x40
					return raw
				})
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.QuarantinedChunks != 1 {
					t.Fatalf("QuarantinedChunks = %d, want 1", rec.QuarantinedChunks)
				}
				if got := bin(s, keys[7], 1); !math.IsNaN(got) {
					t.Fatalf("quarantined bin reads %v, want NaN", got)
				}
			},
		},
		{
			// No snapshot: the epoch comes from the first generation that
			// has a header — not the oldest (killed before its header
			// write) nor the next (half a header).
			name:   "no snapshot",
			shards: []int{4, 16},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0.Add(7*time.Minute), diffWALBins, diffValue)
				if err := os.Remove(filepath.Join(dir, snapshotFile)); err != nil {
					t.Fatal(err)
				}
				gens, err := listWALs(faultfs.OS, dir)
				if err != nil || len(gens) != 1 || gens[0].gen < 2 {
					t.Fatalf("image generations %+v (%v), want one numbered 2 or more", gens, err)
				}
				raw, err := os.ReadFile(gens[0].path)
				if err != nil {
					t.Fatal(err)
				}
				for back, content := range [][]byte{raw[:10], nil} {
					if err := os.WriteFile(filepath.Join(dir, walName(gens[0].gen-1-uint64(back))), content, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if !s.Start().Equal(t0.Add(7 * time.Minute)) {
					t.Fatalf("epoch %v, want the log header's %v", s.Start(), t0.Add(7*time.Minute))
				}
				if rec.SnapshotSeries != 0 || rec.WALRecords == 0 {
					t.Fatalf("recovery stats %+v", rec)
				}
			},
		},
		{
			// Crash, reopen, write, crash again before any compaction,
			// reopen: three generations on disk, each overwriting some of
			// the one below. The newest value of a (key, bin) wins.
			name:   "three generations without a compaction",
			shards: []int{16, 4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 16, t0, diffWALBins, diffValue) // logs bins 40..69
				addGeneration(t, dir, 16, 60, 80, func(series, bin int) float64 { return -diffValue(series, bin) })
				addGeneration(t, dir, 16, 75, 90, func(series, bin int) float64 { return 0.5 + diffValue(series, bin) })
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.Generations != 3 || rec.TornTails != 0 {
					t.Fatalf("recovery stats %+v, want 3 generations", rec)
				}
				for b, want := range map[int]float64{
					51: diffValue(5, 51),       // oldest generation only
					65: -diffValue(5, 65),      // oldest and middle: the middle one wins
					77: 0.5 + diffValue(5, 77), // middle and newest: the newest wins
					89: 0.5 + diffValue(5, 89), // newest only
				} {
					if got := bin(s, keys[5], b); got != want {
						t.Fatalf("bin %d = %v, want %v", b, got, want)
					}
				}
			},
		},
		{
			// Each generation is replayed by the shard bytes of the layout
			// that wrote it, whatever layout reads it.
			name:   "shard count 16 to 4 to 16 across generations",
			shards: []int{16, 4, 1},
			build: func(t *testing.T) string {
				dir := writeImage(t, 16, t0, diffWALBins, diffValue)
				addGeneration(t, dir, 4, 60, 80, func(series, bin int) float64 { return -diffValue(series, bin) })
				addGeneration(t, dir, 16, 75, 90, diffValue)
				for back, want := range []int{16, 4, 16} {
					raw, err := os.ReadFile(genLog(t, dir, back))
					if err != nil {
						t.Fatal(err)
					}
					shards := make(map[byte]bool)
					for _, off := range walRecordOffsets(t, raw) {
						shards[raw[off+4]] = true
					}
					if len(shards) != want {
						t.Fatalf("generation %d back holds records of %d shards, want %d", back, len(shards), want)
					}
				}
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.Generations != 3 {
					t.Fatalf("Generations = %d, want 3", rec.Generations)
				}
				if got := bin(s, keys[9], 70); got != -diffValue(9, 70) {
					t.Fatalf("the 4-shard generation did not win over the 16-shard one below it: bin 70 = %v", got)
				}
			},
		},
		{
			// Consecutive group records of a shard carry its keys in
			// different orders — as written, reversed, rotated by one, one
			// key back to back: a worker's table resolves the first by
			// position and must fall back for the rest.
			name:   "key order changes from record to record",
			shards: []int{4, 16},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				opts := persistOptsNoBG(4)
				opts.ChunkSpan = diffSpan
				st, err := OpenPersistent(dir, time.Time{}, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				n := len(keys)
				for i, order := range []func(i int) int{
					func(i int) int { return i },
					func(i int) int { return i },
					func(i int) int { return n - 1 - i },
					func(i int) int { return (i + 1) % n },
					func(i int) int { return i / 2 * 2 % n },
					func(i int) int { return i },
				} {
					bin := diffSnapBins + diffWALBins + i
					batch := make([]Measurement, n)
					for j := range batch {
						batch[j] = Measurement{keys[order(j)], t0.Add(time.Duration(bin) * time.Minute), float64(bin*1000 + j)}
					}
					st.AppendBatch(batch)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				bin4 := diffSnapBins + diffWALBins + 4
				// Key 2j is written twice back to back in that bin; the
				// second write, position 2j+1, wins.
				if got := bin(s, keys[6], bin4); got != float64(bin4*1000+7) {
					t.Fatalf("second of two back-to-back writes lost: bin %d = %v", bin4, got)
				}
			},
		},
		{
			// A bad record ends its own generation and nothing else: every
			// younger one still replays.
			name:   "torn tail in a generation that is not the newest",
			shards: []int{4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				addGeneration(t, dir, 4, 60, 80, func(series, bin int) float64 { return -diffValue(series, bin) })
				addGeneration(t, dir, 4, 75, 90, diffValue)
				rewriteFile(t, genLog(t, dir, 2), func(raw []byte) []byte { return raw[:len(raw)-5] })
				rewriteFile(t, genLog(t, dir, 1), func(raw []byte) []byte {
					offs := walRecordOffsets(t, raw)
					binary.BigEndian.PutUint32(raw[offs[len(offs)/2]:], 0xFFFFFFF0)
					return raw
				})
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.TornTails != 2 || rec.Generations != 3 {
					t.Fatalf("recovery stats %+v, want 2 torn tails in 3 generations", rec)
				}
				if got := bin(s, keys[5], 89); got != diffValue(5, 89) {
					t.Fatalf("newest generation not replayed past the tears below it: bin 89 = %v", got)
				}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			image := sc.build(t)
			for _, procs := range []int{4, 1} {
				for _, shards := range sc.shards {
					t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						s, rec := diffRecover(t, image, shards)
						if s == nil {
							t.Fatal("both recoveries refused the image")
						}
						if sc.check != nil {
							sc.check(t, s, rec)
						}
					})
				}
			}
		})
	}
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

// TestRecoveryErrorJoinsWorkers breaks the second and third of three
// generations — a read that fails with the second's workers busy, a
// header the third's reader refuses: the open must fail with the
// second's error (the first in generation order) and leave no replay or
// validation goroutine behind.
func TestRecoveryErrorJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	image := writeImage(t, 8, t0, diffWALBins, diffValue)
	addGeneration(t, image, 8, 60, 80, diffValue)
	addGeneration(t, image, 8, 75, 90, diffValue)
	second := genLog(t, image, 1)
	rewriteFile(t, genLog(t, image, 0), func(raw []byte) []byte {
		binary.BigEndian.PutUint16(raw[4:6], 99)
		return raw
	})
	opts := persistOptsNoBG(8)
	opts.ChunkSpan = diffSpan
	if _, _, err := oracleRecover(image, time.Time{}, 0, opts); err == nil {
		t.Fatal("oracle accepted an unsupported WAL version")
	}
	opts.FS = readFailFS{FS: faultfs.OS, path: second, after: 4 << 10}
	before := runtime.NumGoroutine()
	st, err := OpenPersistent(copyImage(t, image), time.Time{}, 0, opts)
	if err == nil {
		st.Close()
		t.Fatal("OpenPersistent replayed past a failed read")
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("error %q, want the read failure in %s", err, filepath.Base(second))
	}
	rep, err := Fsck(copyImage(t, image), opts.FS, false)
	if err != nil || len(rep.WALs) != 3 || rep.WALs[0].ReadError != nil || !errors.Is(rep.WALs[1].ReadError, faultfs.ErrInjected) || rep.WALs[2].ReadError == nil {
		t.Fatalf("fsck: %+v (%v), want the first generation readable and the other two not", rep.WALs, err)
	}
	// Joined workers have returned from their function; give the
	// scheduler a moment to retire them before calling it a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the failed open, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
