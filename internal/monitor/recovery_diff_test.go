package monitor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultfs"
	"repro/internal/topo"
)

// The differential recovery test: OpenPersistent replays logs
// concurrently, applies group records through a key→entry cache and
// validates snapshot chunks off-thread; the oracle below is the
// recovery it replaced — one log after the other, one Store.Append per
// record, every chunk validated inline — kept here, and only here, as
// the reference. Both recover copies of the same directory image and
// must agree on every byte and every count.

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
		for _, path := range g.paths {
			if store, err = oracleReplayWAL(path, store, step, opts.Shards, opts.ChunkSpan, &stats); err != nil {
				return nil, stats, err
			}
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
	hdr := make([]byte, len(walMagic)+2+8+8)
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
		payload := make([]byte, int(n)+4)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				stats.TornTails++
				return store, nil
			}
			return store, err
		}
		body, crcBytes := payload[:n], payload[n:]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
			stats.TornTails++
			return store, nil
		}
		stats.LogBytes += int64(len(payload)) + 4
		for len(body) > 0 {
			m, rest, err := decodeMeasurementBody(body, nil)
			if err != nil {
				stats.TornTails++
				return store, nil
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

// genLog returns the path of shard's log in the generation that is
// back generations older than the newest one in dir.
func genLog(t *testing.T, dir string, back, shard int) string {
	t.Helper()
	gens, err := listWALs(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if back >= len(gens) {
		t.Fatalf("%d generations in %s, want more than %d", len(gens), dir, back)
	}
	g := gens[len(gens)-1-back]
	return filepath.Join(dir, walName(g.gen, shard))
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
// bins compacted into the snapshot, walBins more in the shard logs —
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
// word in a shard log.
func walRecordOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	var offs []int
	for off := len(walMagic) + 2 + 8 + 8; off+4 <= len(raw); {
		offs = append(offs, off)
		off += 4 + int(binary.BigEndian.Uint32(raw[off:])) + 4
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
				for i := 0; i < 4; i++ {
					raw, err := os.ReadFile(genLog(t, older, 0, i))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, walName(gens[0].gen-1, i)), raw, 0o644); err != nil {
						t.Fatal(err)
					}
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
			name:   "torn tail and garbage length",
			shards: []int{4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				rewriteFile(t, genLog(t, dir, 0, 0), func(raw []byte) []byte { return raw[:len(raw)-5] })
				rewriteFile(t, genLog(t, dir, 0, 1), func(raw []byte) []byte {
					offs := walRecordOffsets(t, raw)
					binary.BigEndian.PutUint32(raw[offs[len(offs)/2]:], 0xFFFFFFF0)
					return raw
				})
				return dir
			},
			check: func(t *testing.T, s *Store, rec RecoveryStats) {
				if rec.TornTails != 2 {
					t.Fatalf("TornTails = %d, want 2", rec.TornTails)
				}
			},
		},
		{
			// The CRC holds but a body inside the group does not decode:
			// the bodies before it apply, then the log ends as torn.
			name:   "undecodable body inside a group",
			shards: []int{4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				rewriteFile(t, genLog(t, dir, 0, 2), func(raw []byte) []byte {
					offs := walRecordOffsets(t, raw)
					for _, off := range offs {
						n := int(binary.BigEndian.Uint32(raw[off:]))
						body := raw[off+4 : off+4+n]
						_, rest, err := decodeMeasurementBody(body, nil)
						if err != nil {
							t.Fatal(err)
						}
						if len(rest) == 0 {
							continue // a single-record group
						}
						body[len(body)-len(rest)] = 0xEE // the second body's scope
						binary.BigEndian.PutUint32(raw[off+4+n:], crc32.ChecksumIEEE(body))
						return raw
					}
					t.Fatal("no multi-record group in shard 2's log")
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
			// No snapshot: the epoch comes from the first log that has a
			// header — not shard 0's (killed before its header flush) nor
			// shard 1's (half a header).
			name:   "no snapshot",
			shards: []int{4, 16},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0.Add(7*time.Minute), diffWALBins, diffValue)
				if err := os.Remove(filepath.Join(dir, snapshotFile)); err != nil {
					t.Fatal(err)
				}
				rewriteFile(t, genLog(t, dir, 0, 0), func(raw []byte) []byte { return nil })
				rewriteFile(t, genLog(t, dir, 0, 1), func(raw []byte) []byte { return raw[:10] })
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
			// Each generation is replayed as the shard layout that wrote
			// it, whatever layout reads it.
			name:   "shard count 16 to 4 to 16 across generations",
			shards: []int{16, 4, 1},
			build: func(t *testing.T) string {
				dir := writeImage(t, 16, t0, diffWALBins, diffValue)
				addGeneration(t, dir, 4, 60, 80, func(series, bin int) float64 { return -diffValue(series, bin) })
				addGeneration(t, dir, 16, 75, 90, diffValue)
				gens, err := listWALs(faultfs.OS, dir)
				if err != nil || len(gens) != 3 || len(gens[0].paths) != 16 || len(gens[1].paths) != 4 || len(gens[2].paths) != 16 {
					t.Fatalf("generations %+v (%v), want 16, 4 and 16 logs", gens, err)
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
			// A tear ends its own log and nothing else: the rest of that
			// generation and every younger one still replay.
			name:   "torn tail in a generation that is not the newest",
			shards: []int{4},
			build: func(t *testing.T) string {
				dir := writeImage(t, 4, t0, diffWALBins, diffValue)
				addGeneration(t, dir, 4, 60, 80, func(series, bin int) float64 { return -diffValue(series, bin) })
				addGeneration(t, dir, 4, 75, 90, diffValue)
				rewriteFile(t, genLog(t, dir, 2, 0), func(raw []byte) []byte { return raw[:len(raw)-5] })
				rewriteFile(t, genLog(t, dir, 1, 3), func(raw []byte) []byte {
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

// TestRecoveryErrorJoinsWorkers breaks the third and fourth logs of an
// eight-log image: the open must fail with the third log's error (the
// first in shard order, whichever worker got there first) and leave
// no replay or validation goroutine behind.
func TestRecoveryErrorJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	image := writeImage(t, 8, t0, diffWALBins, diffValue)
	third := genLog(t, image, 0, 2)
	rewriteFile(t, third, func(raw []byte) []byte {
		binary.BigEndian.PutUint16(raw[4:6], 99)
		return raw
	})
	rewriteFile(t, genLog(t, image, 0, 3), func(raw []byte) []byte {
		copy(raw, "XXXX")
		return raw
	})
	opts := persistOptsNoBG(8)
	opts.ChunkSpan = diffSpan
	if _, _, err := oracleRecover(image, time.Time{}, 0, opts); err == nil {
		t.Fatal("oracle accepted an unsupported WAL version")
	}
	before := runtime.NumGoroutine()
	st, err := OpenPersistent(copyImage(t, image), time.Time{}, 0, opts)
	if err == nil {
		st.Close()
		t.Fatal("OpenPersistent accepted an unsupported WAL version")
	}
	if !strings.Contains(err.Error(), "unsupported WAL version 99") || !strings.Contains(err.Error(), filepath.Base(third)) {
		t.Fatalf("error %q, want %s's unsupported version", err, filepath.Base(third))
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
