package monitor

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Tests of the version 3 log's key dictionary: a series' key is logged
// once per (generation, shard) and named by a small id afterwards.

// logVersion returns the format version in the header of the log at path.
func logVersion(t *testing.T, path string) uint16 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < walHeaderLen {
		t.Fatalf("%s: %d bytes (%v)", path, len(raw), err)
	}
	return binary.BigEndian.Uint16(raw[4:6])
}

// TestUpgradeReplaysVersion2Log: testdata/wal-v2 holds a log the version
// 2 writer left — wire bodies, keys and all, through Append, AppendBatch
// and socket frames, with a late write into a sealed chunk — and
// testdata/wal-v2.snapshot the WriteSnapshot bytes of the store that
// wrote it. It replays to that store. So does the directory a crash loop
// across the upgrade leaves, a version 2 generation under a version 3
// one; only version 3 is written.
func TestUpgradeReplaysVersion2Log(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "wal-v2.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	image := copyImage(t, filepath.Join("testdata", "wal-v2"))
	if v := logVersion(t, genLog(t, image, 0)); v != walVersionWire {
		t.Fatalf("the committed log is version %d, want %d", v, walVersionWire)
	}
	for _, shards := range []int{4, 16} {
		got, rec := diffRecover(t, image, shards)
		if !bytes.Equal(snapshotBytes(t, got), want) {
			t.Fatalf("%d shards: the version 2 log does not replay to the store that wrote it", shards)
		}
		if rec.WALRecords == 0 || rec.TornTails != 0 {
			t.Fatalf("%d shards: recovery stats %+v", shards, rec)
		}
	}

	// The crash loop: the version 2 directory opens under this writer,
	// which overwrites some bins, adds others and a new key, and dies.
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = diffSpan
	st, err := OpenPersistent(image, time.Time{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := fleetKeys(13)
	table := newKeyTable(st)
	for bin := 30; bin < 50; bin++ {
		ms := make([]Measurement, len(keys))
		for ki, k := range keys {
			ms[ki] = Measurement{k, t0.Add(time.Duration(bin) * time.Minute), -float64(ki*1000 + bin)}
		}
		if bin%2 == 0 {
			st.AppendBatch(ms)
			continue
		}
		frame, err := EncodeBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.ingestFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	crashed := copyImage(t, image)
	if v := logVersion(t, genLog(t, crashed, 0)); v != walVersion {
		t.Fatalf("the upgraded store writes version %d, want %d", v, walVersion)
	}
	rep, err := Fsck(copyImage(t, crashed), nil, false)
	if err != nil || len(rep.WALs) != 2 || rep.WALs[0].Version != walVersionWire || rep.WALs[1].Version != walVersion || !rep.Healthy() {
		t.Fatalf("fsck: %+v (%v), want a clean version 2 and version 3 generation", rep.WALs, err)
	}
	for _, shards := range []int{4, 16} {
		got, rec := diffRecover(t, crashed, shards)
		if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, st)) {
			t.Fatalf("%d shards: [v2, v3] does not replay to the store in memory", shards)
		}
		if rec.Generations != 2 || rec.TornTails != 0 {
			t.Fatalf("%d shards: recovery stats %+v", shards, rec)
		}
	}
}

// firstEntries returns, for each key the log at path holds, whether its
// first entry is a define.
func firstEntries(t *testing.T, path string) map[topo.KPIKey]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[topo.KPIKey]bool)
	for _, r := range logRecords(t, raw) {
		for _, e := range r.entries {
			if _, seen := first[e.m.Key]; !seen {
				first[e.m.Key] = e.define
			}
		}
	}
	return first
}

// TestLogPrefixInvariant: a define that never reached the disk, or whose
// generation a compaction deleted, is never referenced by a record that
// does — the series' next measurement defines its key again — so the
// directory reopens to the store in memory.
func TestLogPrefixInvariant(t *testing.T) {
	keys := fleetKeys(2)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	// reopen recovers a copy of dir, as a kill leaves it, and checks it
	// against memory and every key's first entry in the live generation.
	reopen := func(t *testing.T, st *Store, dir string) {
		t.Helper()
		image := copyImage(t, dir)
		first := firstEntries(t, genLog(t, image, 0))
		for _, k := range keys {
			if define, seen := first[k]; !seen || !define {
				t.Fatalf("%v: logged %v in the live generation, first entry a define = %v", k, seen, define)
			}
		}
		re, err := OpenPersistent(image, time.Time{}, 0, persistOptsNoBG(1))
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if rec := re.Recovered(); rec.TornTails != 0 {
			t.Fatalf("recovery stats %+v", rec)
		}
		if !bytes.Equal(snapshotBytes(t, re), snapshotBytes(t, st)) {
			t.Fatal("the reopened store is not the store in memory")
		}
	}

	t.Run("write fails after a define is sealed", func(t *testing.T) {
		dir := t.TempDir()
		ff := faultfs.New(faultfs.Plan{}, nil)
		opts := persistOptsNoBG(1)
		opts.FS = ff
		opts.RearmBackoff = fastRearm
		st, err := OpenPersistent(dir, t0, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		col := obs.NewCollector()
		st.SetCollector(col)
		st.Append(Measurement{keys[0], at(0), 1})
		// The write of keys[1]'s define fails: the id is handed out, the
		// define dropped.
		ff.SetENOSPC(true)
		st.Append(Measurement{keys[1], at(0), 2})
		st.Append(Measurement{keys[1], at(1), 3})
		if got := st.PersistState(); got != PersistDegraded {
			t.Fatalf("state %v, want degraded", got)
		}
		// The background loop re-arms once the disk has room: a rotation,
		// then a snapshot of memory. Wait for the snapshot to be installed,
		// so that no rotation is still to come.
		ff.SetENOSPC(false)
		waitFor(t, "the re-arm", func() bool { return col.Counter(obs.CtrWALRearms) == 1 })
		// The same key after the re-arm: a define in the new generation.
		st.Append(Measurement{keys[1], at(2), 4})
		st.Append(Measurement{keys[0], at(2), 5})
		st.Append(Measurement{keys[1], at(3), 6})
		reopen(t, st, dir)
	})

	t.Run("define's generation compacted away", func(t *testing.T) {
		dir := t.TempDir()
		opts := persistOptsNoBG(1)
		opts.FS = faultfs.New(faultfs.Plan{}, nil)
		st, err := OpenPersistent(dir, t0, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for ki, k := range keys {
			st.Append(Measurement{k, at(0), float64(ki)}) // defined in generation g
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if gens, err := listWALs(faultfs.OS, dir); err != nil || len(gens) != 1 {
			t.Fatalf("generations %+v (%v), want g deleted and g+1 live", gens, err)
		}
		for ki, k := range keys {
			st.Append(Measurement{k, at(1), float64(10 + ki)}) // first seen in g+1
			st.Append(Measurement{k, at(2), float64(20 + ki)})
		}
		reopen(t, st, dir)
	})
}

// replayLogRecord is one record of a FuzzReplayLog input.
type replayLogRecord struct {
	shard   byte
	payload []byte
}

// encodeReplayLog renders records as FuzzReplayLog reads them:
// shard byte | payload length uint16 | payload, one after the other.
func encodeReplayLog(recs []replayLogRecord) []byte {
	var b []byte
	for _, r := range recs {
		b = append(b, r.shard)
		b = binary.BigEndian.AppendUint16(b, uint16(len(r.payload)))
		b = append(b, r.payload...)
	}
	return b
}

// decodeReplayLog is encodeReplayLog's inverse; the last payload is cut
// short wherever data ends.
func decodeReplayLog(data []byte) []replayLogRecord {
	var recs []replayLogRecord
	for len(data) >= 3 {
		n := min(int(binary.BigEndian.Uint16(data[1:3])), len(data)-3)
		recs = append(recs, replayLogRecord{data[0], data[3 : 3+n]})
		data = data[3+n:]
	}
	return recs
}

// replayLogSeeds are FuzzReplayLog's seeds: a well-formed log of two
// writer shards, and that log with one bad entry let in — a reference
// before its define, an id past the table, a truncated reference, a
// define with a bad key length — and with one record cut at every byte,
// each followed by more records of both shards.
func replayLogSeeds(t testing.TB) [][]byte {
	dir, err := os.MkdirTemp("", "replaylog")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := persistOptsNoBG(2)
	opts.ChunkSpan = diffSpan
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(6)
	for bin := 0; bin < 20; bin++ {
		ms := make([]Measurement, len(keys))
		for ki, k := range keys {
			ms[ki] = Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(ki*100 + bin)}
		}
		st.AppendBatch(ms)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	gens, err := listWALs(faultfs.OS, dir)
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations %+v (%v)", gens, err)
	}
	raw, err := os.ReadFile(gens[0].path)
	if err != nil {
		t.Fatal(err)
	}
	var good []replayLogRecord
	for off := walHeaderLen; off+4 <= len(raw); {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		good = append(good, replayLogRecord{raw[off+4], raw[off+5 : off+5+n]})
		off += n + walRecordOverhead
	}
	shard := good[0].shard
	tail := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0} // bin 0 (before the epoch), value 1
	with := func(at int, bad []byte) []byte {
		recs := append(append(append([]replayLogRecord{}, good[:at]...), replayLogRecord{shard, bad}), good[at:]...)
		return encodeReplayLog(recs)
	}
	seeds := [][]byte{
		encodeReplayLog(good),
		with(0, append([]byte{1}, tail...)),                                               // a reference before its define
		with(len(good)/2, append([]byte{99}, tail...)),                                    // an id past the table
		with(len(good)/2, append([]byte{1}, tail[:9]...)),                                 // a truncated reference
		with(len(good)/2, append([]byte{0, byte(topo.ScopeServer), 0xff, 0xff}, tail...)), // a bad key length
	}
	// The first record holds defines, the last references: cut each at
	// every byte.
	for _, ri := range []int{0, len(good) - 1} {
		for cut := 1; cut < len(good[ri].payload); cut++ {
			recs := append([]replayLogRecord{}, good...)
			recs[ri] = replayLogRecord{recs[ri].shard, recs[ri].payload[:cut]}
			seeds = append(seeds, encodeReplayLog(recs))
		}
	}
	return seeds
}

// FuzzReplayLog replays arbitrary version 3 record payloads, each framed
// with a valid length and CRC, so that the entries take the damage and
// not the framing (see decodeReplayLog for the input's layout). Replay
// must never panic, and its store and counts must equal the serial
// oracle's: a bad entry ends its own shard's records in the generation
// and no other shard's.
func FuzzReplayLog(f *testing.F) {
	for _, seed := range replayLogSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeReplayLog(data)
		// The store grows a series up to the bin it is told to write; that
		// growth is not this target's subject.
		dec, ended := newLogDecoder(walVersion), make(map[byte]bool)
		for _, r := range recs {
			if ended[r.shard] {
				continue
			}
			entries, err := dec.record(r.shard, r.payload)
			for _, e := range entries {
				if e.m.T.Sub(t0) > fuzzHorizonBins*time.Minute {
					t.Skip("timestamp past the horizon")
				}
			}
			ended[r.shard] = err != nil
		}
		log := append(make([]byte, 0, walHeaderLen), walMagic...)
		log = binary.BigEndian.AppendUint16(log, walVersion)
		log = binary.BigEndian.AppendUint64(log, uint64(t0.UnixNano()))
		log = binary.BigEndian.AppendUint64(log, uint64(time.Minute))
		for _, r := range recs {
			rec := append([]byte{r.shard}, r.payload...)
			log = binary.BigEndian.AppendUint32(log, uint32(len(r.payload)))
			log = append(log, rec...)
			log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(rec))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName(1)), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, _ := diffRecover(t, dir, 4); s == nil {
			t.Fatal("both recoveries refused the log")
		}
	})
}
