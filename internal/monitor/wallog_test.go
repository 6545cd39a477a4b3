package monitor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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

// dirImage returns the bytes of every file in dir, by name.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// TestOpenRefusesVersion2Log: testdata/wal-v2 holds a log the version 2
// writer left — wire bodies, keys and all. An open refuses it, naming
// the last build that replays it, and leaves the directory as it found
// it, and Fsck reports the generation's read error.
func TestOpenRefusesVersion2Log(t *testing.T) {
	image := copyImage(t, filepath.Join("testdata", "wal-v2"))
	if v := logVersion(t, genLog(t, image, 0)); v != 2 {
		t.Fatalf("the committed log is version %d, want 2", v)
	}
	before := dirImage(t, image)
	_, err := OpenPersistent(image, time.Time{}, 0, persistOptsNoBG(4))
	if !errors.Is(err, errWALVersion) || !strings.Contains(err.Error(), "commit eace131") {
		t.Fatalf("open: %v, want the version refused and the last build that replays it named", err)
	}
	if !reflect.DeepEqual(dirImage(t, image), before) {
		t.Fatal("the refused open changed the directory")
	}
	rep, err := Fsck(image, nil, false)
	if err != nil || len(rep.WALs) != 1 || !errors.Is(rep.WALs[0].ReadError, errWALVersion) || rep.Healthy() {
		t.Fatalf("fsck: %+v (%v), want the generation's read error", rep, err)
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
	for _, e := range logEntries(t, raw) {
		if _, seen := first[e.m.Key]; !seen {
			first[e.m.Key] = e.define
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
// must never panic, and must recover what logDecoder reads the records
// as, into the store reference model: a bad entry ends its own shard's
// records in the generation and no other shard's.
func FuzzReplayLog(f *testing.F) {
	for _, seed := range replayLogSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeReplayLog(data)
		// A worker applies the records of one shard byte after the other.
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].shard < recs[j].shard })
		m := newStoreModel(t0, diffSpan)
		want := RecoveryStats{Generations: 1}
		dec, ended := newLogDecoder(), make(map[byte]bool)
		log := append(make([]byte, 0, walHeaderLen), walMagic...)
		log = binary.BigEndian.AppendUint16(log, walVersion)
		log = binary.BigEndian.AppendUint64(log, uint64(t0.UnixNano()))
		log = binary.BigEndian.AppendUint64(log, uint64(time.Minute))
		for _, r := range recs {
			rec := append([]byte{r.shard}, r.payload...)
			log = binary.BigEndian.AppendUint32(log, uint32(len(r.payload)))
			log = append(log, rec...)
			log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(rec))
			if len(r.payload) == 0 {
				want.TornTails++ // a zero length is garbage: the generation ends
				break
			}
			want.LogBytes += int64(len(r.payload) + walRecordOverhead)
			if ended[r.shard] {
				continue
			}
			entries, err := dec.record(r.shard, r.payload)
			for _, e := range entries {
				// The store grows a series up to the bin it is told to write;
				// that growth is not this target's subject.
				if e.m.T.Sub(t0) > fuzzHorizonBins*time.Minute {
					t.Skip("timestamp past the horizon")
				}
				m.apply([]Measurement{e.m})
			}
			want.WALRecords += len(entries)
			if ended[r.shard] = err != nil; err != nil {
				want.TornTails++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName(1)), log, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := persistOptsNoBG(4)
		opts.ChunkSpan = diffSpan
		s, err := OpenPersistent(dir, time.Time{}, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := s.Recovered()
		got.SnapshotTime, got.ReplayTime, got.AttachTime = 0, 0, 0
		if got != want {
			t.Fatalf("recovery stats %+v, want %+v", got, want)
		}
		m.check(t, s, nil, rand.New(rand.NewSource(int64(len(data)))))
	})
}

// logDecoder is the tests' one reader of log record payloads and id
// batch frame entries, for the inputs no store program writes:
// FuzzReplayLog's entries under a valid CRC and FuzzIngestIDStream's
// malformed frames, and the tests that read a log's entries. It decodes
// with the wire codec alone, apart from keyTable: defines and
// references, whose ids it numbers per shard byte of the one generation
// it reads.
type logDecoder struct {
	ids map[byte][]topo.KPIKey
	// maxIDs, when set, is how many ids a shard's defines are issued;
	// later defines are issued none (the wire's cap, not the log's).
	maxIDs int
}

func newLogDecoder() *logDecoder {
	return &logDecoder{ids: make(map[byte][]topo.KPIKey)}
}

// logEntry is one decoded measurement and the bytes its entry spans in
// the payload, tag or id included.
type logEntry struct {
	m        Measurement
	off, end int
	define   bool
}

// record decodes the payload of one record of shard up to the first
// entry that does not decode, and returns that entry's error.
func (d *logDecoder) record(shard byte, payload []byte) ([]logEntry, error) {
	var out []logEntry
	for off := 0; off < len(payload); off = out[len(out)-1].end {
		b := payload[off:]
		e := logEntry{off: off}
		var rest []byte
		var err error
		switch {
		case b[0] == 0:
			e.define = true
			if e.m, rest, err = decodeMeasurementBody(b[1:], nil); err == nil && (d.maxIDs == 0 || len(d.ids[shard]) < d.maxIDs) {
				d.ids[shard] = append(d.ids[shard], e.m.Key)
			}
		default:
			id, n := binary.Uvarint(b)
			switch {
			case n <= 0:
				err = errors.New("bad id")
			case id == 0 || id > uint64(len(d.ids[shard])):
				err = fmt.Errorf("id %d of %d defined", id, len(d.ids[shard]))
			case len(b) < n+16:
				err = fmt.Errorf("reference of %d bytes", len(b))
			default:
				nanos := int64(binary.BigEndian.Uint64(b[n:]))
				e.m = Measurement{d.ids[shard][id-1], time.Unix(0, nanos).UTC(), math.Float64frombits(binary.BigEndian.Uint64(b[n+8:]))}
				rest = b[n+16:]
			}
		}
		if err != nil {
			return out, err
		}
		e.end = len(payload) - len(rest)
		out = append(out, e)
	}
	return out, nil
}

// logEntries decodes every entry of a log file's bytes, in file order,
// with one logDecoder; an entry that does not decode fails the test.
func logEntries(t *testing.T, raw []byte) (out []logEntry) {
	t.Helper()
	dec := newLogDecoder()
	for off := walHeaderLen; off+4 <= len(raw); {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		entries, err := dec.record(raw[off+4], raw[off+5:off+5+n])
		if err != nil {
			t.Fatalf("record at offset %d: %v", off, err)
		}
		out = append(out, entries...)
		off += n + walRecordOverhead
	}
	return out
}
