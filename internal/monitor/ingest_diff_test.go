package monitor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The differential ingest tests: the socket applies a frame through a
// per-connection handle table, with the wire bytes copied into the WAL;
// the reference below decodes the frame into Measurements and
// AppendBatches them, the path in-process callers take. Both are fed
// the same frames on twin persistent stores and must leave the same
// bytes on disk and the same state in memory.

// refIngestFrame applies one publisher frame as the socket must; ids
// are the connection's key ids.
func refIngestFrame(s *Store, ids *logDecoder, payload []byte) error {
	ms, err := decodeIDFrame(ids, payload)
	if err != nil {
		return err
	}
	s.AppendBatch(ms)
	return nil
}

// newWireIDs returns the reference's ids of a fresh connection: the
// log decoder reads an id batch frame's entries as it reads a log
// record's, with the publisher's cap on the ids issued.
func newWireIDs() *logDecoder {
	d := newLogDecoder()
	d.maxIDs = maxKeyCacheEntries
	return d
}

// decodeIDFrame decodes an id batch frame with the connection's ids,
// defining the ones its defines are issued.
func decodeIDFrame(ids *logDecoder, payload []byte) ([]Measurement, error) {
	if len(payload) < 3 || payload[0] != frameBatchID {
		return nil, fmt.Errorf("not an id batch frame")
	}
	n := int(binary.BigEndian.Uint16(payload[1:3]))
	entries, err := ids.record(0, payload[3:])
	if err != nil {
		return nil, err
	}
	if n == 0 || len(entries) != n {
		return nil, fmt.Errorf("%d entries in a frame that counts %d", len(entries), n)
	}
	ms := make([]Measurement, n)
	for i, e := range entries {
		ms[i] = e.m
	}
	return ms, nil
}

// idFrames encodes ms as the id batch frames a publisher with ids enc
// writes, without their length words.
func idFrames(t testing.TB, enc *keyIDs, ms []Measurement) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(ms) > 0 {
		frame, rest, err := enc.appendFrame(nil, ms)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame[4:])
		ms = rest
	}
	return frames
}

const (
	twinShards = 4
	twinSpan   = 8
)

var twinMarker = topo.KPIKey{Scope: topo.ScopeService, Entity: "twin", Metric: "marker"}

// twinMarkerBin is past every bin the tests write, so the marker's
// series outlives every prune.
const twinMarkerBin = 400

// unsyncedFS is the real filesystem with fsync turned into a no-op: the
// twins are compared by reading their files back in the same process,
// and a fuzz run opens two of them per input.
type unsyncedFS struct{ faultfs.FS }

type unsyncedFile struct{ faultfs.File }

func (unsyncedFile) Sync() error { return nil }

func (fs unsyncedFS) Create(name string) (faultfs.File, error) {
	f, err := fs.FS.Create(name)
	return unsyncedFile{f}, err
}

func (fs unsyncedFS) Open(name string) (faultfs.File, error) {
	f, err := fs.FS.Open(name)
	return unsyncedFile{f}, err
}

// openTwinStore opens a fresh persistent store with nothing running in
// the background, so that its files change only when a frame lands.
func openTwinStore(t testing.TB, shards, span int) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	opts := persistOptsNoBG(shards)
	opts.ChunkSpan = span
	opts.FS = unsyncedFS{faultfs.OS}
	s, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// twinSide is one of the two stores with what the test observes of it.
type twinSide struct {
	s    *Store
	dir  string
	col  *obs.Collector
	feed *BinFeed
	sub  <-chan Measurement
}

func newTwinSide(t *testing.T) *twinSide {
	s, dir := openTwinStore(t, twinShards, twinSpan)
	col := obs.NewCollector()
	s.SetCollector(col)
	// The feed tracks a subset, so both values of the cached flag occur.
	feed := s.NewBinFeed(func(k topo.KPIKey) bool { return k.Scope != topo.ScopeInstance }, 1<<20)
	t.Cleanup(feed.Close)
	sub, cancel := s.Subscribe(func(k topo.KPIKey) bool { return k != twinMarker }, 1<<18)
	t.Cleanup(func() { cancel() })
	return &twinSide{s: s, dir: dir, col: col, feed: feed, sub: sub}
}

// ingestTwin feeds live over one real ingest connection — one handle
// table for the whole test — and ref through refIngestFrame.
type ingestTwin struct {
	t         *testing.T
	live, ref *twinSide
	srv       *IngestServer
	conn      net.Conn
	w         *bufio.Writer
	steps     int
	batches   int64 // frames sent
	// enc is the connection's key ids as the publisher issues them, ids
	// as the reference reads them.
	enc keyIDs
	ids *logDecoder
}

func newIngestTwin(t *testing.T) *ingestTwin {
	tw := &ingestTwin{t: t, live: newTwinSide(t), ref: newTwinSide(t), ids: newWireIDs()}
	tw.srv = NewIngestServer(tw.live.s)
	addr, err := tw.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tw.srv.Close() })
	if tw.conn, err = net.Dial("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tw.conn.Close() })
	tw.w = bufio.NewWriter(tw.conn)
	return tw
}

// send feeds one frame to both sides.
func (tw *ingestTwin) send(payload []byte) {
	tw.t.Helper()
	if err := WriteFrame(tw.w, payload); err != nil {
		tw.t.Fatal(err)
	}
	tw.batches++
	if err := refIngestFrame(tw.ref.s, tw.ids, payload); err != nil {
		tw.t.Fatalf("reference rejected a frame: %v", err)
	}
}

// frames packs ms into the id batch frames of the twins' one
// connection.
func (tw *ingestTwin) frames(ms []Measurement) [][]byte {
	return idFrames(tw.t, &tw.enc, ms)
}

// compact rotates both logs between two frames: the live side's next
// reference to each series must define it again.
func (tw *ingestTwin) compact() {
	tw.t.Helper()
	for _, side := range []*twinSide{tw.live, tw.ref} {
		if err := side.s.Compact(); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// markerValue reads the marker's bin (NaN until the first step).
func markerValue(s *Store) float64 {
	at := t0.Add(twinMarkerBin * time.Minute)
	vals, _, ok := s.RangeInto(twinMarker, at, at.Add(time.Minute), nil)
	if !ok || len(vals) == 0 {
		return math.NaN()
	}
	return vals[0]
}

// step ends a group of frames: a marker frame follows them, and once
// the live store shows it and the server has counted it every frame up
// to it has been applied and written to the log (a bin is readable a
// moment before its frame's write; the count follows it). Then the two
// sides are compared.
func (tw *ingestTwin) step(what string) {
	tw.t.Helper()
	tw.steps++
	for _, f := range tw.frames([]Measurement{{Key: twinMarker, T: t0.Add(twinMarkerBin * time.Minute), V: float64(tw.steps)}}) {
		tw.send(f)
	}
	if err := tw.w.Flush(); err != nil {
		tw.t.Fatal(err)
	}
	waitFor(tw.t, what+": marker applied", func() bool {
		return markerValue(tw.live.s) == float64(tw.steps) && tw.live.col.Counter(obs.CtrBatchFrames) >= tw.batches
	})
	tw.compare(what)
}

// prune prunes both sides and waits for the compaction each prune
// schedules, so that the logs rotate at the same point of the sequence.
func (tw *ingestTwin) prune(before time.Time) {
	tw.t.Helper()
	for _, side := range []*twinSide{tw.live, tw.ref} {
		want := side.col.Counter(obs.CtrCompactions) + 1
		side.s.Prune(before)
		waitFor(tw.t, "compaction after prune", func() bool { return side.col.Counter(obs.CtrCompactions) >= want })
	}
}

// drainSub empties a subscription channel into per-key sequences.
func drainSub(ch <-chan Measurement) map[topo.KPIKey][]Measurement {
	out := make(map[topo.KPIKey][]Measurement)
	for {
		select {
		case m := <-ch:
			out[m.Key] = append(out[m.Key], m)
		default:
			return out
		}
	}
}

// feedConsumer is the streaming assessor's side of a BinFeed, reduced
// to what the store sees of it: a tracked-key snapshot the filter reads
// lock-free, registration and retirement that republish it and refilter
// only the keys they name, and a drain that remembers every key marked.
// One goroutine registers and retires; drains must not overlap.
type feedConsumer struct {
	feed    *BinFeed
	refs    map[topo.KPIKey]int
	tracked atomic.Pointer[map[topo.KPIKey]struct{}]
	marked  map[topo.KPIKey]bool
}

func newFeedConsumer(s *Store) *feedConsumer {
	fc := &feedConsumer{refs: make(map[topo.KPIKey]int), marked: make(map[topo.KPIKey]bool)}
	fc.feed = s.NewBinFeed(func(k topo.KPIKey) bool {
		m := fc.tracked.Load()
		if m == nil {
			return false
		}
		_, ok := (*m)[k]
		return ok
	}, 0)
	return fc
}

func (fc *feedConsumer) register(keys []topo.KPIKey) { fc.track(keys, +1) }
func (fc *feedConsumer) retire(keys []topo.KPIKey)   { fc.track(keys, -1) }

func (fc *feedConsumer) track(keys []topo.KPIKey, d int) {
	for _, k := range keys {
		if fc.refs[k] += d; fc.refs[k] == 0 {
			delete(fc.refs, k)
		}
	}
	m := make(map[topo.KPIKey]struct{}, len(fc.refs))
	for k := range fc.refs {
		m[k] = struct{}{}
	}
	fc.tracked.Store(&m)
	fc.feed.Refilter(keys)
}

func (fc *feedConsumer) drain() {
	keys, _, _ := fc.feed.Drain(nil)
	for _, k := range keys {
		fc.marked[k] = true
	}
}

// feedFlag reads key's cached tracked flag; false when it has no series.
func feedFlag(s *Store, key topo.KPIKey) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.series[key]
	return e != nil && e.feedTracked
}

// drainFeed returns the feed's dirty keys, sorted.
func drainFeed(t testing.TB, f *BinFeed) []string {
	keys, _, overflow := f.Drain(nil)
	if overflow {
		t.Fatal("feed overflowed")
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	sort.Strings(out)
	return out
}

// compareStores fails unless the two stores hold the same log, the
// same snapshot, the same arrival watermarks and, read as the assessor
// reads them, the same last bins of every series — the window that ends
// in the write-combining line.
func compareStores(t testing.TB, what string, live, ref *Store, liveDir, refDir string) {
	t.Helper()
	name := walName(live.persist.gen) // the twins rotate in step
	got, err := os.ReadFile(filepath.Join(liveDir, name))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(refDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %s differs: %d bytes, reference %d", what, name, len(got), len(want))
	}
	var gotSnap, wantSnap bytes.Buffer
	if err := live.WriteSnapshot(&gotSnap); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteSnapshot(&wantSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap.Bytes(), wantSnap.Bytes()) {
		t.Fatalf("%s: snapshots differ: %d bytes, reference %d", what, gotSnap.Len(), wantSnap.Len())
	}
	var gotWin, wantWin []float64
	for _, k := range ref.Keys() {
		_, g := live.ArrivalWatermark(k)
		_, w := ref.ArrivalWatermark(k)
		if g != w {
			t.Fatalf("%s: %v: arrival watermark present = %v, reference %v", what, k, g, w)
		}
		n, _ := ref.SeriesLen(k)
		from := ref.Start().Add(time.Duration(n-2*pendBins) * time.Minute)
		gotWin, _, g = live.RangeInto(k, from, from.Add(time.Hour), gotWin[:0])
		wantWin, _, w = ref.RangeInto(k, from, from.Add(time.Hour), wantWin[:0])
		if g != w {
			t.Fatalf("%s: %v: last window ok = %v, reference %v", what, k, g, w)
		}
		sameBits(t, gotWin, wantWin, what+": "+k.String()+": last window")
	}
}

func (tw *ingestTwin) compare(what string) {
	t := tw.t
	t.Helper()
	compareStores(t, what, tw.live.s, tw.ref.s, tw.live.dir, tw.ref.dir)
	if got, want := drainFeed(t, tw.live.feed), drainFeed(t, tw.ref.feed); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: feed marked %d keys, reference %d", what, len(got), len(want))
	}
	got, want := drainSub(tw.live.sub), drainSub(tw.ref.sub)
	if len(got) != len(want) {
		t.Fatalf("%s: subscriber saw %d keys, reference %d", what, len(got), len(want))
	}
	for k, ws := range want {
		gs := got[k]
		if len(gs) != len(ws) {
			t.Fatalf("%s: %v: %d deliveries, reference %d", what, k, len(gs), len(ws))
		}
		for i := range ws {
			if !gs[i].T.Equal(ws[i].T) || math.Float64bits(gs[i].V) != math.Float64bits(ws[i].V) {
				t.Fatalf("%s: %v: delivery %d = %+v, reference %+v", what, k, i, gs[i], ws[i])
			}
		}
	}
}

// TestIngestFrameMatchesAppendBatch runs one sequence of frames, the id
// batch frames a publisher writes, through the socket and the
// reference.
func TestIngestFrameMatchesAppendBatch(t *testing.T) {
	t.Run("id-batch", testIngestFrameMatchesAppendBatch)
}

func testIngestFrameMatchesAppendBatch(t *testing.T) {
	tw := newIngestTwin(t)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	keys := fleetKeys(40)
	for i := 0; i < len(keys); i += 5 {
		keys[i].Scope = topo.ScopeInstance // untracked by the feed
	}
	sendAll := func(ms []Measurement) {
		t.Helper()
		for _, f := range tw.frames(ms) {
			tw.send(f)
		}
	}
	binOf := func(bin int, val func(ki int) float64) []Measurement {
		var ms []Measurement
		for ki, k := range keys {
			ms = append(ms, Measurement{k, at(bin), val(ki)})
		}
		return ms
	}

	sendAll(binOf(0, func(ki int) float64 { return float64(ki) }))
	tw.step("first sight, mixed shards")

	// The orders the ids have to survive: the last frame's again, its
	// reverse, rotated by one, one key back to back. Every one must land
	// as the reference's decode does, with no define.
	reordered := func(bin int, order func(i int) int) []Measurement {
		ms := binOf(bin, func(ki int) float64 { return float64(bin*100 + ki) })
		out := make([]Measurement, len(ms))
		for i := range ms {
			out[i] = ms[order(i)]
		}
		return out
	}
	defines := tw.live.col.Counter(obs.CtrIngestKeyLookups)
	sendAll(reordered(1, func(i int) int { return i }))
	tw.step("the same order again")
	if got := tw.live.col.Counter(obs.CtrIngestKeyLookups) - defines; got > 2 {
		t.Fatalf("%d defines for a bin of keys the connection named, want at most 2", got)
	}
	sendAll(reordered(1, func(i int) int { return len(keys) - 1 - i }))
	tw.step("reversed order")
	sendAll(reordered(1, func(i int) int { return (i + 1) % len(keys) }))
	tw.step("rotated by one")
	if got := tw.live.col.Counter(obs.CtrIngestKeyLookups) - defines; got > 6 {
		t.Fatalf("%d defines for three bins of references, want at most 6", got)
	}
	sendAll([]Measurement{{keys[6], at(1), 1}, {keys[6], at(1), 2}, {keys[6], at(2), 3}, {keys[7], at(1), 4}, {keys[7], at(1), 5}, {keys[5], at(1), 6}})
	tw.step("one key back to back")

	sendAll([]Measurement{
		{keys[3], at(1), 1}, {keys[7], at(1), 2}, {keys[3], at(1), 3}, // same key, same bin: the later wins
		{keys[3], at(2), 4}, {keys[3], at(1), math.NaN()}, {keys[7], at(3), math.Inf(-1)},
	})
	tw.step("duplicate keys in one frame")

	fresh := topo.KPIKey{Scope: topo.ScopeServer, Entity: "never", Metric: "stored"}
	sendAll([]Measurement{{keys[1], at(-5), 9}, {keys[2], at(1), 8}, {fresh, at(-1), 7}, {keys[1], at(1), 6}})
	sendAll([]Measurement{{fresh, at(-2), 1}, {fresh, t0.Add(-time.Nanosecond), 2}})
	if _, ok := tw.ref.s.Series(fresh); ok {
		t.Fatal("a pre-epoch sample created a series")
	}
	tw.step("pre-epoch samples")

	for bin := 2; bin <= 3*twinSpan; bin++ {
		sendAll(binOf(bin, func(ki int) float64 { return float64(bin*100 + ki) }))
	}
	tw.step("chunks sealed")

	// A rotation between two frames: every series' next measurement
	// defines it in the new log generation, and arrives as a reference,
	// so the define is rebuilt from the key.
	tw.compact()
	sendAll(binOf(3*twinSpan+1, func(ki int) float64 { return float64(ki) - 0.5 }))
	tw.step("the first bin after a log rotation")

	// A bin over two frames, the second of which starts it again.
	mixed := binOf(3*twinSpan+2, func(ki int) float64 { return float64(ki) * 3 })
	sendAll(mixed[len(mixed)/2:])
	sendAll(mixed[:3])
	tw.step("a bin over two frames")

	sendAll([]Measurement{{keys[4], at(2), -2}, {keys[9], at(twinSpan + 1), -3}, {keys[4], at(3), -4}})
	tw.step("late writes into sealed chunks")

	sendAll([]Measurement{{keys[5], at(60), 60}, {keys[6], at(90), 90}, {keys[5], at(45), 45}})
	tw.step("gaps")

	// One frame, one shard, more than walGroupCap of bodies: the shard's
	// group record is cut inside the frame.
	var wide []Measurement
	for i := 0; len(wide) < 700; i++ {
		k := topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("wide-%04d-%060d", i, i), Metric: "m"}
		if tw.ref.s.shardIndex(k) == 1 {
			wide = append(wide, Measurement{k, at(5), float64(i)})
		}
	}
	frames := idFrames(t, new(keyIDs), wide)
	if len(frames[0]) <= walGroupCap+4096 {
		t.Fatalf("frame of %d bytes does not cross the group cap", len(frames[0]))
	}
	sendAll(wide)
	tw.step("a frame that crosses walGroupCap")

	// The frame Publish writes, a single entry.
	sendAll([]Measurement{{keys[8], at(30), 0.5}})
	sendAll([]Measurement{{keys[8], at(30), 0.5}})
	tw.step("one-entry frames")

	// More distinct keys than the table interns: the last ones get
	// one-frame handles, every time they appear.
	many := make([]Measurement, maxKeyCacheEntries+3000)
	for i := range many {
		many[i] = Measurement{topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("u%d", i), Metric: "m"}, at(50), float64(i)}
	}
	sendAll(many)
	tw.step("more keys than the table interns")
	var again []Measurement
	for i := 0; i < 400; i++ {
		for _, m := range []Measurement{many[len(many)-1-i], many[i]} {
			again = append(again, Measurement{m.Key, at(51), m.V + 1}, Measurement{m.Key, at(52), m.V + 2})
		}
	}
	sendAll(again)
	tw.step("keys past the cap again, mixed with interned ones")
	sendAll([]Measurement{
		{many[len(many)-1].Key, at(53), 1}, {many[len(many)-2].Key, at(53), 2}, // a frame that starts past the cap,
		{many[0].Key, at(53), 3}, {many[1].Key, at(53), 4}, //                     comes back to the first handles
		{many[len(many)-1].Key, at(53), 5}, {keys[0], at(53), 6}, //               and leaves again
	})
	tw.step("a frame that starts past the cap")
	if got := tw.live.col.Counter(obs.CtrIngestKeyResolves); got < int64(len(many)+400) {
		t.Fatalf("%d key resolves counted for %d keys, 400 of them past the cap twice", got, len(many))
	}

	// A prune that drops whole series (everything written so far but the
	// gap writers and the marker) and cuts into the others.
	before := tw.live.s.Len()
	tw.prune(at(55))
	if after := tw.live.s.Len(); after >= before || after == 0 {
		t.Fatalf("prune left %d of %d series", after, before)
	}
	resolves := tw.live.col.Counter(obs.CtrIngestKeyResolves)
	sendAll(binOf(56, func(ki int) float64 { return float64(ki) }))
	sendAll(binOf(54, func(ki int) float64 { return -1 }))                // before the new epoch
	sendAll(binOf(57, func(ki int) float64 { return float64(ki) + 0.5 })) // by id, through handles the prune emptied
	tw.step("dropped series come back after a prune")
	if got := tw.live.col.Counter(obs.CtrIngestKeyResolves) - resolves; got != int64(len(keys))+1 {
		t.Fatalf("%d key resolves after the prune, want one per key sent (%d) and the marker", got, len(keys))
	}
	tw.prune(at(57))
	sendAll(binOf(58, func(ki int) float64 { return float64(ki) }))
	tw.step("a prune that drops nothing whole")

	// A prune storm: each prune rotates the log, and the handles and ids
	// the connection holds outlive all of them.
	for bin := 59; bin < 63; bin++ {
		tw.prune(at(bin - 1))
		sendAll(binOf(bin, func(ki int) float64 { return float64(bin + ki) }))
		tw.step(fmt.Sprintf("prune storm, bin %d", bin))
	}

	// A frame the decoder rejects drops the connection and nothing else.
	bad := append(tw.frames(binOf(63, func(int) float64 { return 1 }))[0], 0)
	if err := refIngestFrame(tw.ref.s, tw.ids, bad); err == nil {
		t.Fatal("reference accepted a frame with a trailing byte")
	}
	if err := WriteFrame(tw.w, bad); err != nil {
		t.Fatal(err)
	}
	if err := tw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "connection dropped", func() bool { return tw.live.col.Counter(obs.CtrConnDrops) == 1 })
	tw.compare("rejected frame")
}

// TestIngestTableDropsPrunedSeries checks the other half of the handle
// rule: after a prune, the first frame a connection applies clears its
// pointers to the entries the prune dropped, so the table does not keep
// their chunks alive.
func TestIngestTableDropsPrunedSeries(t *testing.T) {
	s := NewStoreShards(t0, time.Minute, twinShards)
	s.SetChunkSpan(4)
	srv := NewIngestServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pub, err := DialPublisher(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	marker := func(v float64) {
		t.Helper()
		if err := pub.PublishBatch([]Measurement{{twinMarker, t0.Add(twinMarkerBin * time.Minute), v}}); err != nil {
			t.Fatal(err)
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "marker applied", func() bool { return markerValue(s) == v })
	}

	keys := fleetKeys(10)
	var ms []Measurement
	for bin := 0; bin < 10; bin++ {
		for ki, k := range keys {
			ms = append(ms, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin + ki)})
		}
	}
	if err := pub.PublishBatch(ms); err != nil {
		t.Fatal(err)
	}
	marker(1)

	var freed atomic.Int64
	collected := make(chan struct{}, len(keys))
	func() {
		for _, k := range keys {
			sh := s.shardFor(k)
			sh.mu.Lock()
			e := sh.series[k]
			if len(e.chunks) == 0 {
				t.Errorf("%v has no sealed chunk", k)
			}
			runtime.SetFinalizer(e, func(*seriesEntry) {
				freed.Add(1)
				collected <- struct{}{}
			})
			sh.mu.Unlock()
		}
	}()
	s.Prune(t0.Add(20 * time.Minute))
	if s.Len() != 1 {
		t.Fatalf("prune left %d series, want the marker alone", s.Len())
	}
	// Nothing has arrived since the prune: the table still points at the
	// dropped entries, which is all that keeps them reachable.
	runtime.GC()
	if n := freed.Load(); n != 0 {
		t.Fatalf("%d dropped entries collected while the connection's table still held them", n)
	}
	marker(2)
	for n := 0; n < len(keys); {
		runtime.GC()
		select {
		case <-collected:
			n++
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d dropped entries collected after the connection's next frame", freed.Load(), len(keys))
		}
	}
}

// TestIngestHandlesAcrossPruneStorm streams from several publishers
// over real sockets while prunes keep dropping whole series and a feed
// consumer registers and retires keys, refiltering only the keys it
// names. A handle that outlived its entry would write into a series
// the store no longer holds, and the measurement would be missing at the
// end; so the final contents must equal a serial reference. A keyed
// Refilter that missed a flag, or flipped one it was not given, would
// mark a different set of keys than the same schedule replayed serially;
// so the marked keys and the final flags must equal the reference's too.
func TestIngestHandlesAcrossPruneStorm(t *testing.T) {
	const (
		pubs    = 3
		steady  = 6  // keys a publisher writes every round
		bursty  = 10 // keys it writes in the first rounds of every cycle
		cycle   = 12 // rounds
		burstOn = 3
		cycles  = 8
	)
	s := NewStoreShards(t0, time.Minute, twinShards)
	s.SetChunkSpan(4)
	col := obs.NewCollector()
	s.SetCollector(col)
	srv := NewIngestServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	live := newFeedConsumer(s)
	defer live.feed.Close()
	quit := make(chan struct{})
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for {
			select {
			case <-live.feed.C():
				live.drain()
			case <-quit:
				return
			}
		}
	}()
	stopDrainer := sync.OnceFunc(func() {
		close(quit)
		drainer.Wait()
	})
	defer stopDrainer()

	at := func(round int) time.Time { return t0.Add(time.Duration(round) * time.Minute) }
	steadyKey := func(p, k int) topo.KPIKey {
		return topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("p%d-steady-%d", p, k), Metric: "m"}
	}
	burstKey := func(p, k int) topo.KPIKey {
		return topo.KPIKey{Scope: topo.ScopeInstance, Entity: fmt.Sprintf("p%d-burst-%d", p, k), Metric: "m"}
	}
	roundOf := func(p, r int) []Measurement {
		var ms []Measurement
		for k := 0; k < steady; k++ {
			ms = append(ms, Measurement{steadyKey(p, k), at(r), float64(r*10 + k)})
		}
		if r%cycle < burstOn {
			for k := 0; k < bursty; k++ {
				ms = append(ms, Measurement{burstKey(p, k), at(r), float64(r*10 + k)})
			}
		}
		return ms
	}
	// The keys cycle c's "change" covers: one steady key per publisher
	// and one burst key, which has no series when it is registered (the
	// last prune dropped it) and must get its flag at creation. The
	// consumer registers them while the publishers wait for the cycle to
	// start, so every one is written, and marked, while tracked; the
	// last steady key of each publisher and most burst keys are never
	// tracked and must never be marked.
	changeKeys := func(c int) []topo.KPIKey {
		keys := []topo.KPIKey{burstKey(c%pubs, c%bursty)}
		for p := 0; p < pubs; p++ {
			keys = append(keys, steadyKey(p, c%(steady-1)))
		}
		return keys
	}
	// storm is what the consumer does inside cycle c, between the burst
	// and the next cycle: retire the cycle's keys under the publishers'
	// feet, register and retire them again around every prune, and
	// leave the next cycle's keys registered. The reference replays it
	// with nothing running beside it.
	storm := func(fc *feedConsumer, c int, prunes []func()) {
		fc.retire(changeKeys(c))
		for _, prune := range prunes {
			fc.register(changeKeys(c))
			prune()
			fc.retire(changeKeys(c))
		}
		fc.register(changeKeys(c + 1))
	}
	live.register(changeKeys(0))

	// A publisher streams a cycle without waiting for anybody, and starts
	// the next one — the next burst — once this cycle's prunes are done.
	pruned := make([]chan struct{}, cycles)
	for i := range pruned {
		pruned[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pub, err := DialPublisher(addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer pub.Close()
			for r := 0; r < cycles*cycle; r++ {
				if err := pub.PublishBatch(roundOf(p, r)); err != nil {
					t.Error(err)
					return
				}
				if err := pub.Flush(); err != nil {
					t.Error(err)
					return
				}
				if r%cycle == cycle-1 {
					<-pruned[r/cycle]
				}
			}
		}(p)
	}
	for c := 0; c < cycles; c++ {
		// Once the round after the burst shows, the burst has been applied.
		after := c*cycle + burstOn
		for p := 0; p < pubs; p++ {
			waitFor(t, "burst applied", func() bool {
				n, _ := s.SeriesLen(steadyKey(p, 0))
				return n+int(s.Start().Sub(t0)/time.Minute) > after
			})
		}
		// The publishers are streaming the rest of the cycle. Cut into
		// the burst's series, then drop them whole — but for the last
		// burst, which has to be there at the end, in the entries the
		// handles of the bursts before it must not reach.
		cuts := []int{after - 2, after - 1, after}
		if c == cycles-1 {
			cuts = cuts[:1]
		}
		for _, k := range changeKeys(c) {
			if !feedFlag(s, k) {
				t.Fatalf("cycle %d: %v is tracked and has a series, but its flag is down", c, k)
			}
		}
		if k := steadyKey(0, steady-1); feedFlag(s, k) {
			t.Fatalf("cycle %d: %v was never tracked, but its flag is up", c, k)
		}
		var prunes []func()
		for _, before := range cuts {
			prunes = append(prunes, func() { s.Prune(at(before)) })
		}
		storm(live, c, prunes)
		for _, k := range s.Keys() {
			if k.Scope == topo.ScopeInstance && c < cycles-1 {
				t.Fatalf("cycle %d: %v survived a prune past its last bin", c, k)
			}
		}
		close(pruned[c])
	}
	wg.Wait()
	// The publishers have hung up; let their handlers read to EOF before
	// Close, which ends any connection still open.
	waitFor(t, "publisher handlers drained", func() bool { return col.Counter(obs.CtrConnsActive) == 0 })
	srv.Close()
	srv.Wait()
	if t.Failed() {
		return
	}
	if n := col.Counter(obs.CtrConnDrops); n != 0 {
		t.Fatalf("%d connections dropped", n)
	}

	stopDrainer()
	live.drain()

	ref := NewStoreShards(t0, time.Minute, twinShards)
	ref.SetChunkSpan(4)
	serial := newFeedConsumer(ref)
	defer serial.feed.Close()
	serial.register(changeKeys(0))
	for c := 0; c < cycles; c++ {
		for p := 0; p < pubs; p++ {
			for r := c * cycle; r < (c+1)*cycle; r++ {
				ref.AppendBatch(roundOf(p, r))
			}
		}
		storm(serial, c, nil)
	}
	serial.drain()
	ref.Prune(s.Start())
	everTracked := make(map[topo.KPIKey]bool)
	for c := 0; c < cycles; c++ {
		for _, k := range changeKeys(c) {
			everTracked[k] = true
		}
	}
	if !reflect.DeepEqual(serial.marked, everTracked) {
		t.Fatalf("the serial reference marked %v, want every key a cycle tracked: %v", serial.marked, everTracked)
	}
	if !reflect.DeepEqual(live.marked, serial.marked) {
		t.Fatalf("marked keys differ from the serial reference:\n got %v\nwant %v", live.marked, serial.marked)
	}
	for _, k := range ref.Keys() {
		if got, want := feedFlag(s, k), feedFlag(ref, k); got != want {
			t.Fatalf("%v: feed flag %v, reference %v", k, got, want)
		}
	}
	if !ref.Start().Equal(s.Start()) {
		t.Fatalf("epochs differ: %v, reference %v", s.Start(), ref.Start())
	}
	if got, want := s.Len(), ref.Len(); got != want || want != pubs*(steady+bursty) {
		t.Fatalf("%d series, reference %d, want %d", got, want, pubs*(steady+bursty))
	}
	for _, k := range ref.Keys() {
		want, _ := ref.Series(k)
		got, ok := s.Series(k)
		if !ok || got.Len() != want.Len() {
			t.Fatalf("%v: missing or %d bins, reference %d", k, got.Len(), want.Len())
		}
		for i, w := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(w) {
				t.Fatalf("%v bin %d = %v, reference %v", k, i, got.Values[i], w)
			}
		}
	}
}

// fuzzHorizonBins bounds how far past the epoch a fuzzed timestamp may
// lie: the store grows a series up to the bin it is told to write, here
// as at the parent, and that growth is not this target's subject.
const fuzzHorizonBins = 4096

// FuzzIngestFrame: an arbitrary payload that follows a warm-up on the
// connection is either rejected by the socket path and by the
// reference, leaving store and logs untouched, or lands identically on
// both twins — twice, so that the second application goes through the
// handles and ids the first one left. A rejection ends the run, as it
// ends the connection.
func FuzzIngestFrame(f *testing.F) {
	for _, seed := range ingestFrameSeeds(f) {
		f.Add(seed)
	}
	warm := ingestIDWarm(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		// A decoder warmed up as the reference will be reads the payload
		// first.
		pre := newWireIDs()
		for _, frame := range warm {
			if _, err := decodeIDFrame(pre, frame); err != nil {
				t.Fatal(err)
			}
		}
		ms, refErr := decodeIDFrame(pre, payload)
		for _, m := range ms {
			if m.T.Sub(t0) > fuzzHorizonBins*time.Minute {
				t.Skip("timestamp past the horizon")
			}
		}
		live, liveDir := openTwinStore(t, 2, 4)
		ref, refDir := openTwinStore(t, 2, 4)
		table, ids := newKeyTable(live, maxKeyCacheEntries), newWireIDs()
		for _, frame := range warm {
			if err := table.ingestFrame(frame); err != nil {
				t.Fatal(err)
			}
			if err := refIngestFrame(ref, ids, frame); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			err := table.ingestFrame(payload)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("ingestFrame error %v, reference error %v", err, refErr)
			}
			if err == nil {
				if err := refIngestFrame(ref, ids, payload); err != nil {
					t.Fatal(err)
				}
			}
			compareStores(t, fmt.Sprintf("round %d", round), live, ref, liveDir, refDir)
			if err != nil {
				return
			}
		}
	})
}

// ingestSeedBatch is bins [lo, hi) of a small fleet with sealed chunks
// at span 4, spread over both shards of the fuzz twins.
func ingestSeedBatch(lo, hi int) []Measurement {
	var ms []Measurement
	for bin := lo; bin < hi; bin++ {
		for ki, k := range fleetKeys(6) {
			ms = append(ms, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin*10 + ki)})
		}
	}
	return ms
}

// ingestFrameSeeds are the well-formed seeds of FuzzIngestFrame, each
// as the publisher of the warm-up writes it next; the corpus under
// testdata/fuzz/FuzzIngestFrame holds the malformed ones (a count one
// too many and one too few, a bad scope byte, a truncated tail, a
// trailing byte, a zero count, a bare type byte, another frame type,
// nothing at all), which as batch (0x04) and single-measurement (0x01)
// frames also pin the socket's refusal of those two forms.
func ingestFrameSeeds(t testing.TB) [][]byte {
	k := fleetKeys(6)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	frame := func(ms ...Measurement) []byte {
		var enc keyIDs
		idFrames(t, &enc, ingestSeedBatch(0, 11))
		return idFrames(t, &enc, ms)[0]
	}
	ordered := func(order func(i int) int) []byte {
		ms := make([]Measurement, len(k))
		for i := range k {
			ms[i] = Measurement{k[order(i)], at(11), float64(i)}
		}
		return frame(ms...)
	}
	fresh := topo.KPIKey{Scope: topo.ScopeService, Entity: "new", Metric: "qps"}
	return [][]byte{
		frame(ingestSeedBatch(11, 13)...),
		frame(Measurement{k[0], at(2), 1}, Measurement{k[1], at(30), 2}, Measurement{k[0], at(2), 3}, Measurement{k[0], at(-1), 4}),
		frame(Measurement{k[2], at(12), 0.25}),
		frame(Measurement{fresh, at(3), math.NaN()}, Measurement{fresh, at(4), 1}),
		ordered(func(i int) int { return i }),
		ordered(func(i int) int { return len(k) - 1 - i }),
		ordered(func(i int) int { return (i + 1) % len(k) }),
		frame(Measurement{k[3], at(11), 1}, Measurement{k[3], at(11), 2}, Measurement{k[3], at(12), 3}, Measurement{k[4], at(11), 4}),
	}
}

// TestBinClockMatchesBinAt pins the integer bin arithmetic of the wire
// path to the time.Time arithmetic Append uses, at the edges: around the
// epoch, at both ends of the int64 range (where Time.Sub saturates), and
// for an epoch Unix nanoseconds cannot express.
func TestBinClockMatchesBinAt(t *testing.T) {
	epochs := []struct {
		start time.Time
		exact bool
	}{
		{t0, true}, {time.Unix(0, 0), true},
		{time.Unix(0, math.MinInt64+5), true}, {time.Unix(0, math.MaxInt64-5), true},
		{time.Time{}, false}, {time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC), false},
	}
	for _, e := range epochs {
		start := e.start
		s := NewStore(start, time.Minute)
		clk := s.binClockLocked()
		if clk.exact != e.exact {
			t.Fatalf("epoch %v: exact = %v", start, clk.exact)
		}
		near := start.UnixNano()
		for _, nanos := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, near - 1, near, near + 1, near + int64(time.Minute) - 1, near + int64(time.Minute), t0.UnixNano(), math.MaxInt64 - 1, math.MaxInt64} {
			gotBin, gotOK := clk.bin(nanos)
			wantBin, wantOK := binAt(start, time.Minute, time.Unix(0, nanos))
			if gotOK != wantOK || gotOK && gotBin != wantBin {
				t.Fatalf("epoch %v, t %d: bin %d %v, binAt %d %v", start, nanos, gotBin, gotOK, wantBin, wantOK)
			}
		}
	}
}
