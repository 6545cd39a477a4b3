package monitor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Tests of the id batch frame (0x05): a publisher names a key once per
// connection and by a small id after; the socket path must land it as
// the store reference model and AppendBatch do (model_test.go), reject
// what a decode of the connection's ids rejects, keep its id table
// bounded, and start the ids afresh on every connection.

// recordingConn keeps every Write a publisher makes.
type recordingConn struct {
	net.Conn // nil: a publisher only writes to and closes its conn
	writes   [][]byte
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(b))
	return len(b), nil
}

func (c *recordingConn) Close() error { return nil }

// splitWrites decodes the frames in writes with the connection's ids,
// failing unless every write holds whole frames.
func splitWrites(t *testing.T, ids *logDecoder, writes [][]byte) (ms []Measurement, frames, size int) {
	t.Helper()
	for i, w := range writes {
		size += len(w)
		for len(w) > 0 {
			if len(w) < 4 || len(w) < 4+int(binary.BigEndian.Uint32(w)) {
				t.Fatalf("write %d of %d ends inside a frame", i, len(writes))
			}
			n := int(binary.BigEndian.Uint32(w))
			got, err := decodeIDFrame(ids, w[4:4+n])
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			ms = append(ms, got...)
			frames++
			w = w[4+n:]
		}
	}
	return ms, frames, size
}

// TestPublisherWritesWholeFrames: a publisher hands the connection one
// write per frame of a wide bin (the length word used to go out with
// the buffer's first 4 KiB and the rest of the frame in a second write),
// never a write that ends inside a frame, and a steady bin costs the
// socket at most 19 bytes a measurement.
func TestPublisherWritesWholeFrames(t *testing.T) {
	conn := &recordingConn{}
	pub := newPublisher(conn)
	ids := newWireIDs()
	keys := fleetKeys(4000)
	bin := func(b int) []Measurement {
		ms := make([]Measurement, len(keys))
		for i, k := range keys {
			ms[i] = Measurement{k, t0.Add(time.Duration(b) * time.Minute), float64(b*1000 + i)}
		}
		return ms
	}
	publish := func(ms []Measurement) (writes, frames, size int) {
		t.Helper()
		w0 := len(conn.writes)
		if err := pub.PublishBatch(ms); err != nil {
			t.Fatal(err)
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
		got, frames, size := splitWrites(t, ids, conn.writes[w0:])
		if len(got) != len(ms) {
			t.Fatalf("%d measurements decoded, %d published", len(got), len(ms))
		}
		for i := range ms {
			if got[i].Key != ms[i].Key || !got[i].T.Equal(ms[i].T) || math.Float64bits(got[i].V) != math.Float64bits(ms[i].V) {
				t.Fatalf("measurement %d decoded as %+v, published %+v", i, got[i], ms[i])
			}
		}
		return len(conn.writes) - w0, frames, size
	}
	for b := 0; b < 3; b++ {
		ms := bin(b)
		writes, frames, size := publish(ms)
		if writes != frames || frames < 2 {
			t.Fatalf("bin %d: %d writes for %d frames, want one a frame and several frames", b, writes, frames)
		}
		if b == 0 {
			continue
		}
		var defines int
		for _, f := range idFrames(t, new(keyIDs), ms) {
			defines += 4 + len(f)
		}
		per := float64(size) / float64(len(ms))
		t.Logf("a steady bin of %d: %.2f socket bytes a measurement, %.2f as defines", len(ms), per, float64(defines)/float64(len(ms)))
		if per > 19 {
			t.Fatalf("a steady bin costs %.2f socket bytes a measurement, want at most 19", per)
		}
	}
	// A small frame left in the buffer goes out before a large one, on
	// its own.
	w0 := len(conn.writes)
	if err := pub.PublishBatch(bin(3)[:10]); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != w0 {
		t.Fatal("a small frame was written before a Flush")
	}
	if err := pub.PublishBatch(bin(4)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	got, frames, _ := splitWrites(t, ids, conn.writes[w0:])
	if len(got) != 10+len(keys) || len(conn.writes)-w0 != frames {
		t.Fatalf("%d measurements in %d writes of %d frames, want %d in one write a frame", len(got), len(conn.writes)-w0, frames, 10+len(keys))
	}
}

// TestIngestIDTableIsBounded: a connection that defines more keys than
// the cap issues ids to the first maxKeyCacheEntries only, on both
// sides and to the same keys; the keys past it go as defines every
// time, and land.
func TestIngestIDTableIsBounded(t *testing.T) {
	st := NewStoreShards(t0, time.Minute, 4)
	table, ref := newKeyTable(st, maxKeyCacheEntries), newWireIDs()
	var enc keyIDs
	keys := make([]topo.KPIKey, maxKeyCacheEntries+10)
	for i := range keys {
		keys[i] = topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("b%d", i), Metric: "m"}
	}
	value := func(bin, i int) float64 { return float64(bin*len(keys) + i) }
	for bin, want := range []int{len(keys), 10} {
		ms := make([]Measurement, len(keys))
		for i, k := range keys {
			ms[i] = Measurement{k, t0.Add(time.Duration(bin) * time.Minute), value(bin, i)}
		}
		defines := 0
		for _, f := range idFrames(t, &enc, ms) {
			entries, err := ref.record(0, f[3:])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.define {
					defines++
				}
			}
			if err := table.ingestFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if defines != want {
			t.Fatalf("bin %d: %d defines, want %d", bin, defines, want)
		}
	}
	if table.issued != maxKeyCacheEntries || len(enc.keys) != maxKeyCacheEntries || len(ref.ids[0]) != maxKeyCacheEntries {
		t.Fatalf("ids issued: server %d, publisher %d, reference %d, want %d each", table.issued, len(enc.keys), len(ref.ids[0]), maxKeyCacheEntries)
	}
	for i, h := range table.handles[:table.issued] {
		if k := h.key; k != enc.keys[i] || k != ref.ids[0][i] {
			t.Fatalf("id %d: server %v, publisher %v, reference %v", i+1, k, enc.keys[i], ref.ids[0][i])
		}
	}
	for _, i := range []int{0, maxKeyCacheEntries - 1, maxKeyCacheEntries, len(keys) - 1} {
		s, ok := st.Series(keys[i])
		if !ok || s.Len() != 2 || s.Values[0] != value(0, i) || s.Values[1] != value(1, i) {
			t.Fatalf("%v: series %v, want %v then %v", keys[i], s, value(0, i), value(1, i))
		}
	}
}

// ingestIDWarm is the warm-up of FuzzIngestIDStream: eleven bins of
// fleetKeys(6) as a publisher writes them, which issue ids 1–6.
func ingestIDWarm(t testing.TB) [][]byte {
	var enc keyIDs
	return idFrames(t, &enc, ingestSeedBatch(0, 11))
}

// idRef is a reference entry: id, then bin's timestamp and v.
func idRef(id uint64, bin int, v float64) []byte {
	b := binary.AppendUvarint(nil, id)
	b = binary.BigEndian.AppendUint64(b, uint64(t0.Add(time.Duration(bin)*time.Minute).UnixNano()))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// idDefine is a define entry.
func idDefine(m Measurement) []byte {
	b, _ := appendMeasurementBody([]byte{0}, m)
	return b
}

// idFrame is an id batch frame that counts count entries.
func idFrame(count int, entries ...[]byte) []byte {
	b := binary.BigEndian.AppendUint16([]byte{frameBatchID}, uint16(count))
	for _, e := range entries {
		b = append(b, e...)
	}
	return b
}

// ingestIDSeed is one seed of FuzzIngestIDStream, and whether it is
// well-formed after the warm-up.
type ingestIDSeed struct {
	name    string
	payload []byte
	ok      bool
}

func ingestIDSeeds() []ingestIDSeed {
	k := fleetKeys(6)
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	fresh := topo.KPIKey{Scope: topo.ScopeService, Entity: "new", Metric: "qps"}
	var every [][]byte
	for id := 1; id <= len(k); id++ {
		every = append(every, idRef(uint64(id), 11, float64(id)))
	}
	badScope := idDefine(Measurement{fresh, at(3), 1})
	badScope[1] = 9
	single, _ := EncodeMeasurement(Measurement{k[0], at(11), 1})
	batch, _ := EncodeBatch([]Measurement{{k[0], at(11), 1}})
	return []ingestIDSeed{
		{"a reference to every id", idFrame(len(every), every...), true},
		{"a define and a reference to its id", idFrame(3, idDefine(Measurement{fresh, at(3), 1}), idRef(7, 4, 2), idRef(1, 12, 3)), true},
		{"a key defined again", idFrame(2, idDefine(Measurement{k[0], at(12), 5}), idRef(7, 13, 6)), true},
		{"an id in three bytes", idFrame(1, append([]byte{0x81, 0x80, 0x00}, idRef(1, 14, 7)[1:]...)), true},
		{"a pre-epoch reference", idFrame(2, idRef(2, -1, 1), idRef(3, 15, 2)), true},
		{"an id not issued", idFrame(1, idRef(7, 11, 1)), false},
		{"a reference ahead of its define", idFrame(2, idRef(7, 11, 1), idDefine(Measurement{fresh, at(3), 1})), false},
		{"id 0", idFrame(1, append([]byte{0x80, 0x00}, idRef(1, 11, 1)[1:]...)), false},
		{"a truncated reference", idFrame(1, idRef(1, 11, 1)[:10]), false},
		{"a truncated define", idFrame(1, idDefine(Measurement{fresh, at(3), 1})[:12]), false},
		{"a bad scope", idFrame(1, badScope), false},
		{"a count one too many", idFrame(2, idRef(1, 11, 1)), false},
		{"a count one too few", idFrame(1, idRef(1, 11, 1), idRef(2, 11, 2)), false},
		{"a trailing byte", append(idFrame(1, idRef(1, 11, 1)), 0x01), false},
		{"a zero count", idFrame(0), false},
		{"a single-measurement frame (0x01)", single, false},
		{"a batch frame (0x04)", batch, false},
	}
}

// FuzzIngestIDStream: an id batch frame that follows a warm-up which
// issued ids 1–6 on the connection (see fuzzIngestPayload).
func FuzzIngestIDStream(f *testing.F) {
	for _, seed := range ingestIDSeeds() {
		f.Add(seed.payload)
	}
	warm := ingestIDWarm(f)
	f.Fuzz(func(t *testing.T, payload []byte) { fuzzIngestPayload(t, warm, payload) })
}

// fuzzIngestPayload applies an arbitrary payload after the warm-up, on
// one connection, twice — so that the second application reads the ids
// the first one's defines were issued. The socket path rejects it when
// the reference decode of the connection's ids does, and otherwise lands
// it as the store reference model says; after every frame its live log
// and snapshot are byte-identical to a store's that took each accepted
// frame as AppendBatch of what the decode read.
func fuzzIngestPayload(t *testing.T, warm [][]byte, payload []byte) {
	s, dir := openTestStore(t, 2, 4)
	ref, refDir := openTestStore(t, 2, 4)
	table, ids, m := newKeyTable(s, maxKeyCacheEntries), newWireIDs(), newStoreModel(t0, 4)
	rng := rand.New(rand.NewSource(int64(len(payload))))
	for _, frame := range slices.Concat(warm, [][]byte{payload, payload}) {
		ms, refErr := decodeIDFrame(ids, frame)
		for _, x := range ms {
			if refErr == nil && x.T.Sub(t0) > fuzzHorizonBins*time.Minute {
				t.Skip("timestamp past the horizon")
			}
		}
		err := table.ingestFrame(frame)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("ingestFrame error %v, reference error %v", err, refErr)
		}
		if err == nil {
			ref.AppendBatch(ms)
			m.apply(ms)
			m.check(t, s, nil, rng)
		}
		gotLog, gotSnap := logAndSnapshot(t, s, dir)
		wantLog, wantSnap := logAndSnapshot(t, ref, refDir)
		if !bytes.Equal(gotLog, wantLog) || !bytes.Equal(gotSnap, wantSnap) {
			t.Fatalf("the socket path left %d log bytes and a %d-byte snapshot, AppendBatch %d and %d (frame error %v)",
				len(gotLog), len(gotSnap), len(wantLog), len(wantSnap), err)
		}
		if err != nil {
			return
		}
	}
}

// logAndSnapshot returns the bytes of s's live log and a snapshot of s.
func logAndSnapshot(t *testing.T, s *Store, dir string) ([]byte, []byte) {
	log, err := os.ReadFile(filepath.Join(dir, walName(s.persist.gen)))
	if err != nil {
		t.Fatal(err)
	}
	return log, snapshotBytes(t, s)
}

// TestIngestIDFrameRejects sends each malformed seed of
// FuzzIngestIDStream over a connection of its own after the warm-up:
// the server drops the connection and the log and snapshot stay as the
// warm-up left them.
func TestIngestIDFrameRejects(t *testing.T) {
	s, dir := openTestStore(t, 2, 4)
	col := obs.NewCollector()
	s.SetCollector(col)
	srv := NewIngestServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	warm := ingestIDWarm(t)
	state := func() ([]byte, []byte) { return logAndSnapshot(t, s, dir) }
	var frames, drops int64
	for _, seed := range ingestIDSeeds() {
		if seed.ok {
			continue
		}
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(conn)
		for _, f := range warm {
			if err := WriteFrame(w, f); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		frames += int64(len(warm))
		waitFor(t, seed.name+": warm-up applied", func() bool { return col.Counter(obs.CtrBatchFrames) == frames })
		log, snap := state()
		if err := WriteFrame(w, seed.payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		drops++
		waitFor(t, seed.name+": connection dropped", func() bool { return col.Counter(obs.CtrConnDrops) == drops })
		gotLog, gotSnap := state()
		if !bytes.Equal(gotLog, log) || !bytes.Equal(gotSnap, snap) {
			t.Fatalf("%s: the rejected frame changed the log (%d → %d bytes) or the snapshot", seed.name, len(log), len(gotLog))
		}
		conn.Close()
	}
}

// tapListener records the bytes every accepted connection delivers.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*bytes.Buffer
}

type tapConn struct {
	net.Conn
	l   *tapListener
	buf *bytes.Buffer
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	buf := new(bytes.Buffer)
	l.mu.Lock()
	l.conns = append(l.conns, buf)
	l.mu.Unlock()
	return tapConn{c, l, buf}, nil
}

func (c tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.mu.Lock()
	c.buf.Write(b[:n])
	c.l.mu.Unlock()
	return n, err
}

// TestRobustPublisherRedefinesAfterReconnect: ids live per connection.
// A link severed between frames and one cut inside a frame each end in
// a new connection whose frames reference only ids defined on it, and
// the store ends equal to a clean run's.
func TestRobustPublisherRedefinesAfterReconnect(t *testing.T) {
	store := NewStoreShards(t0, time.Minute, 4)
	col := obs.NewCollector()
	store.SetCollector(col)
	ingest := NewIngestServer(store)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapListener{Listener: raw}
	ingest.Serve(tap)
	defer ingest.Close()
	proxy, err := faultnet.NewProxy("127.0.0.1:0", raw.Addr().String(), faultnet.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pub, err := DialRobustPublisher(proxy.Addr().String(), PublisherConfig{Backoff: fastBackoff, ReplayCapacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	keys := fleetKeys(300)
	bin := func(b int) []Measurement {
		ms := make([]Measurement, len(keys))
		for i, k := range keys {
			ms[i] = Measurement{k, t0.Add(time.Duration(b) * time.Minute), float64(b*1000 + i)}
		}
		return ms
	}
	publish := func(lo, hi int) {
		t.Helper()
		for b := lo; b < hi; b++ {
			for _, m := range bin(b) {
				if err := pub.Publish(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, fmt.Sprintf("bins up to %d", hi-1), func() bool {
			pub.Flush() // drives the redial and the resend
			for _, k := range []topo.KPIKey{keys[0], keys[len(keys)-1]} {
				if s, ok := store.Series(k); !ok || s.Len() < hi || s.HasGaps() {
					return false
				}
			}
			return true
		})
	}
	publish(0, 3)
	if n := proxy.Sever(); n != 1 {
		t.Fatalf("severed %d links, want 1", n)
	}
	publish(3, 6)
	// Cut 100 bytes into what the publisher writes next: inside its
	// first frame.
	if n := proxy.SeverAfter(100); n != 1 {
		t.Fatalf("armed %d links, want 1", n)
	}
	publish(6, 9)
	if pub.Reconnects() < 2 {
		t.Fatalf("%d reconnects, want one per sever", pub.Reconnects())
	}
	if n := col.Counter(obs.CtrConnDrops); n != 0 {
		t.Fatalf("%d connections dropped for a bad frame", n)
	}

	tap.mu.Lock()
	streams := make([][]byte, len(tap.conns))
	for i, c := range tap.conns {
		streams[i] = bytes.Clone(c.Bytes())
	}
	tap.mu.Unlock()
	if len(streams) < 3 {
		t.Fatalf("%d connections, want one before and one after each sever", len(streams))
	}
	torn := 0
	for i, s := range streams {
		ids := newWireIDs()
		for len(s) > 0 {
			if len(s) < 4 || len(s) < 4+int(binary.BigEndian.Uint32(s)) {
				torn++ // the cut: a frame the server never read whole
				break
			}
			n := int(binary.BigEndian.Uint32(s))
			if s[4] == frameBatchID {
				if _, err := decodeIDFrame(ids, s[4:4+n]); err != nil {
					t.Fatalf("connection %d: %v", i, err)
				}
			}
			s = s[4+n:]
		}
	}
	if torn == 0 {
		t.Fatal("no connection ends inside a frame: the cut missed")
	}

	m := newStoreModel(t0, store.ChunkSpan())
	for b := 0; b < 9; b++ {
		m.apply(bin(b))
	}
	m.check(t, store, nil, rand.New(rand.NewSource(9)))
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

// TestIngestTableDropsPrunedSeries checks the other half of the handle
// rule: after a prune, the first frame a connection applies clears its
// pointers to the entries the prune dropped, so the table does not keep
// their chunks alive.
func TestIngestTableDropsPrunedSeries(t *testing.T) {
	s := NewStoreShards(t0, time.Minute, 4)
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
	// A marker past every bin written, so that it outlives the prune.
	mk := topo.KPIKey{Scope: topo.ScopeService, Entity: "twin", Metric: "marker"}
	marker := func(v float64) {
		t.Helper()
		if err := pub.PublishBatch([]Measurement{{mk, t0.Add(400 * time.Minute), v}}); err != nil {
			t.Fatal(err)
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "marker applied", func() bool {
			vals, _, ok := s.RangeInto(mk, t0.Add(400*time.Minute), t0.Add(401*time.Minute), nil)
			return ok && vals[0] == v
		})
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
// end; so the final contents must equal the store reference model's. A
// keyed Refilter that missed a flag, or flipped one it was not given,
// would mark a key no cycle tracked or leave a flag that disagrees with
// the consumer's tracked set at the end.
func TestIngestHandlesAcrossPruneStorm(t *testing.T) {
	const (
		pubs    = 3
		steady  = 6  // keys a publisher writes every round
		bursty  = 10 // keys it writes in the first rounds of every cycle
		cycle   = 12 // rounds
		burstOn = 3
		cycles  = 8
	)
	s := NewStoreShards(t0, time.Minute, 4)
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

	// Every key a cycle tracked was marked, none other; a series' flag is
	// whether the consumer tracks its key now; and the store holds what
	// the rounds wrote from the last prune's epoch on.
	everTracked := make(map[topo.KPIKey]bool)
	for c := 0; c < cycles; c++ {
		for _, k := range changeKeys(c) {
			everTracked[k] = true
		}
	}
	if !reflect.DeepEqual(live.marked, everTracked) {
		t.Fatalf("marked keys differ from the keys a cycle tracked:\n got %v\nwant %v", live.marked, everTracked)
	}
	tracked := *live.tracked.Load()
	for _, k := range s.Keys() {
		if _, want := tracked[k]; feedFlag(s, k) != want {
			t.Fatalf("%v: feed flag %v, tracked %v", k, !want, want)
		}
	}
	m := newStoreModel(t0, 4)
	for r := 0; r < cycles*cycle; r++ {
		for p := 0; p < pubs; p++ {
			m.apply(roundOf(p, r))
		}
	}
	m.prune(s.Start())
	if s.Len() != len(m.series) || len(m.series) != pubs*(steady+bursty) {
		t.Fatalf("%d series, model %d, want %d", s.Len(), len(m.series), pubs*(steady+bursty))
	}
	for k, ms := range m.series {
		got, _ := s.Series(k)
		sameBits(t, got.Values, ms.bins(), k.String())
	}
}

// fuzzHorizonBins bounds how far past the epoch a fuzzed timestamp may
// lie: the store grows a series up to the bin it is told to write, here
// as at the parent, and that growth is not this target's subject.
const fuzzHorizonBins = 4096

// FuzzIngestFrame: an arbitrary payload after a warm-up on the
// connection (see fuzzIngestPayload). Its committed corpus is 0x01 and
// 0x04 frames, which the socket must refuse like any malformed one.
func FuzzIngestFrame(f *testing.F) {
	for _, seed := range ingestFrameSeeds(f) {
		f.Add(seed)
	}
	warm := ingestIDWarm(f)
	f.Fuzz(func(t *testing.T, payload []byte) { fuzzIngestPayload(t, warm, payload) })
}

// TestIngestFrameMatchesAppendBatch runs id batch frames over three
// connections — the orders the ids have to survive, a key twice in one
// frame, late writes into every region, gaps, reconnects, a rotation
// between two frames (every series' next reference is logged as a
// define again), prunes under handles and ids the connections keep, a
// feed — against the store reference model, and again as AppendBatch
// of what each frame carries: both runs must leave byte-identical log
// generations and snapshots.
func TestIngestFrameMatchesAppendBatch(t *testing.T) {
	t.Run("id-batch", func(t *testing.T) {
		prog := progOps(opBin, wr(0, 2, 0), opBin, wr(0, 2, 0), opBin, wr(0, 2, 1), opBin, wr(0, 2, 2), opBin, wr(0, 3, 3|4),
			opAppend, wr(1, 2, 30), opLateSealed, wr(1, 3, 5), opLateTail, wr(2, 2, 1), opLateLine, wr(1, 4, 0), opGap, wr(3, 4, 40),
			opFeed, 0, opRefilter, wr(1, 0, 0), opCompact, 0, opBin, wr(0, 2, 0), opBin, wr(0, 3, 1),
			opReconnect, 0, opBin, wr(0, 2, 1), opAppend, wr(1, 2, 12), opPruneChunks, wr(1, 0, 9), opBin, wr(0, 2, 0),
			opBin, wr(0, 3, 2|4), opPruneTail, wr(1, 0, 1), opBin, wr(0, 4, 3), opDrain, 0, opReopen, ro(1, 0, 0),
			opBin, wr(0, 2, 0), opBin, wr(0, 2, 1))
		for _, span := range []int{4, 8} {
			runProgram(t, progConfig{span: span, shards: 4, keys: fleetKeys(40)}, prog, nil)
		}
		// Frames wider than a group record: a shard's record is cut
		// inside a frame.
		runProgram(t, progConfig{span: 8, shards: 2, keys: fleetKeys(4000)}, progOps(opBin, wr(0, 2, 0), opBin, wr(0, 3, 1), opReopen, 0), nil)
	})
}

// ingestSeedBatch is bins [lo, hi) of a small fleet with sealed chunks
// at span 4, spread over both shards of the fuzz targets' store.
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
