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
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Tests of the id batch frame (0x05): a publisher names a key once per
// connection and by a small id after; the socket path must land it as
// the batch frame's path does (the twins of ingest_diff_test.go run
// both), reject what the reference rejects, keep its id table bounded,
// and start the ids afresh on every connection.

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
		var batch int
		for _, f := range batchFrames(t, ms) {
			batch += 4 + len(f)
		}
		per := float64(size) / float64(len(ms))
		t.Logf("a steady bin of %d: %.2f socket bytes a measurement, %.2f in batch frames", len(ms), per, float64(batch)/float64(len(ms)))
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
	st := NewStoreShards(t0, time.Minute, twinShards)
	table, ref := newKeyTable(st), newWireIDs()
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
	if len(table.conn) != maxKeyCacheEntries || len(enc.keys) != maxKeyCacheEntries || len(ref.ids[0]) != maxKeyCacheEntries {
		t.Fatalf("ids issued: server %d, publisher %d, reference %d, want %d each", len(table.conn), len(enc.keys), len(ref.ids[0]), maxKeyCacheEntries)
	}
	for i, hi := range table.conn {
		if k := table.handles[hi].key; k != enc.keys[i] || k != ref.ids[0][i] {
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
	}
}

// FuzzIngestIDStream: an id batch frame that follows a warm-up which
// issued ids 1–6 on the connection is either rejected by the socket path
// and by the reference, store and logs untouched (the server drops the
// connection there), or lands identically on both — twice, so that the
// second application reads the ids the first one's defines were issued.
func FuzzIngestIDStream(f *testing.F) {
	for _, seed := range ingestIDSeeds() {
		f.Add(seed.payload)
	}
	warm := ingestIDWarm(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		live, liveDir := openTwinStore(t, 2, 4)
		ref, refDir := openTwinStore(t, 2, 4)
		table, ids := newKeyTable(live), newWireIDs()
		for _, frame := range warm {
			if err := table.ingestFrame(frame); err != nil {
				t.Fatal(err)
			}
			if err := refIngestFrame(ref, nil, ids, frame); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			ms, refErr := refDecode(nil, ids, payload)
			for _, m := range ms {
				if refErr == nil && m.T.Sub(t0) > fuzzHorizonBins*time.Minute {
					t.Skip("timestamp past the horizon")
				}
			}
			err := table.ingestFrame(payload)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("round %d: ingestFrame error %v, reference error %v", round, err, refErr)
			}
			if err == nil && payload[0] == frameMeasurement {
				ref.Append(ms[0])
			} else if err == nil {
				ref.AppendBatch(ms)
			}
			compareStores(t, fmt.Sprintf("round %d", round), live, ref, liveDir, refDir)
			if err != nil {
				return
			}
		}
	})
}

// TestIngestIDFrameRejects sends each malformed seed of
// FuzzIngestIDStream over a connection of its own after the warm-up:
// the server drops the connection and the log and snapshot stay as the
// warm-up left them.
func TestIngestIDFrameRejects(t *testing.T) {
	s, dir := openTwinStore(t, 2, 4)
	col := obs.NewCollector()
	s.SetCollector(col)
	srv := NewIngestServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	warm := ingestIDWarm(t)
	state := func() ([]byte, []byte) {
		log, err := os.ReadFile(filepath.Join(dir, walName(s.persist.gen)))
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := s.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		return log, snap.Bytes()
	}
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
	store := NewStoreShards(t0, time.Minute, twinShards)
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

	clean := NewStoreShards(t0, time.Minute, twinShards)
	for b := 0; b < 9; b++ {
		clean.AppendBatch(bin(b))
	}
	var got, want bytes.Buffer
	if err := store.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := clean.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the store after two reconnects differs from a clean run's: snapshot %d bytes, clean %d", got.Len(), want.Len())
	}
}
