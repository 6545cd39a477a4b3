package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
)

// fleetKeys builds n server-scope keys spread across entities and
// metrics, so they land on many shards.
func fleetKeys(n int) []topo.KPIKey {
	keys := make([]topo.KPIKey, n)
	for i := range keys {
		keys[i] = topo.KPIKey{
			Scope:  topo.ScopeServer,
			Entity: fmt.Sprintf("srv-%d", i/4),
			Metric: fmt.Sprintf("metric-%d", i%4),
		}
	}
	return keys
}

func TestShardIndexStableAndInRange(t *testing.T) {
	s := NewStoreShards(t0, time.Minute, 16)
	for _, k := range fleetKeys(64) {
		i := s.shardIndex(k)
		if i < 0 || i >= 16 {
			t.Fatalf("shardIndex(%v) = %d out of range", k, i)
		}
		if j := s.shardIndex(k); j != i {
			t.Fatalf("shardIndex not stable: %d vs %d", i, j)
		}
	}
}

func TestShardCountClamped(t *testing.T) {
	if got := NewStoreShards(t0, time.Minute, 0).Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}
	if got := NewStoreShards(t0, time.Minute, 1<<20).Shards(); got != maxStoreShards {
		t.Fatalf("Shards() = %d, want %d", got, maxStoreShards)
	}
	if got := NewStore(t0, time.Minute).Shards(); got != StoreShards {
		t.Fatalf("NewStore Shards() = %d, want %d", got, StoreShards)
	}
}

// TestShardedStoreMatchesSingleShard runs one program on a 1-shard and
// a 16-shard store, and TestAppendBatchMatchesAppend by Append and by
// AppendBatch (a key twice in one batch: the later wins), against the
// store reference model: striping and batching never change semantics.
func TestShardedStoreMatchesSingleShard(t *testing.T) {
	var p []int
	for bin := 0; bin < 50; bin++ {
		p = append(p, opBin, wr(0, bin%2, bin%4))
	}
	p = append(p, opLateSealed, 3, opGap, 0x80)
	for _, shards := range []int{1, 16} {
		runProgram(t, progConfig{span: 16, shards: shards, keys: fleetKeys(40)}, progOps(p...), nil)
	}
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	for path := 0; path < 2; path++ {
		var p []int
		for bin := 0; bin < 20; bin++ {
			p = append(p, opBin, wr(0, path, 4))
		}
		runProgram(t, progConfig{span: 8, shards: 8, keys: fleetKeys(24)}, progOps(p...), nil)
	}
}

func TestAppendBatchDeliversToSubscribers(t *testing.T) {
	s := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	s.SetCollector(col)
	ch, cancel := s.Subscribe(nil, 64)
	keys := fleetKeys(10)
	batch := make([]Measurement, 0, len(keys)+1)
	for ki, k := range keys {
		batch = append(batch, Measurement{k, t0, float64(ki)})
	}
	// Pre-epoch entries in a batch are dropped, not delivered.
	batch = append(batch, Measurement{keys[0], t0.Add(-time.Hour), 1})
	s.AppendBatch(batch)
	got := map[topo.KPIKey]float64{}
	for range keys {
		m := <-ch
		got[m.Key] = m.V
	}
	if len(got) != len(keys) {
		t.Fatalf("delivered %d keys, want %d", len(got), len(keys))
	}
	if drops := cancel(); drops != 0 {
		t.Fatalf("drops = %d, want 0", drops)
	}
	if n := col.Counter(obs.CtrIngested); n != int64(len(keys)) {
		t.Fatalf("CtrIngested = %d, want %d", n, len(keys))
	}
}

// TestConcurrentAppendAcrossShards hammers the store from many
// goroutines; the race detector checks the locking, the final snapshot
// comparison checks that nothing was lost or misfiled.
func TestConcurrentAppendAcrossShards(t *testing.T) {
	s := NewStore(t0, time.Minute)
	keys := fleetKeys(32)
	const bins = 40
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a disjoint key slice: deterministic final
			// state regardless of interleaving.
			batch := make([]Measurement, 0, 4)
			for bin := 0; bin < bins; bin++ {
				batch = batch[:0]
				for ki := w * 4; ki < (w+1)*4; ki++ {
					batch = append(batch, Measurement{keys[ki], t0.Add(time.Duration(bin) * time.Minute), float64(bin*1000 + ki)})
				}
				if w%2 == 0 {
					s.AppendBatch(batch)
				} else {
					for _, m := range batch {
						s.Append(m)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	m := newStoreModel(t0, s.ChunkSpan())
	for bin := 0; bin < bins; bin++ {
		for ki, k := range keys {
			m.apply([]Measurement{{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin*1000 + ki)}})
		}
	}
	m.check(t, s, nil, rand.New(rand.NewSource(1)))
}

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	keys := fleetKeys(6)
	ms := make([]Measurement, 0, len(keys))
	for ki, k := range keys {
		ms = append(ms, Measurement{k, t0.Add(time.Duration(ki) * time.Minute), float64(ki) + 0.5})
	}
	ms = append(ms, Measurement{keys[0], t0, math.NaN()})
	frame, err := EncodeBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*KeyCache{nil, NewKeyCache()} {
		got, err := DecodeBatchInto(nil, frame, cache)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ms) {
			t.Fatalf("decoded %d, want %d", len(got), len(ms))
		}
		for i := range ms {
			if got[i].Key != ms[i].Key || !got[i].T.Equal(ms[i].T) {
				t.Fatalf("entry %d: got %+v want %+v", i, got[i], ms[i])
			}
			if got[i].V != ms[i].V && !(math.IsNaN(got[i].V) && math.IsNaN(ms[i].V)) {
				t.Fatalf("entry %d: value %v want %v", i, got[i].V, ms[i].V)
			}
		}
	}
}

func TestKeyCacheInterns(t *testing.T) {
	keys := fleetKeys(4)
	ms := make([]Measurement, 0, 16)
	for bin := 0; bin < 4; bin++ {
		for _, k := range keys {
			ms = append(ms, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), 1})
		}
	}
	frame, err := EncodeBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewKeyCache()
	out, err := DecodeBatchInto(nil, frame, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(keys) {
		t.Fatalf("cache holds %d keys, want %d", cache.Len(), len(keys))
	}
	// Interning must return the identical string headers for repeated
	// keys (that is the point: no per-measurement string allocs).
	for i := len(keys); i < len(out); i++ {
		if out[i].Key != out[i-len(keys)].Key {
			t.Fatalf("entry %d key mismatch", i)
		}
	}
}

func TestEncodeBatchRejectsEmptyAndOversize(t *testing.T) {
	if _, err := EncodeBatch(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	big := make([]Measurement, 2000)
	for i := range big {
		big[i] = Measurement{topo.KPIKey{Scope: topo.ScopeServer, Entity: "e", Metric: string(make([]byte, 60))}, t0, 1}
	}
	if _, err := EncodeBatch(big); err == nil {
		t.Fatal("oversize batch should fail the frame bound")
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	frame, err := EncodeBatch([]Measurement{{kCPU, t0, 1}, {kPV, t0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"not a batch":    {frameMeasurement, 0, 1},
		"empty frame":    {},
		"zero count":     {frameBatch, 0, 0},
		"truncated body": frame[:len(frame)-3],
		"trailing bytes": append(append([]byte{}, frame...), 0xff),
		"bad scope":      {frameBatch, 0, 1, 0xEE, 0, 1, 'e', 0, 1, 'm', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, err := DecodeBatchInto(nil, b, NewKeyCache()); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

// TestIngestServerBatchFrames publishes via PublishBatch and checks the
// store and telemetry see every measurement.
func TestIngestServerBatchFrames(t *testing.T) {
	s := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	s.SetCollector(col)
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
	keys := fleetKeys(12)
	var ms []Measurement
	for bin := 0; bin < 10; bin++ {
		for ki, k := range keys {
			ms = append(ms, Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin + ki)})
		}
	}
	if err := pub.PublishBatch(ms); err != nil {
		t.Fatal(err)
	}
	// A one-entry frame, as Publish writes it, on the same connection.
	if err := pub.Publish(Measurement{kCPU, t0, 42}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	want := int64(len(ms) + 1)
	for col.Counter(obs.CtrIngested) < want {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d, want %d", col.Counter(obs.CtrIngested), want)
		}
		time.Sleep(time.Millisecond)
	}
	if col.Counter(obs.CtrBatchFrames) == 0 {
		t.Fatal("no batch frames counted")
	}
	ser, ok := s.Series(keys[3])
	if !ok || ser.Len() != 10 {
		t.Fatalf("series missing after batch ingest: ok=%v", ok)
	}
}

// TestRobustPublisherBatching checks that the default publisher
// coalesces into batch frames and delivers everything, the partial
// pending batch included (written by Flush).
func TestRobustPublisherBatching(t *testing.T) {
	s := NewStore(t0, time.Minute)
	col := obs.NewCollector()
	s.SetCollector(col)
	srv := NewIngestServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pub, err := DialRobustPublisher(addr.String(), PublisherConfig{Backoff: fastBackoff})
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(5)
	total := 0
	for bin := 0; bin < 15; bin++ { // 75 measurements: one full batch + partial
		for ki, k := range keys {
			if err := pub.Publish(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin + ki)}); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Counter(obs.CtrIngested) < int64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d, want %d", col.Counter(obs.CtrIngested), total)
		}
		time.Sleep(time.Millisecond)
	}
	if col.Counter(obs.CtrBatchFrames) == 0 {
		t.Fatal("no batch frames seen on the coalescing path")
	}
	pub.Close()
}
