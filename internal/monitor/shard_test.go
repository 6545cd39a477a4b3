package monitor

import (
	"bytes"
	"fmt"
	"math"
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

// TestShardedStoreMatchesSingleShard drives identical traffic into a
// 1-shard and a 16-shard store and requires byte-identical snapshots:
// striping must never change semantics.
func TestShardedStoreMatchesSingleShard(t *testing.T) {
	one := NewStoreShards(t0, time.Minute, 1)
	many := NewStoreShards(t0, time.Minute, 16)
	keys := fleetKeys(40)
	for bin := 0; bin < 50; bin++ {
		for ki, k := range keys {
			m := Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin*100 + ki)}
			one.Append(m)
			many.Append(m)
		}
	}
	// Same-bin overwrites and pre-epoch drops behave identically too.
	for _, s := range []*Store{one, many} {
		s.Append(Measurement{keys[0], t0.Add(10 * time.Second), -5})
		s.Append(Measurement{keys[1], t0.Add(-time.Hour), 1})
	}
	var a, b bytes.Buffer
	if err := one.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := many.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("1-shard and 16-shard stores diverged")
	}
	if one.Len() != many.Len() || one.Stats() != many.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", one.Stats(), many.Stats())
	}
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	ref := NewStoreShards(t0, time.Minute, 8)
	bat := NewStoreShards(t0, time.Minute, 8)
	keys := fleetKeys(24)
	var batch []Measurement
	for bin := 0; bin < 20; bin++ {
		batch = batch[:0]
		for ki, k := range keys {
			m := Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin + ki)}
			ref.Append(m)
			batch = append(batch, m)
		}
		// Same key twice in one batch: later element wins, like two
		// Appends.
		dup := Measurement{keys[0], t0.Add(time.Duration(bin) * time.Minute), float64(-bin)}
		ref.Append(dup)
		batch = append(batch, dup)
		bat.AppendBatch(batch)
	}
	var a, b bytes.Buffer
	if err := ref.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := bat.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("AppendBatch diverged from sequential Append")
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
	ref := NewStoreShards(t0, time.Minute, 1)
	for bin := 0; bin < bins; bin++ {
		for ki, k := range keys {
			ref.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), float64(bin*1000 + ki)})
		}
	}
	var a, b bytes.Buffer
	if err := s.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("concurrent sharded ingest lost or misfiled measurements")
	}
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
	// A single 0x01 frame on the same connection still works.
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
