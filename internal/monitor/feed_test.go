package monitor

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/topo"
)

// drainAll empties the feed's wakeup token and returns the drained set.
func drainAll(f *BinFeed) ([]topo.KPIKey, uint64, bool) {
	select {
	case <-f.C():
	default:
	}
	return f.Drain(nil)
}

func TestBinFeedCoalescesAppends(t *testing.T) {
	s := NewStore(t0, time.Minute)
	f := s.NewBinFeed(nil, 0)
	defer f.Close()

	for i := 0; i < 10; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	s.Append(Measurement{kPV, t0, 1})

	select {
	case <-f.C():
	default:
		t.Fatal("no wakeup token after appends")
	}
	keys, _, overflow := f.Drain(nil)
	if overflow {
		t.Fatal("unexpected overflow")
	}
	if len(keys) != 2 {
		t.Fatalf("drained %d keys, want 2 (coalesced): %v", len(keys), keys)
	}
	// Drained state does not reappear without new appends.
	if keys, _, _ := f.Drain(nil); len(keys) != 0 {
		t.Fatalf("second drain returned %v", keys)
	}
}

func TestBinFeedFilterAndShed(t *testing.T) {
	s := NewStore(t0, time.Minute)
	f := s.NewBinFeed(func(k topo.KPIKey) bool { return k.Metric == "cpu.ctxswitch" }, 1)
	defer f.Close()

	s.Append(Measurement{kPV, t0, 1}) // filtered out
	if keys, _, _ := drainAll(f); len(keys) != 0 {
		t.Fatalf("filtered key leaked: %v", keys)
	}

	k2 := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-2", Metric: "cpu.ctxswitch"}
	s.Append(Measurement{kCPU, t0, 1})
	s.Append(Measurement{k2, t0, 2}) // over the 1-key cap: shed
	keys, _, overflow := drainAll(f)
	if !overflow {
		t.Fatal("overflow flag not raised on a full dirty set")
	}
	if len(keys) != 1 {
		t.Fatalf("drained %d keys, want the 1 that fit", len(keys))
	}
	// The flag resets after the drain reported it.
	s.Append(Measurement{kCPU, t0.Add(time.Minute), 3})
	if _, _, overflow := drainAll(f); overflow {
		t.Fatal("overflow flag stuck")
	}
}

// The dirty set carries, per key, the lowest bin written since the last
// drain: coalesced marks keep the minimum whatever order they came in, a
// drain resets it, and the keys-only Drain hands over the same keys —
// for measurements appended in-process and for ones that arrived framed.
func TestBinFeedLowWater(t *testing.T) {
	t.Run("append", func(t *testing.T) {
		s := NewStore(t0, time.Minute)
		testBinFeedLowWater(t, s, s.Append)
	})
	t.Run("framed", func(t *testing.T) {
		s := NewStore(t0, time.Minute)
		table := newKeyTable(s, maxKeyCacheEntries)
		var enc keyIDs
		testBinFeedLowWater(t, s, func(m Measurement) {
			if err := table.ingestFrame(idFrames(t, &enc, []Measurement{m})[0]); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func testBinFeedLowWater(t *testing.T, s *Store, ingest func(Measurement)) {
	f := s.NewBinFeed(nil, 2)
	defer f.Close()
	write := func(k topo.KPIKey, bins ...int) {
		for _, b := range bins {
			ingest(Measurement{k, t0.Add(time.Duration(b) * time.Minute), float64(b)})
		}
	}
	lowOf := func(keys []topo.KPIKey, lows []int) map[topo.KPIKey]int {
		t.Helper()
		if len(keys) != len(lows) {
			t.Fatalf("%d keys but %d low-waters", len(keys), len(lows))
		}
		m := make(map[topo.KPIKey]int)
		for i, k := range keys {
			m[k] = lows[i]
		}
		return m
	}

	write(kCPU, 7, 8, 3, 9) // in order, then a late write, then on
	write(kPV, 5)
	keys, lows, _, overflow := f.DrainBins(nil, nil)
	if got := lowOf(keys, lows); overflow || len(got) != 2 || got[kCPU] != 3 || got[kPV] != 5 {
		t.Fatalf("low-waters %v (overflow %v), want cpu 3, pv 5", got, overflow)
	}

	// Reset by the drain: the next low-water knows nothing of bin 3.
	write(kCPU, 10, 11)
	keys, lows, _, _ = f.DrainBins(keys[:0], lows[:0])
	if got := lowOf(keys, lows); len(got) != 1 || got[kCPU] != 10 {
		t.Fatalf("low-waters after a drain %v, want cpu 10 alone", got)
	}

	// An overwrite of the newest bin is a write like any other.
	write(kCPU, 11)
	if _, lows, _, _ = f.DrainBins(nil, nil); len(lows) != 1 || lows[0] != 11 {
		t.Fatalf("low-water of an overwrite %v, want 11", lows)
	}

	// Over capacity the set is incomplete and says so; the keys that
	// fit keep their low-waters, and a shed key lowers nobody's.
	k3 := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-3", Metric: "cpu.ctxswitch"}
	write(kCPU, 12)
	write(kPV, 6)
	write(k3, 0)
	write(kCPU, 4)
	keys, lows, _, overflow = f.DrainBins(nil, nil)
	if got := lowOf(keys, lows); !overflow || len(got) != 2 || got[kCPU] != 4 || got[kPV] != 6 {
		t.Fatalf("low-waters %v (overflow %v), want cpu 4, pv 6 and an overflow", got, overflow)
	}

	// Drain is DrainBins without the bins.
	write(kCPU, 13)
	write(kPV, 7)
	only, _, overflow := f.Drain(nil)
	got := make(map[topo.KPIKey]bool)
	for _, k := range only {
		got[k] = true
	}
	if overflow || len(only) != 2 || !got[kCPU] || !got[kPV] {
		t.Fatalf("Drain returned %v (overflow %v), want cpu and pv", only, overflow)
	}
	if keys, lows, _, _ = f.DrainBins(nil, nil); len(keys) != 0 || len(lows) != 0 {
		t.Fatalf("Drain left %v %v behind", keys, lows)
	}
}

// Refilter flips the flags of the keys it is given and no others, and a
// named key with no series yet gets its flag when its series is made.
func TestRefilterKeys(t *testing.T) {
	s := NewStore(t0, time.Minute)
	k2 := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-2", Metric: "cpu.ctxswitch"}
	k3 := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-3", Metric: "cpu.ctxswitch"}
	s.Append(Measurement{kCPU, t0, 1})
	s.Append(Measurement{kPV, t0, 1})
	s.Append(Measurement{k2, t0, 1})
	fc := newFeedConsumer(s)
	defer fc.feed.Close()
	flags := func() [4]bool {
		return [4]bool{feedFlag(s, kCPU), feedFlag(s, kPV), feedFlag(s, k2), feedFlag(s, k3)}
	}

	fc.register([]topo.KPIKey{kCPU, k3})
	if got := flags(); got != [4]bool{true, false, false, false} {
		t.Fatalf("flags after registering cpu and the unborn srv-3: %v", got)
	}
	// The filter now wants kPV, but nobody named it: its flag stays down
	// until somebody does, and its appends mark nothing meanwhile.
	fc.refs[kPV]++
	fc.register([]topo.KPIKey{k2})
	if got := flags(); got != [4]bool{true, false, true, false} {
		t.Fatalf("flags after registering srv-2 with pv unnamed: %v", got)
	}
	for _, k := range []topo.KPIKey{kCPU, kPV, k2, k3} {
		s.Append(Measurement{k, t0.Add(time.Minute), 2})
	}
	fc.drain()
	if want := map[topo.KPIKey]bool{kCPU: true, k2: true, k3: true}; !reflect.DeepEqual(fc.marked, want) {
		t.Fatalf("marked %v, want %v", fc.marked, want)
	}
	if !feedFlag(s, k3) {
		t.Fatal("srv-3 was tracked before its first append, but its series was made with the flag down")
	}

	fc.retire([]topo.KPIKey{kCPU})
	if got := flags(); got != [4]bool{false, false, true, true} {
		t.Fatalf("flags after retiring cpu: %v", got)
	}
	fc.retire([]topo.KPIKey{kPV, k2, k3})
	if got := flags(); got != [4]bool{} {
		t.Fatalf("flags after retiring everything: %v", got)
	}
}

func TestBinFeedEpochBumpOnPrune(t *testing.T) {
	s := NewStore(t0, time.Minute)
	f := s.NewBinFeed(nil, 0)
	defer f.Close()
	s.Append(Measurement{kCPU, t0, 1})
	s.Append(Measurement{kCPU, t0.Add(10 * time.Minute), 2})
	_, epoch0, _ := drainAll(f)

	s.Prune(t0.Add(5 * time.Minute))
	select {
	case <-f.C():
	default:
		t.Fatal("no wakeup after prune")
	}
	_, epoch1, _ := f.Drain(nil)
	if epoch1 == epoch0 {
		t.Fatalf("epoch did not advance across prune: %d", epoch1)
	}
}

func TestBinFeedCloseUnregisters(t *testing.T) {
	s := NewStore(t0, time.Minute)
	f := s.NewBinFeed(nil, 0)
	f.Close()
	s.Append(Measurement{kCPU, t0, 1})
	if keys, _, _ := f.Drain(nil); len(keys) != 0 {
		t.Fatalf("closed feed still marked: %v", keys)
	}
	if s.feeds.Load() != nil {
		t.Fatal("feed list snapshot not cleared after close")
	}
}

func TestSeriesLen(t *testing.T) {
	s := NewStore(t0, time.Minute)
	if n, ok := s.SeriesLen(kCPU); ok || n != 0 {
		t.Fatalf("missing key: n=%d ok=%v", n, ok)
	}
	s.Append(Measurement{kCPU, t0.Add(7 * time.Minute), 1})
	if n, ok := s.SeriesLen(kCPU); !ok || n != 8 {
		t.Fatalf("n=%d ok=%v, want 8 true", n, ok)
	}
}

// Satellite regression: a snapshot-restored series must carry an
// arrival watermark (the restore time) so the first post-restart
// assessment reports a real, bounded bin-to-verdict latency instead of
// none at all.
func TestSnapshotRestoreRestampsWatermark(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0, 1.5})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	wm, ok := got.ArrivalWatermark(kCPU)
	if !ok {
		t.Fatal("restored series has no arrival watermark")
	}
	if wm.Before(before) || wm.After(after) {
		t.Fatalf("restamped watermark %v outside restore interval [%v, %v]", wm, before, after)
	}
	// A live append moves the watermark forward as before.
	got.Append(Measurement{kCPU, t0.Add(time.Minute), 2})
	wm2, _ := got.ArrivalWatermark(kCPU)
	if wm2.Before(wm) {
		t.Fatalf("live append moved watermark backwards: %v < %v", wm2, wm)
	}
}
