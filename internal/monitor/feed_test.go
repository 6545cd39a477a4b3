package monitor

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topo"
)

// The feed against the store reference model: appends coalesce into
// one mark per key carrying the lowest bin written since the drain, a
// drain resets them, a prune bumps the epoch, and a closed feed marks
// nothing — for measurements appended in-process and ones that arrived
// framed.
func TestBinFeedCoalescesAppends(t *testing.T) {
	p := progOps(opFeed, 0, opRefilter, 0, opRefilter, wr(4, 0, 0), opAppend, 9, opAppend, wr(4, 1, 0), opDrain, 0, opDrain, 0)
	runProgram(t, progConfig{span: 8, shards: 4}, p, nil)
}

// TestBinFeedFilterAndShed: a key the filter refuses is never marked
// (TestBinFeedLowWater sheds keys past the set's capacity).
func TestBinFeedFilterAndShed(t *testing.T) {
	p := progOps(opFeed, 0, opRefilter, 0, opAppend, wr(4, 0, 3), opAppend, 0, opDrain, 0, opAppend, wr(4, 1, 0), opDrain, 0)
	runProgram(t, progConfig{span: 8, shards: 4}, p, nil)
}

func TestBinFeedLowWater(t *testing.T) {
	for _, path := range []int{0, 2} {
		p := progOps(opFeed, 0, opRefilter, 0, opRefilter, wr(4, 0, 0), opAppend, wr(0, path, 8), opLateTail, wr(0, path, 3),
			opAppend, wr(4, path, 0), opDrain, 0, opAppend, wr(0, path, 1), opDrain, 0, opLateLine, wr(0, path, 1),
			opLateSealed, wr(0, path, 2), opGap, wr(4, path, 3), opPruneTail, wr(0, 0, 2), opAppend, wr(4, path, 1), opDrain, 0,
			opFeed, 0, opAppend, wr(0, path, 2), opFeed, 0, opAppend, wr(0, path, 2), opDrain, 0)
		t.Run([...]string{"append", "", "framed"}[path], func(t *testing.T) { runProgram(t, progConfig{span: 8, shards: 4}, p, nil) })
	}
	// Over capacity the set is incomplete and says so; the keys that fit
	// keep their low-waters, and Drain is DrainBins without the bins.
	s := NewStore(t0, time.Minute)
	f := s.NewBinFeed(nil, 2)
	defer f.Close()
	k3 := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-3", Metric: "cpu.ctxswitch"}
	for _, m := range []Measurement{{kCPU, t0.Add(12 * time.Minute), 1}, {kPV, t0.Add(6 * time.Minute), 1}, {k3, t0, 1}, {kCPU, t0.Add(4 * time.Minute), 1}} {
		s.Append(m)
	}
	keys, lows, _, overflow := f.DrainBins(nil, nil)
	if got := map[topo.KPIKey]int{keys[0]: lows[0], keys[1]: lows[1]}; !overflow || len(keys) != 2 || got[kCPU] != 4 || got[kPV] != 6 {
		t.Fatalf("low-waters %v %v (overflow %v), want cpu 4, pv 6 and an overflow", keys, lows, overflow)
	}
	s.Append(Measurement{kCPU, t0.Add(13 * time.Minute), 1})
	if only, _, overflow := f.Drain(nil); overflow || len(only) != 1 || only[0] != kCPU {
		t.Fatalf("Drain returned %v (overflow %v), want cpu", only, overflow)
	}
}

// Refilter flips the flags of the keys it is given and no others (a
// flipped key left unnamed keeps its flag, stale), and a named key with
// no series yet gets its flag when its series is made.
func TestRefilterKeys(t *testing.T) {
	p := progOps(opAppend, 0, opAppend, wr(4, 0, 0), opFeed, 0, opRefilter, 0, opRefilter, wr(5, 0, 0), opRefilter, wr(4, 0, 1),
		opAppend, wr(0, 1, 0), opAppend, wr(4, 2, 0), opAppend, wr(5, 3, 0), opDrain, 0, opRefilter, wr(4, 0, 0), opRefilter, 0,
		opAppend, wr(0, 1, 0), opAppend, wr(4, 1, 0), opDrain, 0)
	runProgram(t, progConfig{span: 8, shards: 4}, p, nil)
}

func TestBinFeedEpochBumpOnPrune(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(opFeed, 0, opAppend, 10, opPruneTail, 5, opDrain, 0), nil)
}

func TestBinFeedCloseUnregisters(t *testing.T) {
	s := NewStore(t0, time.Minute)
	f := s.NewBinFeed(nil, 0)
	f.Close()
	s.Append(Measurement{kCPU, t0, 1})
	if keys, _, _ := f.Drain(nil); len(keys) != 0 || s.feeds.Load() != nil {
		t.Fatalf("closed feed still marked %v, or is still listed", keys)
	}
}

func TestSeriesLen(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(opGap, 6), nil)
}

// TestSnapshotRestoreRestampsWatermark: a series restored from a
// snapshot carries the restore time as its arrival watermark, so the
// first assessment after a restart reports a bounded bin-to-verdict
// latency, and a live append moves it forward (the store reference
// model's opSnapshot and opReopen check both).
func TestSnapshotRestoreRestampsWatermark(t *testing.T) {
	p := progOps(opAppend, 3, opSnapshot, 0, opCompact, 0, opReopen, 0, opAppend, 0)
	runProgram(t, progConfig{span: 8, shards: 4}, p, nil)
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
