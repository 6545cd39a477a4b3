package monitor

import (
	"sync"

	"repro/internal/topo"
)

// BinFeed is the coalescing change feed the streaming assessor drains:
// every append that lands a bin for a key passing the feed's filter
// marks that key dirty, and a non-blocking wakeup token tells the
// consumer there is work. Consecutive appends to the same key coalesce
// into one dirty entry that carries a low-water bin — the lowest bin
// written to the key since the last drain — and the filter's verdict
// is cached as one boolean on the series entry itself, so the feed's
// cost on the ingest hot path is a single flag test for untracked keys
// (the fleet-wide common case) and a map update for tracked ones —
// never a per-append filter evaluation. The consumer reads the store
// for the actual bins: everything below the low-water is as it was at
// the previous drain, so a consumer that has read up to bin b needs
// only [b, …) when the low-water is at or past b, and must re-read
// and re-verify what it holds when the low-water falls inside it (a
// late write, a gap fill, an overwrite). Whatever mutated, the key
// shows up dirty with a low-water at or below the mutation. The
// low-water is a store bin, and store bins never renumber (a Prune drops
// chunks and keeps the epoch), so a drained low-water stays good however
// many prunes ran since its mark.
//
// Admission control: the dirty set is bounded by maxKeys. When the
// fleet outruns the consumer and the set is full, new keys are shed
// and the overflow flag is raised so the next Drain tells the consumer
// to treat *all* its tracked keys as dirty (a full resync) instead of
// trusting the truncated set. Nothing is lost; the store remains the
// source of truth.
type BinFeed struct {
	store   *Store
	filter  func(topo.KPIKey) bool
	maxKeys int

	mu       sync.Mutex
	dirty    map[topo.KPIKey]int // key → low-water bin
	overflow bool
	closed   bool

	notify chan struct{}
}

// defaultFeedKeys bounds the dirty set when the caller passes 0.
const defaultFeedKeys = 1 << 14

// NewBinFeed registers a coalescing append feed on the store. filter
// restricts which keys are tracked (nil tracks everything); maxKeys
// bounds the dirty set (0 = a 16k-key default). A filter whose answer
// for a key changes later must be followed by Refilter naming that key.
// Close the feed when done — an abandoned feed keeps marking forever.
func (s *Store) NewBinFeed(filter func(topo.KPIKey) bool, maxKeys int) *BinFeed {
	if maxKeys <= 0 {
		maxKeys = defaultFeedKeys
	}
	f := &BinFeed{
		store:   s,
		filter:  filter,
		maxKeys: maxKeys,
		dirty:   make(map[topo.KPIKey]int),
		notify:  make(chan struct{}, 1),
	}
	s.feedMu.Lock()
	old := s.feeds.Load()
	var next []*BinFeed
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, f)
	s.feeds.Store(&next)
	s.feedMu.Unlock()
	s.refreshFeedFlags()
	return f
}

// Refilter recomputes the cached tracked flag of the named keys' stored
// series, each under its own shard's lock. Call it with the keys whose
// answer from this feed's filter function just changed (the streaming
// assessor passes a change's own KPIs on registration and retirement):
// once it returns, every later append to those keys sees the filter's
// current answer. A named key with no series yet costs nothing here and
// gets its flag when its first append creates the series. Appends
// landing between the filter change and the Refilter keep the previous
// flag, which consumers already tolerate — a stale true is dropped by
// the filter inside mark, and a stale false is covered by the catch-up
// pass consumers run after (re)registering interest in a key. Keys not
// named keep their flags: the fleet-wide pass runs only when the feed
// set itself changes (NewBinFeed, Close).
func (f *BinFeed) Refilter(keys []topo.KPIKey) {
	s := f.store
	for _, key := range keys {
		sh := s.shardFor(key)
		sh.mu.Lock()
		if e := sh.series[key]; e != nil {
			e.feedTracked = s.feedWants(key)
		}
		sh.mu.Unlock()
	}
}

// C returns the wakeup channel: one token is pending whenever the feed
// has undrained state. Drain after receiving.
func (f *BinFeed) C() <-chan struct{} { return f.notify }

// Drain moves the dirty set into keys (appending to it; pass a reused
// buf[:0] to avoid allocation) and resets it. overflow reports that the
// set hit capacity since the last drain, in which case keys is
// incomplete and the consumer must treat every key it tracks as dirty.
// The middle result is vestigial, always 0: it was a prune epoch, and
// stays until the last caller of Drain moves to DrainBins.
func (f *BinFeed) Drain(keys []topo.KPIKey) (out []topo.KPIKey, _ uint64, overflow bool) {
	out, _, overflow = f.drain(keys, nil, false)
	return out, 0, overflow
}

// DrainBins is Drain that also hands over each key's low-water bin:
// lows[i] (appended like keys) is the lowest bin written to keys[i]
// since the previous drain.
func (f *BinFeed) DrainBins(keys []topo.KPIKey, lows []int) (outKeys []topo.KPIKey, outLows []int, overflow bool) {
	return f.drain(keys, lows, true)
}

func (f *BinFeed) drain(keys []topo.KPIKey, lows []int, withLows bool) ([]topo.KPIKey, []int, bool) {
	f.mu.Lock()
	for k, low := range f.dirty {
		keys = append(keys, k)
		if withLows {
			lows = append(lows, low)
		}
		delete(f.dirty, k)
	}
	overflow := f.overflow
	f.overflow = false
	f.mu.Unlock()
	return keys, lows, overflow
}

// Close unregisters the feed from the store. The wakeup channel is not
// closed (a concurrent mark may be sending); consumers exit via their
// own quit signal.
func (f *BinFeed) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	s := f.store
	s.feedMu.Lock()
	if old := s.feeds.Load(); old != nil {
		next := make([]*BinFeed, 0, len(*old))
		for _, g := range *old {
			if g != f {
				next = append(next, g)
			}
		}
		if len(next) == 0 {
			s.feeds.Store(nil)
		} else {
			s.feeds.Store(&next)
		}
	}
	s.feedMu.Unlock()
	s.refreshFeedFlags()
}

// mark records that bin idx of key was written and wakes the consumer;
// a key already dirty keeps the lower bin. Called from the append path
// with the owning shard's lock held — the critical section is one map
// op (lock order: shard.mu → feed.mu; the feed list itself is read
// lock-free from an atomic snapshot).
func (f *BinFeed) mark(key topo.KPIKey, idx int) {
	if f.filter != nil && !f.filter(key) {
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	if low, ok := f.dirty[key]; !ok {
		if len(f.dirty) >= f.maxKeys {
			f.overflow = true
			f.mu.Unlock()
			f.wake()
			return
		}
		f.dirty[key] = idx
	} else if idx < low {
		f.dirty[key] = idx
	}
	f.mu.Unlock()
	f.wake()
}

// wake deposits the non-blocking notification token.
func (f *BinFeed) wake() {
	select {
	case f.notify <- struct{}{}:
	default:
	}
}

// notifyFeeds marks the bin of a measurement of key just committed at
// the Unix-nanosecond timestamp nanos dirty on every registered feed.
// The append path calls it only for series whose cached tracked flag is
// set; each feed's own filter still runs inside mark, so a flag gone
// stale (Refilter pending) marks nothing it should not.
//
// The bin is worked out again here, from the timestamp, instead of being
// handed over: keeping it alive across commitLocked's calls, for a
// branch 32 of 20 000 appends take, cost ingest-flood a tenth of its
// median latency in alternating pairs (EXPERIMENTS.md, "Streaming
// advance").
func (s *Store) notifyFeeds(key *topo.KPIKey, nanos int64) {
	fs := s.feeds.Load()
	if fs == nil {
		return
	}
	idx, _ := s.clock.bin(nanos)
	for _, f := range *fs {
		f.mark(*key, idx)
	}
}

// feedWants reports whether any registered feed's filter accepts key —
// the value the series' cached tracked flag takes at creation and on
// every refresh.
func (s *Store) feedWants(key topo.KPIKey) bool {
	fs := s.feeds.Load()
	if fs == nil {
		return false
	}
	for _, f := range *fs {
		if f.filter == nil || f.filter(key) {
			return true
		}
	}
	return false
}

// refreshFeedFlags recomputes the cached tracked flag of every stored
// series against the current feed set. O(series) with each shard
// locked in turn — it runs only when a feed registers or closes; a
// feed whose filter changes its answer names the keys (Refilter).
func (s *Store) refreshFeedFlags() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, e := range sh.series {
			e.feedTracked = s.feedWants(key)
		}
		sh.mu.Unlock()
	}
}
