package monitor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The store reference model: every series a flat slice of bins, plus
// the epoch, the feed's tracked flags and low-water marks. Op programs
// (progRunner) drive a real persistent store and the model in
// lock-step: after every op the store must read as the model does, and
// after a reopen as the model rebuilt from the installed snapshot and
// the log records the runner's journal says reached the disk.

// modelSeries is one series: phys holds the bins of the first sealed
// chunk's pruned head and then the logical bins; enc the encoded size
// of each sealed chunk, −1 for a checksum-failure tombstone.
type modelSeries struct {
	phys []float64
	head int
	enc  []int
}

func (ms *modelSeries) bins() []float64 { return ms.phys[ms.head:] }

// set writes bin, re-encoding the sealed chunk it patches or completes.
func (ms *modelSeries) set(bin int, v float64, span int) {
	for len(ms.bins()) <= bin {
		ms.phys = append(ms.phys, math.NaN())
	}
	p := ms.head + bin
	ms.phys[p] = v
	if ci := p / span; ci < len(ms.enc) {
		ms.enc[ci] = chunk.Encode(ms.phys[ci*span : (ci+1)*span]).EncodedBytes()
	}
	for ci := len(ms.enc); ci < len(ms.phys)/span; ci++ {
		ms.enc = append(ms.enc, chunk.Encode(ms.phys[ci*span:(ci+1)*span]).EncodedBytes())
	}
}

// prune drops the first drop logical bins as the store does: whole
// chunks go, a cut chunk keeps its bins behind head, and a cut at or
// past the sealed region leaves none. It reports whether anything is
// left of the series.
func (ms *modelSeries) prune(drop, span int) bool {
	if drop >= len(ms.bins()) {
		return false
	}
	if p := ms.head + drop; p < len(ms.enc)*span {
		ms.phys, ms.enc, ms.head = ms.phys[p/span*span:], ms.enc[p/span:], p%span
	} else {
		ms.phys, ms.enc, ms.head = ms.phys[p:], nil, 0
	}
	return true
}

// storeModel is the reference store.
type storeModel struct {
	start  time.Time
	span   int
	series map[topo.KPIKey]*modelSeries
	// The feed: whether one is attached, the keys its filter accepts,
	// each series' cached flag, the lowest bin marked per key since the
	// last drain, the prunes since it was attached, and whether a mark
	// or a prune since the last look has left a wakeup token.
	feed, woken bool
	tracked     map[topo.KPIKey]bool
	flags       map[topo.KPIKey]bool
	lows        map[topo.KPIKey]int
	feedEpoch   uint64
}

func newStoreModel(start time.Time, span int) *storeModel {
	return &storeModel{start: start, span: span, series: make(map[topo.KPIKey]*modelSeries),
		tracked: make(map[topo.KPIKey]bool), flags: make(map[topo.KPIKey]bool), lows: make(map[topo.KPIKey]int)}
}

// apply writes ms one after the other, as Append does, and returns the
// ones at or past the epoch — the ones the store keeps and logs.
func (m *storeModel) apply(ms []Measurement) (kept []Measurement) {
	for _, x := range ms {
		if x.T.Before(m.start) {
			continue
		}
		kept = append(kept, x)
		bin := int(x.T.Sub(m.start) / time.Minute)
		s := m.series[x.Key]
		if s == nil {
			s = &modelSeries{}
			m.series[x.Key] = s
			m.flags[x.Key] = m.feed && m.tracked[x.Key]
		}
		s.set(bin, x.V, m.span)
		if !m.feed || !m.flags[x.Key] || !m.tracked[x.Key] {
			continue
		}
		m.woken = true
		if low, ok := m.lows[x.Key]; !ok || bin < low {
			m.lows[x.Key] = bin
		}
	}
	return kept
}

func (m *storeModel) prune(before time.Time) {
	drop := int(before.Sub(m.start) / time.Minute)
	if drop <= 0 {
		return
	}
	for k, s := range m.series {
		if !s.prune(drop, m.span) {
			delete(m.series, k)
			delete(m.flags, k)
		}
	}
	m.start = m.start.Add(time.Duration(drop) * time.Minute)
	if m.feed {
		m.feedEpoch++
		m.woken = true
	}
}

// setFeed attaches or detaches the feed: every flag takes the filter's
// answer, or falls.
func (m *storeModel) setFeed(on bool) {
	m.feed, m.feedEpoch, m.woken = on, 0, false
	clear(m.lows)
	for k := range m.series {
		m.flags[k] = on && m.tracked[k]
	}
}

// clone is what a snapshot of m holds: its series, epoch and span.
func (m *storeModel) clone() *storeModel {
	c := newStoreModel(m.start, m.span)
	for k, s := range m.series {
		c.series[k] = &modelSeries{phys: slices.Clone(s.phys), head: s.head, enc: slices.Clone(s.enc)}
	}
	return c
}

// sameContent reports whether a and b hold the same bins in the same
// chunk layout, bit for bit.
func sameContent(a, b *storeModel) bool {
	if !a.start.Equal(b.start) || a.span != b.span || len(a.series) != len(b.series) {
		return false
	}
	for k, s := range a.series {
		o := b.series[k]
		if o == nil || s.head != o.head || !slices.Equal(s.enc, o.enc) || len(s.phys) != len(o.phys) {
			return false
		}
		for i, v := range s.phys[s.head:] {
			if math.Float64bits(v) != math.Float64bits(o.bins()[i]) {
				return false
			}
		}
	}
	return true
}

// check fails unless s reads as m: the epoch, and for each of keys the
// length, windows at the edges of its regions (clamped past the end as
// RangeInto clamps), a replay from one of them, and the whole store's
// Stats from the model's chunk layout. Nil keys means every series.
func (m *storeModel) check(t testing.TB, s *Store, keys []topo.KPIKey, rng *rand.Rand) {
	t.Helper()
	if !s.Start().Equal(m.start) {
		t.Fatalf("epoch %v, model %v", s.Start(), m.start)
	}
	if keys == nil {
		for k := range m.series {
			keys = append(keys, k)
		}
	}
	for ki, k := range keys {
		n, ok := s.SeriesLen(k)
		ms := m.series[k]
		if ms == nil {
			if _, _, got := s.RangeInto(k, m.start, m.start.Add(time.Hour), nil); ok || got {
				t.Fatalf("%v: the store holds %d bins, the model no series", k, n)
			}
			continue
		}
		want := ms.bins()
		if !ok || n != len(want) {
			t.Fatalf("%v: SeriesLen = %d (%v), model %d", k, n, ok, len(want))
		}
		sealed, nt, _ := shapeOf(s, k)
		edge := func() int {
			at := [...]int{0, sealed, sealed + nt, n, rng.Intn(n + 1)}[rng.Intn(5)] + rng.Intn(3) - 1
			return max(0, min(at, n+1))
		}
		for w := 0; w < 6 && (w == 0 || ki < 64); w++ { // past 64 keys, the whole series only
			lo, hi := edge(), edge()
			if w == 0 {
				lo, hi = 0, n
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			from := m.start.Add(time.Duration(lo) * time.Minute)
			got, wstart, ok := s.RangeInto(k, from, from.Add(time.Duration(hi-lo)*time.Minute), nil)
			if ok != (lo < min(hi, n)) || ok && !wstart.Equal(from) {
				t.Fatalf("%v: RangeInto [%d,%d) of %d: ok %v, start %v", k, lo, hi, n, ok, wstart)
			}
			if ok && len(got) != min(hi, n)-lo {
				t.Fatalf("%v: window [%d,%d) of %d holds %d bins", k, lo, hi, n, len(got))
			}
			for i := 0; ok && i < len(got); i++ {
				if math.Float64bits(got[i]) != math.Float64bits(want[lo+i]) {
					t.Fatalf("%v: window [%d,%d): bin %d = %v, model %v", k, lo, hi, lo+i, got[i], want[lo+i])
				}
			}
		}
		if ki >= 16 {
			continue // a replay reads the whole store; sixteen keys will do
		}
		since := edge()
		got := s.ReplaySince(func(x topo.KPIKey) bool { return x == k }, m.start.Add(time.Duration(since)*time.Minute))
		i := 0
		for bin := min(since, n); bin < n; bin++ {
			if v := want[bin]; !math.IsNaN(v) {
				if i >= len(got) || !got[i].T.Equal(m.start.Add(time.Duration(bin)*time.Minute)) || math.Float64bits(got[i].V) != math.Float64bits(v) {
					t.Fatalf("%v: replay since bin %d: entry %d of %d is not bin %d = %v", k, since, i, len(got), bin, v)
				}
				i++
			}
		}
		if i != len(got) {
			t.Fatalf("%v: replay since bin %d returned %d measurements, model %d", k, since, len(got), i)
		}
	}
	want := Stats{SeriesCount: len(m.series), Start: m.start, LastBin: -1}
	tomb := int64(chunk.Tombstone(m.span).EncodedBytes())
	for _, ms := range m.series {
		n := len(ms.bins())
		want.Bins += n
		want.LastBin = max(want.LastBin, n-1)
		want.Chunks += len(ms.enc)
		want.TailBins += len(ms.phys) - len(ms.enc)*m.span
		for _, b := range ms.enc {
			if b < 0 {
				want.QuarantinedChunks++
				want.CompressedBytes += tomb
			} else {
				want.CompressedBytes += int64(b)
			}
		}
	}
	want.ApproxBytes = want.CompressedBytes + int64(want.TailBins)*8
	if got := s.Stats(); got != want {
		t.Fatalf("stats %+v, model %+v", got, want)
	}
}

// shapeOf reads the regions of key's series: sealed, tail and line
// lengths.
func shapeOf(s *Store, key topo.KPIKey) (sealed, nt, np int) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.series[key]; e != nil {
		return e.sealedLen(s.span), len(e.tail), int(e.npend)
	}
	return 0, 0, 0
}

// Ops of a store program: three bytes each, an opcode and a 16-bit
// argument. A write op's argument names the key (bits 8–10), the path
// (bits 11–13: Append, AppendBatch, or a frame on connection 0, 1 or 2)
// and, in its low byte, a count or the offset it reduces onto the
// region it aims at.
const (
	opAppend      = iota // arg%64+1 bins at the series' end
	opLateLine           // rewrite a bin of the line
	opLateTail           // rewrite a bin of the tail
	opLateSealed         // rewrite a bin of a sealed chunk
	opGap                // write arg%(3·span)+1 bins past the end; bit 7 one before the epoch
	opBin                // a bin of every key past the longest series; bits 0–1 the order, bit 2 a key twice
	opPruneChunks        // prune to a bin of the key's sealed region
	opPruneTail          // … of its tail
	opPruneLine          // … of its line
	opSnapshot           // snapshot and restore in memory
	opCompact            // let a prune's compaction run, or compact
	opReopen             // close and reopen: shards bits 0–1, span bits 2–4, crash at the new store's op arg>>5
	opDamage             // close, damage a log record or the snapshot, reopen (see damage)
	opFeed               // attach the feed, or detach it
	opRefilter           // flip whether the feed tracks the key; an odd arg leaves its flag stale
	opDrain              // drain the feed
	opReconnect          // a fresh connection in place of connection arg%3
	numOps
)

var (
	progSpans  = [...]int{2, 5, 8, 12, 64}
	progShards = [...]int{4, 16, 1, 2}
	progKeys   = append(fleetKeys(4), kPV, topo.KPIKey{Scope: topo.ScopeService, Entity: "kv", Metric: "qps"})
)

// progOps assembles a program from (op, arg) pairs.
func progOps(pairs ...int) []byte {
	var p []byte
	for i := 0; i+1 < len(pairs); i += 2 {
		p = append(p, byte(pairs[i]), byte(pairs[i+1]>>8), byte(pairs[i+1]))
	}
	return p
}

// wr is a write op's argument.
func wr(key, path, n int) int { return path<<11 | key<<8 | n }

// ro is a reopen's argument; crash 0 arms none.
func ro(shards, span, crash int) int { return crash<<5 | span<<2 | shards }

// progConfig is the first open of a program.
type progConfig struct {
	span, shards int
	keys         []topo.KPIKey // progKeys when nil
	// viaBatch applies each frame as AppendBatch of what it carries.
	viaBatch bool
}

// progRunner runs a program over one data directory.
type progRunner struct {
	t    *testing.T
	cfg  progConfig
	keys []topo.KPIKey
	dir  string
	rng  *rand.Rand
	cov  map[string]int

	s      *Store
	ffs    *faultfs.FaultFS
	col    *obs.Collector
	shards int
	m      *storeModel
	wm     map[topo.KPIKey]time.Time // arrival watermarks as last read
	feed   *BinFeed
	sub    <-chan Measurement
	conns  [3]progConn
	next   float64 // the last value written
	prunes int
	framed bool

	// The disk: the installed snapshot, as a model and as the file's
	// bytes, what the journal knows of each log generation, and the cut
	// of a compaction in flight. held is set while a prune's compaction
	// waits on compactMu, so that writes after a prune share its
	// generation.
	snap          *storeModel
	snapFile, cut []byte
	cutModel      *storeModel
	gens          map[uint64]*genModel
	logs          map[uint64]string // each generation's bytes, once frames were sent
	held          bool
	heldAt        int64
	dropped       map[topo.KPIKey]bool // series the last prune dropped
}

type progConn struct {
	enc    keyIDs
	table  *keyTable
	prunes int
}

// genModel is one log generation: its header's epoch, its size on disk
// and the records the journal saw reach it.
type genModel struct {
	start time.Time
	size  int64
	recs  []loggedRec
}

// loggedRec is one record: where it lies, its shard byte and the
// measurements it carries; bad marks damage that ends the generation,
// cut a checksummed record whose last entry was cut short.
type loggedRec struct {
	off, size int64
	shard     byte
	ms        []Measurement
	bad, cut  bool
}

// runProgram runs prog, and, when it sent frames, again with every
// frame applied as AppendBatch: both runs must leave the same files.
func runProgram(t *testing.T, cfg progConfig, prog []byte, cov map[string]int) {
	t.Helper()
	r := newProgRunner(t, cfg, cov)
	r.run(prog)
	r.finish()
	if !r.framed || cfg.viaBatch {
		return
	}
	cfg.viaBatch = true
	b := newProgRunner(t, cfg, nil)
	b.run(prog)
	b.finish()
	for gen, want := range b.logs {
		if got := r.logs[gen]; got != want {
			t.Fatalf("%s: %d bytes from the socket path, %d from AppendBatch", walName(gen), len(got), len(want))
		}
	}
	if got, want := dirImage(t, r.dir), dirImage(t, b.dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("the socket path and AppendBatch left different files: %d and %d", len(got), len(want))
	}
}

func newProgRunner(t *testing.T, cfg progConfig, cov map[string]int) *progRunner {
	if cov == nil {
		cov = make(map[string]int)
	}
	r := &progRunner{t: t, cfg: cfg, keys: cfg.keys, dir: t.TempDir(), rng: rand.New(rand.NewSource(int64(cfg.span))), cov: cov,
		wm: make(map[topo.KPIKey]time.Time), gens: make(map[uint64]*genModel), logs: make(map[uint64]string)}
	if r.keys == nil {
		r.keys = progKeys
	}
	return r
}

func (r *progRunner) run(prog []byte) {
	t := r.t
	t.Helper()
	for pc := 0; pc+3 <= len(prog); pc += 3 {
		op, arg := int(prog[pc])%numOps, int(prog[pc+1])<<8|int(prog[pc+2])
		if r.s == nil {
			if op == opReopen {
				r.openRetry(progShards[arg&3], r.spanArg(arg), int64(arg>>5), nil)
				continue
			}
			r.openRetry(r.cfg.shards, r.cfg.span, 0, nil)
		}
		r.step(op, arg)
	}
	if r.s == nil {
		r.openRetry(r.cfg.shards, r.cfg.span, 0, nil)
	}
}

// fork is a runner over a copy of r's directory as r left it closed,
// with r's model of it.
func (r *progRunner) fork(t *testing.T) *progRunner {
	c := *r
	c.t, c.dir, c.wm, c.logs, c.gens = t, copyImage(t, r.dir), maps.Clone(r.wm), maps.Clone(r.logs), make(map[uint64]*genModel)
	if r.snap != nil {
		c.snap = r.snap.clone()
	}
	for n, g := range r.gens {
		c.gens[n] = &genModel{start: g.start, size: g.size, recs: slices.Clone(g.recs)}
	}
	return &c
}

// finish lets a held compaction run, checks every key and closes the
// store (a crash still armed may end the close).
func (r *progRunner) finish() {
	r.release()
	r.m.check(r.t, r.s, r.keys, r.rng)
	r.s.Close()
}

func (r *progRunner) crashed() bool { return r.ffs.Stats().CrashedOps > 0 }

func (r *progRunner) spanArg(arg int) int {
	if sel := arg >> 2 & 7; sel != 0 {
		return progSpans[(sel-1)%len(progSpans)]
	}
	if r.m != nil {
		return r.m.span
	}
	return r.cfg.span
}

func (r *progRunner) step(op, arg int) {
	t := r.t
	t.Helper()
	key := r.keys[arg>>8%8%len(r.keys)]
	path := arg >> 11 % 5
	sealed, nt, np := shapeOf(r.s, key)
	n := sealed + nt + np
	began := time.Now()
	var wrote []Measurement
	full := false
	switch op {
	case opAppend:
		wrote = r.write(path, r.bins(key, n, arg%64+1))
	case opLateLine, opLateTail, opLateSealed:
		lo, size, what := [...]int{sealed + nt, sealed, 0}[op-opLateLine], [...]int{np, nt, sealed}[op-opLateLine], [...]string{"line", "tail", "sealed"}[op-opLateLine]
		if size > 0 {
			wrote = r.write(path, r.bins(key, lo+arg%256%size, 1))
			r.cov["late "+what]++
		}
	case opGap:
		if arg&0x80 != 0 {
			wrote = r.write(path, r.bins(key, -1-arg%4, 1))
			r.cov["before the epoch"]++
			break
		}
		gap := arg%256%(3*r.m.span) + 1
		wrote = r.write(path, r.bins(key, n+gap, 1))
		if np+gap >= pendBins {
			r.cov["gap past the line"]++
		}
	case opBin:
		end := 0
		for _, k := range r.keys {
			l, _ := r.s.SeriesLen(k)
			end = max(end, l)
		}
		ms := make([]Measurement, len(r.keys))
		for i := range ms {
			j := [...]int{i, len(ms) - 1 - i, (i + 1) % len(ms), i / 2 * 2}[arg&3]
			ms[i] = r.bins(r.keys[j], end, 1)[0]
		}
		if arg&4 != 0 {
			ms = append(ms, r.bins(ms[0].Key, end, 1)...)
		}
		wrote = r.write(path, ms)
	case opPruneChunks, opPruneTail, opPruneLine:
		lo, size, what := [...]int{0, sealed, sealed + nt}[op-opPruneChunks], [...]int{sealed, nt, np}[op-opPruneChunks], [...]string{"chunks", "tail", "line"}[op-opPruneChunks]
		if drop := lo + arg%256%max(size, 1); size > 0 && drop > 0 {
			r.prune(drop)
			r.cov["prune into the "+what]++
			full = true
		}
	case opSnapshot:
		r.roundTrip()
		r.cov[fmt.Sprintf("snapshot with %d bins in the line", np)]++
	case opCompact:
		r.compact()
		full = true
	case opReopen:
		if shards, span := progShards[arg&3], r.spanArg(arg); shards != r.shards || span != r.m.span {
			r.cov["reshard or respan"]++
		}
		r.reopen(progShards[arg&3], r.spanArg(arg), int64(arg>>5))
		full = true
	case opDamage:
		r.damage(arg)
		full = true
	case opFeed:
		if r.feed == nil {
			r.feed = r.s.NewBinFeed(func(k topo.KPIKey) bool { return r.m.tracked[k] }, 1<<16)
			r.cov["feed attached"]++
		} else {
			r.feed.Close()
			r.feed = nil
		}
		r.m.setFeed(r.feed != nil)
	case opRefilter:
		r.m.tracked[key] = !r.m.tracked[key]
		if r.feed != nil && arg&1 == 0 {
			r.feed.Refilter([]topo.KPIKey{key})
			if r.m.series[key] != nil {
				r.m.flags[key] = r.m.tracked[key]
			}
			r.cov["refilter"]++
		} else if r.feed != nil {
			r.cov["refilter left stale"]++
		}
	case opDrain:
		if r.feed != nil {
			keys, lows, epoch, overflow := r.feed.DrainBins(nil, nil)
			got := make(map[topo.KPIKey]int)
			for i, k := range keys {
				got[k] = lows[i]
			}
			if overflow || epoch != r.m.feedEpoch || !maps.Equal(got, r.m.lows) {
				t.Fatalf("drained %v at epoch %d (overflow %v), model %v at %d", got, epoch, overflow, r.m.lows, r.m.feedEpoch)
			}
			clear(r.m.lows)
			r.cov["drain"]++
		}
	case opReconnect:
		r.conns[arg%3] = progConn{}
		r.cov["reconnect"]++
	}
	r.checkOp(began, wrote, full)
	if r.crashed() {
		r.cov[fmt.Sprintf("crash in a %s op", [...]string{"write", "write", "write", "write", "write", "write", "prune", "prune", "prune", "snapshot", "compaction", "reopen", "damage", "feed", "feed", "feed", "feed"}[op])]++
		r.reopen(r.shards, r.m.span, 0)
	}
}

// bins returns count measurements of key from bin lo on, with the next
// values: most integral, a few fractional, and now and then a NaN.
func (r *progRunner) bins(key topo.KPIKey, lo, count int) []Measurement {
	ms := make([]Measurement, count)
	for i := range ms {
		r.next++
		v := r.next
		switch {
		case int(r.next)%13 == 0:
			v = math.NaN()
		case int(r.next)%7 == 0:
			v += 0.25
		}
		ms[i] = Measurement{key, r.m.start.Add(time.Duration(lo+i) * time.Minute), v}
	}
	return ms
}

// write stores ms by the path named, applies them to the model, and
// journals what reached the log; it returns the measurements kept.
func (r *progRunner) write(path int, ms []Measurement) (kept []Measurement) {
	r.cov[fmt.Sprintf("path %d", path)]++
	for _, m := range ms {
		if r.held && r.dropped[m.Key] && !m.T.Before(r.m.start) {
			r.cov["re-created in one generation"]++
		}
	}
	do := func(ms []Measurement, store func()) {
		store()
		k := r.m.apply(ms)
		r.journal(k)
		kept = append(kept, k...)
		// The subscriber receives each key's kept measurements, in order.
		got := make(map[topo.KPIKey][]Measurement)
		for len(r.sub) > 0 {
			m := <-r.sub
			got[m.Key] = append(got[m.Key], m)
		}
		for _, m := range k {
			if g := got[m.Key]; len(g) == 0 || !g[0].T.Equal(m.T) || math.Float64bits(g[0].V) != math.Float64bits(m.V) {
				r.t.Fatalf("%v: delivered %v, want %v at %v", m.Key, g, m.V, m.T)
			}
			got[m.Key] = got[m.Key][1:]
		}
	}
	switch path {
	case 0:
		for _, m := range ms {
			do([]Measurement{m}, func() { r.s.Append(m) })
		}
	case 1:
		do(ms, func() { r.s.AppendBatch(ms) })
	default:
		c := &r.conns[path-2]
		if c.table == nil {
			c.table = newKeyTable(r.s, maxKeyCacheEntries)
		} else if c.prunes != r.prunes {
			r.cov["handles across a prune"]++
		}
		c.prunes = r.prunes
		r.framed = true
		for rest := ms; len(rest) > 0; {
			frame, next, err := c.enc.appendFrame(nil, rest)
			if err != nil {
				r.t.Fatal(err)
			}
			fms := rest[:len(rest)-len(next)]
			do(fms, func() {
				if r.cfg.viaBatch {
					r.s.AppendBatch(fms)
				} else if err := c.table.ingestFrame(frame[4:]); err != nil {
					r.t.Fatal(err)
				}
			})
			rest = next
		}
	}
	return kept
}

// journal notes the records the last write added to the live log: the
// whole ones, each with the measurements it carries — the kept ones of
// its shard, in order, as many as it has entries. Without a crash every
// kept measurement must be in one.
func (r *progRunner) journal(kept []Measurement) {
	t := r.t
	p := r.s.persist
	p.logMu.Lock()
	gen := p.gen
	p.logMu.Unlock()
	g := r.gens[gen]
	if g == nil {
		r.noteGens(r.m.start)
		g = r.gens[gen]
	}
	f, err := os.Open(filepath.Join(r.dir, walName(gen)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(io.NewSectionReader(f, g.size, math.MaxInt64-g.size))
	if err != nil {
		t.Fatal(err)
	}
	queues := make(map[byte][]Measurement)
	for _, m := range kept {
		si := byte(r.s.shardIndex(m.Key))
		queues[si] = append(queues[si], m)
	}
	for len(raw) >= 4 {
		n := int(binary.BigEndian.Uint32(raw))
		if len(raw) < n+walRecordOverhead {
			break // torn by a crash
		}
		shard, q := raw[4], queues[raw[4]]
		cnt := entryCount(raw[5 : 5+n])
		if cnt > len(q) {
			t.Fatalf("a record of %d entries in shard %d, which logged %d", cnt, shard, len(q))
		}
		g.recs = append(g.recs, loggedRec{off: g.size, size: int64(n + walRecordOverhead), shard: shard, ms: q[:cnt]})
		queues[shard] = q[cnt:]
		g.size += int64(n + walRecordOverhead)
		raw = raw[n+walRecordOverhead:]
	}
	g.size += int64(len(raw))
	for si, q := range queues {
		if len(q) > 0 && !r.crashed() {
			t.Fatalf("%d measurements of shard %d missing from the log", len(q), si)
		}
	}
}

// entryCount counts the entries of a record's payload.
func entryCount(p []byte) (n int) {
	for off := 0; off < len(p); n++ {
		if p[off] == 0 {
			_, keyEnd, _ := measurementKeySpan(p[off+1:])
			off += 1 + keyEnd + 16
		} else {
			_, w := binary.Uvarint(p[off:])
			off += w + 16
		}
	}
	return n
}

// checkOp checks the store after an op that wrote the measurements
// given: the touched keys (every key after a full op), the arrival
// watermarks — the ones written stamped during the op, the others
// unmoved — and the feed's marks.
func (r *progRunner) checkOp(began time.Time, wrote []Measurement, full bool) {
	t := r.t
	t.Helper()
	touched := make(map[topo.KPIKey]bool)
	var keys []topo.KPIKey
	for _, m := range wrote {
		if !touched[m.Key] && len(keys) < 8 {
			keys = append(keys, m.Key)
		}
		touched[m.Key] = true
	}
	if (full || len(r.keys) <= 8) && len(r.keys) <= 64 {
		keys = r.keys
	}
	r.m.check(t, r.s, keys, r.rng)
	now := time.Now()
	for _, k := range r.keys[:min(len(r.keys), 64)] {
		wm, ok := r.s.ArrivalWatermark(k)
		if ok != (r.m.series[k] != nil) || touched[k] && (wm.Before(began) || wm.After(now)) || ok && !touched[k] && !wm.Equal(r.wm[k]) {
			t.Fatalf("%v: arrival watermark %v (%v), last read %v, written during [%v, %v]: %v", k, wm, ok, r.wm[k], began, now, touched[k])
		}
		r.wm[k] = wm
	}
	if f := r.feed; f != nil {
		f.mu.Lock()
		got, overflow, epoch := maps.Clone(f.dirty), f.overflow, f.epoch
		f.mu.Unlock()
		if overflow || epoch != r.m.feedEpoch || !maps.Equal(got, r.m.lows) {
			t.Fatalf("feed marks %v at epoch %d (overflow %v), model %v at %d", got, epoch, overflow, r.m.lows, r.m.feedEpoch)
		}
		select {
		case <-f.C():
			if !r.m.woken {
				t.Fatal("a wakeup token with nothing marked")
			}
		default:
			if r.m.woken {
				t.Fatal("marks, and no wakeup token")
			}
		}
		r.m.woken = false
	}
}

// prune prunes drop bins and holds the compaction it asks for until the
// next op that needs the disk quiet (release).
func (r *progRunner) prune(drop int) {
	r.release()
	before := len(r.m.series)
	if !r.crashed() {
		r.s.persist.compactMu.Lock()
		r.held, r.heldAt = true, r.col.Counter(obs.CtrCompactions)
	}
	r.dropped = make(map[topo.KPIKey]bool)
	for k := range r.m.series {
		r.dropped[k] = true
	}
	at := r.m.start.Add(time.Duration(drop) * time.Minute)
	r.s.Prune(at)
	r.m.prune(at)
	r.prunes++
	for k := range r.m.series {
		delete(r.dropped, k)
	}
	if len(r.m.series) < before {
		r.cov["prune drops a series"]++
	}
}

// release lets a held compaction run, and waits for it.
func (r *progRunner) release() {
	if !r.held {
		return
	}
	r.held = false
	if r.crashed() {
		r.s.persist.compactMu.Unlock()
		return
	}
	r.noteGens(r.m.start)
	r.cut, r.cutModel = snapshotBytes(r.t, r.s), r.m.clone()
	r.s.persist.compactMu.Unlock()
	waitFor(r.t, "the prune's compaction", func() bool { return r.col.Counter(obs.CtrCompactions) > r.heldAt || r.crashed() })
	if !r.crashed() {
		r.compacted()
	}
}

// compact lets a held compaction run, or compacts.
func (r *progRunner) compact() {
	if r.held || r.crashed() {
		r.release()
		return
	}
	r.noteGens(r.m.start)
	r.cut, r.cutModel = snapshotBytes(r.t, r.s), r.m.clone()
	if err := r.s.Compact(); err != nil {
		if !r.crashed() {
			r.t.Fatalf("compact: %v", err)
		}
		return
	}
	r.compacted()
}

// compacted records a compaction that completed: its snapshot, which
// must be the cut's, and the generation it started.
func (r *progRunner) compacted() {
	raw, err := os.ReadFile(filepath.Join(r.dir, snapshotFile))
	if err != nil || !bytes.Equal(raw, r.cut) {
		r.t.Fatalf("the compaction installed %d bytes (%v), its cut is %d", len(raw), err, len(r.cut))
	}
	r.snap, r.snapFile, r.cut = r.cutModel, raw, nil
	r.noteGens(r.m.start)
	r.cov["compaction"]++
}

// noteGens sizes every generation on disk, registering the ones the
// runner has not seen with the epoch their header was written at.
func (r *progRunner) noteGens(start time.Time) []walGeneration {
	gens, err := listWALs(faultfs.OS, r.dir)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, g := range gens {
		gm := r.gens[g.gen]
		if gm == nil {
			gm = &genModel{start: start}
			r.gens[g.gen] = gm
		}
		info, err := os.Stat(g.path)
		if err != nil {
			r.t.Fatal(err)
		}
		gm.size = info.Size()
		if r.framed { // for runProgram's comparison
			raw, _ := os.ReadFile(g.path)
			r.logs[g.gen] = string(raw)
		}
	}
	return gens
}

// roundTrip restores a snapshot of the store in memory: the restored
// store reads as the model, stamped during the restore, and snapshots
// to the same bytes.
func (r *progRunner) roundTrip() {
	snap := snapshotBytes(r.t, r.s)
	began := time.Now()
	re, err := ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		r.t.Fatalf("restore: %v", err)
	}
	now := time.Now()
	r.m.check(r.t, re, r.keys, r.rng)
	for k := range r.m.series {
		if wm, ok := re.ArrivalWatermark(k); !ok || wm.Before(began) || wm.After(now) {
			r.t.Fatalf("%v: restored watermark %v (%v), restored during [%v, %v]", k, wm, ok, began, now)
		}
	}
	if again := snapshotBytes(r.t, re); !bytes.Equal(snap, again) {
		r.t.Fatalf("a snapshot of %d bytes restores to one of %d", len(snap), len(again))
	}
}

// reopen closes the store — a kill, after a crash — and opens the
// directory again.
func (r *progRunner) reopen(shards, span int, crash int64) {
	before := r.close()
	r.openRetry(shards, span, crash, before)
}

// close closes the store and returns its snapshot bytes; what the
// close left on disk is noted.
func (r *progRunner) close() []byte {
	r.release()
	before := snapshotBytes(r.t, r.s)
	r.s.Close() // after a crash, its error is the crash
	r.settle(r.m.start)
	return before
}

// settle notes what a close or a kill left: every generation's size,
// and whether a compaction cut short installed its snapshot — the file
// must be the one installed before or the cut.
func (r *progRunner) settle(start time.Time) {
	r.noteGens(start)
	if r.cut == nil {
		return
	}
	raw, _ := os.ReadFile(filepath.Join(r.dir, snapshotFile))
	if !bytes.Equal(raw, r.snapFile) {
		if !bytes.Equal(raw, r.cut) {
			r.t.Fatalf("after a crash the snapshot is %d bytes: neither the installed one (%d) nor the cut (%d)", len(raw), len(r.snapFile), len(r.cut))
		}
		r.snap, r.snapFile = r.cutModel, raw
	}
	r.cut = nil
}

func (r *progRunner) openRetry(shards, span int, crash int64, before []byte) {
	for !r.open(shards, span, crash, before) {
		crash = 0
	}
}

// durable is the model a reopen must recover, and its RecoveryStats:
// the installed snapshot, then every generation on disk replayed up to
// its first bad record, a cut record ending its shard. Without a
// snapshot the epoch is the first complete log header's; fresh is set
// when there is none.
func (r *progRunner) durable(gens []walGeneration, span int) (want *storeModel, st RecoveryStats, fresh bool) {
	if r.snap != nil {
		want = r.snap.clone()
		st.SnapshotSeries = len(want.series)
		for _, s := range want.series {
			for _, b := range s.enc {
				if b < 0 {
					st.QuarantinedChunks++
				}
			}
		}
	} else {
		want, fresh = newStoreModel(t0, span), true
		for _, g := range gens {
			if gm := r.gens[g.gen]; gm.size >= int64(walHeaderLen) {
				want.start, fresh = gm.start, false
				break
			}
		}
		if !fresh {
			r.cov["epoch from a log header"]++
		}
	}
	st.Generations = len(gens)
	for _, g := range gens {
		gm := r.gens[g.gen]
		ended := make(map[byte]bool)
		end, broke := int64(walHeaderLen), false
		for _, rec := range gm.recs {
			if broke = rec.bad || rec.off+rec.size > gm.size; broke {
				if rec.bad || rec.off < gm.size {
					st.TornTails++
				}
				break
			}
			st.LogBytes += rec.size
			end = rec.off + rec.size
			if ended[rec.shard] {
				continue
			}
			ms := rec.ms
			if rec.cut {
				ms, ended[rec.shard] = ms[:len(ms)-1], true
				st.TornTails++
			}
			st.WALRecords += len(ms)
			want.apply(ms)
		}
		if !broke && gm.size > end {
			st.TornTails++
		}
	}
	return want, st, fresh
}

// open opens the directory, with a crash armed at the new store's
// mutating op crash when it is not 0, and checks it against the model
// durable says: RecoveryStats, contents, watermarks stamped during the
// open, and — when nothing was lost and the span stands — the snapshot
// bytes of the store before. It reports false when the crash struck
// inside the open.
func (r *progRunner) open(shards, span int, crash int64, before []byte) bool {
	t := r.t
	t.Helper()
	start := t0
	if r.m != nil {
		start = r.m.start
	}
	gens := r.noteGens(start)
	want, wantStats, fresh := r.durable(gens, span)
	if start = t0; !fresh {
		start = t0.Add(-7 * time.Minute) // the directory's epoch must win
	}
	r.ffs = faultfs.New(faultfs.Plan{Seed: crash, CrashAtOp: crash}, unsyncedFS{faultfs.OS})
	began := time.Now()
	st, err := OpenPersistent(r.dir, start, time.Minute, PersistOptions{Shards: shards, SyncInterval: -1, CompactBytes: -1, ChunkSpan: span, FS: r.ffs})
	if err != nil {
		if !r.crashed() {
			t.Fatalf("open: %v", err)
		}
		r.settle(want.start)
		r.cov["crash in an open"]++
		return false
	}
	r.s, r.shards, r.col = st, shards, obs.NewCollector()
	st.SetCollector(r.col)
	r.sub, _ = st.Subscribe(nil, 1<<16) // room for every delivery of one op
	got := st.Recovered()
	got.SnapshotTime, got.ReplayTime, got.AttachTime = 0, 0, 0
	if got != wantStats {
		t.Fatalf("recovery stats %+v, model %+v", got, wantStats)
	}
	if r.m != nil {
		want.tracked = r.m.tracked
		if before != nil && sameContent(r.m, want) {
			if after := snapshotBytes(t, st); !bytes.Equal(after, before) {
				t.Fatalf("nothing was lost, but the reopened store snapshots to %d bytes, the store before to %d", len(after), len(before))
			}
			r.cov["nothing lost"]++
		}
	}
	r.m, r.feed, r.conns = want, nil, [3]progConn{}
	r.noteGens(want.start)
	now := time.Now()
	for _, k := range r.keys {
		wm, ok := st.ArrivalWatermark(k)
		if ok != (want.series[k] != nil) || ok && (wm.Before(began) || wm.After(now)) {
			t.Fatalf("%v: watermark %v (%v) after an open during [%v, %v]", k, wm, ok, began, now)
		}
		r.wm[k] = wm
	}
	want.check(t, st, r.keys, r.rng)
	r.cov["reopen"]++
	return true
}

// damage closes the store, damages what the argument names and opens
// the directory again. Bits 8–11 pick the kind, kinds 0–9 a record of
// the generation back (bits 0–1) from the newest that holds records, at
// the fraction bits 2–7 of its records: a bit flipped in the length
// word, the shard byte, the payload or the CRC (0–3); the file cut at
// the record, inside its length word, its payload or its CRC (4–7); a
// garbage length (8); the last entry cut by a byte under a CRC that
// holds (9). Kind 10 rots a sealed chunk of the snapshot.
func (r *progRunner) damage(arg int) {
	before := r.close()
	if kind := arg >> 8 % 11; kind == 10 {
		r.rotSnapshot(arg >> 2 & 63)
	} else if g, path := r.damaged(arg & 3); g != nil {
		r.damageRecord(g, path, (arg>>2&63)*wholeRecs(g)/64, kind)
	}
	r.openRetry(r.shards, r.m.span, 0, before)
}

// damageRecord damages record i of generation g, at path, as kind says
// (see damage).
func (r *progRunner) damageRecord(g *genModel, path string, i, kind int) {
	raw, err := os.ReadFile(path)
	if err != nil {
		r.t.Fatal(err)
	}
	rec := &g.recs[i]
	off, n := int(rec.off), int(rec.size)-walRecordOverhead
	switch {
	case kind < 4:
		raw[off+[...]int{3, 4, 5 + n/2, 5 + n + 1}[kind]] ^= 0x10
		rec.bad = true
	case kind < 8:
		raw = raw[:off+[...]int{0, 2, 5 + n/2, 5 + n + 2}[kind-4]]
	case kind == 8:
		binary.BigEndian.PutUint32(raw[off:], 0xFFFFFFF0)
		rec.bad = true
	default:
		body := raw[off+4 : off+5+n-1] // shard byte and payload, the last byte cut
		fixed := binary.BigEndian.AppendUint32(nil, uint32(n-1))
		fixed = binary.BigEndian.AppendUint32(append(fixed, body...), crc32.ChecksumIEEE(body))
		raw = append(append(append([]byte{}, raw[:off]...), fixed...), raw[off+int(rec.size):]...)
		rec.cut, rec.size = true, rec.size-1
		for j := i + 1; j < len(g.recs); j++ {
			g.recs[j].off--
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		r.t.Fatal(err)
	}
	g.size = int64(len(raw))
	r.cov[fmt.Sprintf("damage %d", kind)]++
}

// wholeRecs counts g's records ahead of the first one damaged or not
// whole on disk.
func wholeRecs(g *genModel) (n int) {
	for _, rec := range g.recs {
		if rec.bad || rec.cut || rec.off+rec.size > g.size {
			break
		}
		n++
	}
	return n
}

// damaged returns the generation back from the newest one on disk
// that holds a whole record, and its path.
func (r *progRunner) damaged(back int) (*genModel, string) {
	gens, _ := listWALs(faultfs.OS, r.dir)
	var with []walGeneration
	for _, g := range gens {
		if wholeRecs(r.gens[g.gen]) > 0 {
			with = append(with, g)
		}
	}
	if len(with) == 0 {
		return nil, ""
	}
	g := with[max(0, len(with)-1-back)]
	return r.gens[g.gen], g.path
}

// rotSnapshot flips a byte inside the sel-th sealed chunk of the
// installed snapshot whose bytes occur in the file once: recovery must
// quarantine it, and the model turns it into a tombstone.
func (r *progRunner) rotSnapshot(sel int) {
	if r.snap == nil {
		return
	}
	var cands [][2]int // key index, chunk
	for ki, k := range r.keys {
		for ci := 0; r.snap.series[k] != nil && ci < len(r.snap.series[k].enc); ci++ {
			if r.snap.series[k].enc[ci] >= 0 {
				cands = append(cands, [2]int{ki, ci})
			}
		}
	}
	span := r.snap.span
	for i := range cands {
		c := cands[(sel+i)%len(cands)]
		s := r.snap.series[r.keys[c[0]]]
		data := chunk.Encode(s.phys[c[1]*span : (c[1]+1)*span]).Data()
		if bytes.Count(r.snapFile, data) != 1 {
			continue
		}
		raw := bytes.Clone(r.snapFile)
		raw[bytes.Index(raw, data)+len(data)/2] ^= 0x40
		if err := os.WriteFile(filepath.Join(r.dir, snapshotFile), raw, 0o644); err != nil {
			r.t.Fatal(err)
		}
		r.snapFile = raw
		s.enc[c[1]] = -1
		for b := c[1] * span; b < (c[1]+1)*span; b++ {
			s.phys[b] = math.NaN()
		}
		r.cov["damage 10"]++
		return
	}
}

// unsyncedFS is the real filesystem with fsync turned into a no-op: a
// program opens many stores, and a fuzz run many programs.
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

// openTestStore opens a fresh persistent store with nothing running in
// the background, so that its files change only when a write lands.
func openTestStore(t testing.TB, shards, span int) (*Store, string) {
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
