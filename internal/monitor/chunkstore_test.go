package monitor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
)

// chunkedStore builds a store with a small chunk span so sealing,
// head-pruning and multi-chunk windows all exercise in small tests.
func chunkedStore(t *testing.T, span int) *Store {
	t.Helper()
	s := NewStore(t0, time.Minute)
	s.SetChunkSpan(span)
	return s
}

// fillProgram appends about bins bins to key 0 of a program, by every
// path: runs of values (every thirteenth a NaN), gaps, and now and then
// a late write far enough back to be sealed.
func fillProgram(seed int64, bins int) []int {
	rng := rand.New(rand.NewSource(seed))
	var p []int
	for n := 0; n < bins; n += 16 {
		p = append(p, opAppend, wr(0, rng.Intn(5), rng.Intn(32)))
		switch rng.Intn(4) {
		case 0:
			p = append(p, opGap, wr(0, rng.Intn(5), rng.Intn(4)))
		case 1:
			p = append(p, opLateSealed, wr(0, rng.Intn(5), rng.Intn(256)))
		}
	}
	return p
}

// sameBits asserts two float slices are bit-identical.
func sameBits(t testing.TB, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len = %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bin %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// The store against the store reference model: windows at every region
// edge after each op (RangeInto and Series alike), clamped past the
// end, and after a prune into a chunk.
func TestRangeIntoMatchesSeries(t *testing.T) {
	for _, span := range []int{2, 7, 64} {
		runProgram(t, progConfig{span: span, shards: 4}, progOps(fillProgram(int64(span), 500)...), nil)
	}
}

func TestRangeIntoMatchesRange(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(append(fillProgram(4, 100), opAppend, wr(1, 1, 3))...), nil)
}

func TestRangeIntoAfterPrune(t *testing.T) {
	for _, span := range []int{4, 16} {
		p := append(fillProgram(7, 300), opPruneChunks, wr(0, 0, 3*span+span/2), opAppend, wr(0, 2, 5))
		runProgram(t, progConfig{span: span, shards: 4}, progOps(p...), nil)
	}
}

// TestPruneDropsWholeChunks: a prune three chunks and five bins into a
// series of ten drops the three, and one past a shorter series' end
// drops it whole.
func TestPruneDropsWholeChunks(t *testing.T) {
	p := progOps(opAppend, wr(1, 1, 20), opAppend, 63, opAppend, 35, opPruneChunks, 35, opPruneTail, wr(0, 0, 8))
	runProgram(t, progConfig{span: 10, shards: 4}, p, nil)
}

func TestLateWriteIntoSealedChunk(t *testing.T) {
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(opAppend, 39, opLateSealed, 3, opLateSealed, wr(0, 2, 9)), nil)
}

func TestRangeIntoAllocs(t *testing.T) {
	s := chunkedStore(t, 64)
	// 640 bins are ten sealed chunks; 13 more leave 8 in the tail and 5
	// in the line.
	const bins = 640 + pendBins + 5
	for i := 0; i < bins; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i % 250)})
	}
	dst := make([]float64, 0, 256)
	for _, w := range []struct{ lo, hi int }{{100, 300}, {bins - 200, bins - 2}, {bins - 3, bins}} {
		from, to := t0.Add(time.Duration(w.lo)*time.Minute), t0.Add(time.Duration(w.hi)*time.Minute)
		if n := testing.AllocsPerRun(100, func() {
			vals, _, ok := s.RangeInto(kCPU, from, to, dst)
			if !ok || len(vals) != w.hi-w.lo || vals[len(vals)-1] != float64((w.hi-1)%250) {
				t.Fatalf("window [%d,%d) read failed", w.lo, w.hi)
			}
			dst = vals[:0]
		}); n != 0 {
			t.Fatalf("RangeInto [%d,%d) allocates %v per op, want 0", w.lo, w.hi, n)
		}
	}
}

// TestStatsCompression: Stats against the chunk layout of the model.
func TestStatsCompression(t *testing.T) {
	var p []int
	for i := 0; i < 17; i++ {
		p = append(p, opAppend, wr(0, i%2, 63))
	}
	runProgram(t, progConfig{span: 100, shards: 4}, progOps(p...), nil)
}

// Counts are the paper's bread-and-butter KPIs (page views,
// transactions, errors), and integer float64s share long runs of zero
// mantissa bits, which is what the XOR codec is for: a month of them must
// stay resident in at most half the flat []float64 footprint. The same
// shape with full mantissas does not compress, so the bound can fail.
func TestResidentCompressionCountKPIs(t *testing.T) {
	const servers, bins = 8, 30 * 24 * 60
	resident := func(round bool) float64 {
		s := NewStore(t0, time.Minute)
		batch := make([]Measurement, 0, 512)
		for srv := 0; srv < servers; srv++ {
			key := topo.KPIKey{Scope: topo.ScopeServer, Entity: fmt.Sprintf("srv-%d", srv), Metric: "req.count"}
			rng := rand.New(rand.NewSource(int64(srv) + 7))
			for bin := 0; bin < bins; bin++ {
				// A diurnal request rate with Poisson-like jitter.
				v := 800 + 400*math.Sin(2*math.Pi*float64(bin%1440)/1440) + 40*rng.NormFloat64()
				if round {
					v = math.Round(v)
				}
				batch = append(batch, Measurement{key, t0.Add(time.Duration(bin) * time.Minute), v})
				if len(batch) == cap(batch) {
					s.AppendBatch(batch)
					batch = batch[:0]
				}
			}
		}
		s.AppendBatch(batch)
		st := s.Stats()
		if st.Bins != servers*bins {
			t.Fatalf("stored %d bins, want %d", st.Bins, servers*bins)
		}
		ratio := float64(st.ApproxBytes) / float64(st.Bins*8)
		t.Logf("round=%v: %d B resident vs %d B flat (%.3f×, %d chunks)", round, st.ApproxBytes, st.Bins*8, ratio, st.Chunks)
		return ratio
	}
	if r := resident(true); r > 0.5 {
		t.Errorf("integer counts stay resident at %.3f× the flat layout, want ≤ 0.5×", r)
	}
	if r := resident(false); r <= 0.5 {
		t.Errorf("full-mantissa control reads %.3f×: the ≤ 0.5× bound cannot fail on this shape", r)
	}
}

// TestSnapshotChunkedRoundTrip: a snapshot keeps the span, a pruned
// head and the chunks verbatim.
func TestSnapshotChunkedRoundTrip(t *testing.T) {
	p := append(fillProgram(21, 200), opAppend, wr(1, 1, 60), opPruneChunks, wr(0, 0, 20), opSnapshot, 0, opCompact, 0, opReopen, 0)
	runProgram(t, progConfig{span: 16, shards: 4}, progOps(p...), nil)
}

// TestSnapshotRejectsOldVersions: versions 1 and 2 were never deployed
// and their readers are gone; a header declaring one is refused by
// name, not misread as version 3.
func TestSnapshotRejectsOldVersions(t *testing.T) {
	for _, version := range []uint16{0, 1, 2, 4} {
		var hdr [4 + 2 + 8 + 8 + 4 + 4]byte
		copy(hdr[:], snapshotMagic)
		binary.BigEndian.PutUint16(hdr[4:6], version)
		binary.BigEndian.PutUint64(hdr[6:14], uint64(t0.UnixNano()))
		binary.BigEndian.PutUint64(hdr[14:22], uint64(time.Minute))
		binary.BigEndian.PutUint32(hdr[22:26], 16) // chunk span
		_, err := ReadSnapshot(bytes.NewReader(hdr[:]))
		if want := fmt.Sprintf("unsupported snapshot version %d", version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: error %v, want %q", version, err, want)
		}
	}
}

func TestReplaySinceChunked(t *testing.T) {
	for _, span := range []int{8, 512} {
		runProgram(t, progConfig{span: span, shards: 4}, progOps(append(fillProgram(31, 120), opGap, wr(1, 1, 90))...), nil)
	}
}

func TestSetChunkSpanGuards(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.SetChunkSpan(1) // clamps to 2
	if s.ChunkSpan() != 2 {
		t.Fatalf("span = %d, want clamp to 2", s.ChunkSpan())
	}
	s.Append(Measurement{kCPU, t0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("SetChunkSpan on a populated store should panic")
		}
	}()
	s.SetChunkSpan(64)
}

// TestPruneThenLateWriteAcrossSealBoundaries pins the interaction of
// the two sealed-region mutators: after a mid-chunk prune (non-zero
// head), late writes must patch the right bin even where the logical
// index and the encoded position disagree by head — on the first and
// last bin of a sealed chunk, where an off-by-head lands in the
// neighbouring chunk — by every path, and a second prune stays aligned.
func TestPruneThenLateWriteAcrossSealBoundaries(t *testing.T) {
	for path := 0; path < 5; path++ {
		p := tailSeedPrograms()[0]
		for i := 1; i < len(p); i += 3 {
			p[i] |= byte(path << 3)
		}
		runProgram(t, progConfig{span: 8, shards: 4}, p, nil)
	}
}

// TestLateWriteIsCopyOnWrite pins the memory contract the lock-free
// readers rely on: a late write into sealed territory must install a
// new chunks slice with a new chunk object, leaving the slice a
// concurrent reader captured — and every chunk in it — untouched.
func TestLateWriteIsCopyOnWrite(t *testing.T) {
	const span = 8
	s := chunkedStore(t, span)
	for i := 0; i < 4*span; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	sh := s.shardFor(kCPU)
	sh.mu.Lock()
	e := sh.series[kCPU]
	held := e.chunks // what a reader outside the lock may hold
	sh.mu.Unlock()

	const bin = span + 2 // sealed
	s.Append(Measurement{kCPU, t0.Add(bin * time.Minute), -1})

	sh.mu.Lock()
	fresh := e.chunks
	sh.mu.Unlock()
	if &held[0] == &fresh[0] {
		t.Fatal("late write mutated the published chunks slice in place")
	}
	if held[1] == fresh[1] {
		t.Fatal("late write reused the patched chunk object")
	}
	var old [span]float64
	held[1].DecodeInto(old[:], 0, span)
	if old[2] != float64(bin) {
		t.Fatalf("reader's captured chunk changed under it: bin = %v", old[2])
	}
	var now [span]float64
	fresh[1].DecodeInto(now[:], 0, span)
	if now[2] != -1 {
		t.Fatalf("patch missing from the fresh chunk: %v", now[2])
	}
}

// TestLateSealedWriteAllocs counts what one late write into a sealed
// chunk allocates: the re-encoded chunk (the Chunk and its bytes) and
// the copy-on-write chunks slice. The span-sized decode buffer comes
// from the store's pool and goes back to it.
func TestLateSealedWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	const span = 64
	s := chunkedStore(t, span)
	for i := 0; i < 4*span; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i % 50)})
	}
	sh := s.shardFor(kCPU)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.series[kCPU]
	v := 0.0
	if n := testing.AllocsPerRun(100, func() {
		v++
		s.setBinLocked(e, span+7, v)
	}); n != 3 {
		t.Fatalf("a late sealed write allocates %v times, want 3", n)
	}
	var got [span]float64
	e.chunks[1].DecodeInto(got[:], 0, span)
	if got[7] != v {
		t.Fatalf("patched bin = %v, want %v", got[7], v)
	}
}

// TestPruneLateWriteSnapshotRoundTrip: the prune + late-write state
// (non-zero head, re-encoded chunks) survives the snapshot bit-exactly.
func TestPruneLateWriteSnapshotRoundTrip(t *testing.T) {
	p := append(fillProgram(11, 96), opPruneChunks, 3*8+5, opLateSealed, wr(0, 1, 22), opLateSealed, wr(0, 1, 23), opSnapshot, 0)
	runProgram(t, progConfig{span: 8, shards: 4}, progOps(p...), nil)
}
