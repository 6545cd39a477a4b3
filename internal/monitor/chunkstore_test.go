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

// fillRandom appends a deterministic mix of values, gaps, repeats and
// out-of-order late writes for n bins of key k.
func fillRandom(s *Store, k topo.KPIKey, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0: // leave a gap
		case 1: // constant count
			s.Append(Measurement{k, t0.Add(time.Duration(i) * time.Minute), 500})
		default:
			s.Append(Measurement{k, t0.Add(time.Duration(i) * time.Minute), float64(rng.Intn(1000))})
		}
		if rng.Intn(20) == 0 && i > 10 {
			// Out-of-order: patch a bin far enough back to be sealed.
			j := rng.Intn(i)
			s.Append(Measurement{k, t0.Add(time.Duration(j) * time.Minute), float64(j)})
		}
	}
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

func TestRangeIntoMatchesSeries(t *testing.T) {
	for _, span := range []int{2, 7, 64} {
		s := chunkedStore(t, span)
		fillRandom(s, kCPU, 500, int64(span))
		full, ok := s.Series(kCPU)
		if !ok {
			t.Fatal("series missing")
		}
		rng := rand.New(rand.NewSource(99))
		dst := make([]float64, 0, full.Len())
		for trial := 0; trial < 200; trial++ {
			lo := rng.Intn(full.Len())
			hi := lo + 1 + rng.Intn(full.Len()-lo)
			from := t0.Add(time.Duration(lo) * time.Minute)
			to := t0.Add(time.Duration(hi) * time.Minute)
			vals, wstart, ok := s.RangeInto(kCPU, from, to, dst)
			if !ok {
				t.Fatalf("span %d: RangeInto [%d,%d) not ok", span, lo, hi)
			}
			if !wstart.Equal(from) {
				t.Fatalf("span %d: window start %v, want %v", span, wstart, from)
			}
			sameBits(t, vals, full.Values[lo:hi], "window")
			dst = vals[:0]
		}
	}
}

func TestRangeIntoMatchesRange(t *testing.T) {
	// The legacy Range API must agree with RangeInto bin for bin,
	// including the clamping conventions at the edges.
	s := chunkedStore(t, 8)
	fillRandom(s, kCPU, 100, 4)
	cases := []struct{ lo, hi int }{{0, 100}, {0, 5}, {95, 100}, {3, 97}, {50, 51}}
	for _, c := range cases {
		from := t0.Add(time.Duration(c.lo) * time.Minute)
		to := t0.Add(time.Duration(c.hi) * time.Minute)
		ser, ok := s.Range(kCPU, from, to)
		vals, _, ok2 := s.RangeInto(kCPU, from, to, nil)
		if !ok || !ok2 {
			t.Fatalf("[%d,%d): ok=%v ok2=%v", c.lo, c.hi, ok, ok2)
		}
		sameBits(t, vals, ser.Values, "range")
	}
	// Empty and unknown windows fail in both.
	if _, ok := s.Range(kCPU, t0.Add(500*time.Minute), t0.Add(600*time.Minute)); ok {
		t.Fatal("past-end Range should be !ok")
	}
	if _, _, ok := s.RangeInto(kCPU, t0.Add(500*time.Minute), t0.Add(600*time.Minute), nil); ok {
		t.Fatal("past-end RangeInto should be !ok")
	}
	if _, _, ok := s.RangeInto(kPV, t0, t0.Add(time.Minute), nil); ok {
		t.Fatal("unknown key should be !ok")
	}
}

func TestRangeIntoAfterPrune(t *testing.T) {
	for _, span := range []int{4, 16} {
		s := chunkedStore(t, span)
		fillRandom(s, kCPU, 300, 7)
		before, _ := s.Series(kCPU)
		// Prune mid-chunk: head skipping must keep logical alignment.
		drop := span*3 + span/2
		s.Prune(t0.Add(time.Duration(drop) * time.Minute))
		after, ok := s.Series(kCPU)
		if !ok {
			t.Fatal("series missing after prune")
		}
		sameBits(t, after.Values, before.Values[drop:], "pruned series")
		if !after.Start.Equal(t0.Add(time.Duration(drop) * time.Minute)) {
			t.Fatalf("pruned start = %v", after.Start)
		}
		vals, _, ok := s.RangeInto(kCPU, after.Start.Add(5*time.Minute), after.Start.Add(50*time.Minute), nil)
		if !ok {
			t.Fatal("windowed read after prune failed")
		}
		sameBits(t, vals, after.Values[5:50], "pruned window")
	}
}

func TestPruneDropsWholeChunks(t *testing.T) {
	s := chunkedStore(t, 10)
	for i := 0; i < 100; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	if st := s.Stats(); st.Chunks != 10 {
		t.Fatalf("chunks = %d, want 10", st.Chunks)
	}
	s.Prune(t0.Add(35 * time.Minute)) // 3 whole chunks + head 5
	st := s.Stats()
	if st.Chunks != 7 {
		t.Fatalf("chunks after prune = %d, want 7", st.Chunks)
	}
	if st.Bins != 65 {
		t.Fatalf("bins after prune = %d, want 65", st.Bins)
	}
	ser, _ := s.Series(kCPU)
	for i, v := range ser.Values {
		if v != float64(i+35) {
			t.Fatalf("bin %d = %v, want %v", i, v, float64(i+35))
		}
	}
	// Prune everything: the series must vanish.
	s.Prune(t0.Add(200 * time.Minute))
	if st := s.Stats(); st.SeriesCount != 0 || st.Chunks != 0 {
		t.Fatalf("stats after full prune = %+v", st)
	}
}

func TestLateWriteIntoSealedChunk(t *testing.T) {
	s := chunkedStore(t, 8)
	for i := 0; i < 40; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	// Bin 3 is sealed in the first chunk; overwrite it.
	s.Append(Measurement{kCPU, t0.Add(3 * time.Minute), 999})
	ser, _ := s.Series(kCPU)
	if ser.Values[3] != 999 {
		t.Fatalf("late write lost: bin 3 = %v", ser.Values[3])
	}
	for i, want := range []float64{0, 1, 2} {
		if ser.Values[i] != want {
			t.Fatalf("bin %d corrupted: %v", i, ser.Values[i])
		}
	}
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

func TestStatsCompression(t *testing.T) {
	s := chunkedStore(t, 100)
	for i := 0; i < 1050; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(2000 + i%10)})
	}
	st := s.Stats()
	if st.Chunks != 10 || st.TailBins != 50 || st.Bins != 1050 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CompressedBytes <= 0 || st.CompressedBytes >= 1000*8 {
		t.Fatalf("compressed bytes = %d, want in (0, %d)", st.CompressedBytes, 1000*8)
	}
	if want := st.CompressedBytes + 50*8; st.ApproxBytes != want {
		t.Fatalf("approx bytes = %d, want %d", st.ApproxBytes, want)
	}
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

func TestSnapshotChunkedRoundTrip(t *testing.T) {
	s := chunkedStore(t, 16)
	fillRandom(s, kCPU, 200, 21)
	fillRandom(s, kPV, 77, 22)
	s.Prune(t0.Add(20 * time.Minute)) // non-zero head survives the trip

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChunkSpan() != 16 {
		t.Fatalf("restored span = %d, want 16", got.ChunkSpan())
	}
	for _, k := range []topo.KPIKey{kCPU, kPV} {
		want, _ := s.Series(k)
		have, ok := got.Series(k)
		if !ok {
			t.Fatalf("series %v missing after restore", k)
		}
		if !have.Start.Equal(want.Start) {
			t.Fatalf("start = %v, want %v", have.Start, want.Start)
		}
		sameBits(t, have.Values, want.Values, k.Metric)
	}
	// A second snapshot of the restored store must be byte-identical:
	// chunks are stored verbatim and the encoder is deterministic.
	var buf2 bytes.Buffer
	if err := s.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := got.WriteSnapshot(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("restored store snapshots differently than the original")
	}
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
	flat := NewStore(t0, time.Minute)
	ck := chunkedStore(t, 8)
	for _, s := range []*Store{flat, ck} {
		fillRandom(s, kCPU, 120, 31)
		fillRandom(s, kPV, 90, 32)
	}
	since := t0.Add(37 * time.Minute)
	a := flat.ReplaySince(nil, since)
	b := ck.ReplaySince(nil, since)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Order ties are unspecified across keys; compare as multisets
		// per timestamp by sorting equal-time runs on the fly is
		// overkill — the deterministic fill gives unique (key, bin)
		// values, so a simple containment check suffices.
		found := false
		for j := range b {
			if a[i].Key == b[j].Key && a[i].T.Equal(b[j].T) && math.Float64bits(a[i].V) == math.Float64bits(b[j].V) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("measurement %+v missing from chunked replay", a[i])
		}
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
// head), late out-of-order writes must patch the correct bin even when
// the logical index and the encoded position disagree by head — in
// particular on the first and last bin of a sealed chunk, where an
// off-by-head lands in the neighboring chunk.
func TestPruneThenLateWriteAcrossSealBoundaries(t *testing.T) {
	const span = 8
	s := chunkedStore(t, span)
	const n = 10 * span
	for i := 0; i < n; i++ {
		s.Append(Measurement{kCPU, t0.Add(time.Duration(i) * time.Minute), float64(i)})
	}
	drop := 2*span + 3 // two whole chunks plus head 3
	s.Prune(t0.Add(time.Duration(drop) * time.Minute))

	// Patch bins whose encoded positions straddle every interesting
	// boundary: first and last bin of a sealed chunk, both sides of a
	// chunk seam, and the sealed/tail frontier.
	patched := map[int]float64{}
	patch := func(bin int) {
		v := float64(bin) + 0.5
		s.Append(Measurement{kCPU, t0.Add(time.Duration(bin) * time.Minute), v})
		patched[bin] = v
	}
	patch(drop)         // oldest surviving bin (encoded pos = head)
	patch(4*span - 1)   // last bin of a sealed chunk
	patch(4 * span)     // first bin of the next chunk
	patch(n - span - 1) // just below the sealed/tail frontier
	patch(n - 1)        // inside the mutable tail

	ser, ok := s.Series(kCPU)
	if !ok {
		t.Fatal("series missing")
	}
	if ser.Len() != n-drop {
		t.Fatalf("len = %d, want %d", ser.Len(), n-drop)
	}
	for i, v := range ser.Values {
		bin := i + drop
		want := float64(bin)
		if pv, hit := patched[bin]; hit {
			want = pv
		}
		if v != want {
			t.Fatalf("bin %d = %v, want %v", bin, v, want)
		}
	}

	// A second prune after the late writes must stay aligned too.
	drop2 := 5*span + 1
	s.Prune(t0.Add(time.Duration(drop2) * time.Minute))
	ser, _ = s.Series(kCPU)
	for i, v := range ser.Values {
		bin := i + drop2
		want := float64(bin)
		if pv, hit := patched[bin]; hit {
			want = pv
		}
		if v != want {
			t.Fatalf("after second prune: bin %d = %v, want %v", bin, v, want)
		}
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

// TestPruneLateWriteSnapshotRoundTrip proves the prune + late-write
// state (non-zero head, re-encoded chunks) survives the snapshot
// format bit-exactly.
func TestPruneLateWriteSnapshotRoundTrip(t *testing.T) {
	const span = 8
	s := chunkedStore(t, span)
	fillRandom(s, kCPU, 12*span, 11)
	s.Prune(t0.Add(time.Duration(3*span+5) * time.Minute))
	// Late writes after the prune, across a seam.
	s.Append(Measurement{kCPU, t0.Add(time.Duration(6*span-1) * time.Minute), 1e6})
	s.Append(Measurement{kCPU, t0.Add(time.Duration(6*span) * time.Minute), 2e6})

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.Series(kCPU)
	got, ok := r.Series(kCPU)
	if !ok {
		t.Fatal("series missing after round trip")
	}
	if !got.Start.Equal(want.Start) {
		t.Fatalf("start %v, want %v", got.Start, want.Start)
	}
	sameBits(t, got.Values, want.Values, "prune+late-write round trip")
}
