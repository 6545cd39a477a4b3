package monitor

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chunk"
	"repro/internal/topo"
)

// The unsealed region of a series is tail ++ pend[:npend]. The tests
// here drive it from outside and check it against a flat model.

// Ops of a tail program: three bytes each, an opcode and a 16-bit
// argument that the op reduces onto the region it aims at.
const (
	opAppend      = iota // arg%64+1 bins at the series' end
	opLateLine           // rewrite a bin of the line
	opLateTail           // rewrite a bin of the tail
	opLateSealed         // rewrite a bin of a sealed chunk
	opGap                // write arg%(3·span)+1 bins past the end
	opPruneChunks        // prune to a bin of the sealed region
	opPruneTail          // prune to a bin of the tail
	opPruneLine          // prune to a bin of the line
	opSnapshot           // snapshot and restore; an odd arg goes on with the restored store
	numTailOps
)

var tailSpans = [...]int{2, 5, 8, 12, 64}

// tailProg assembles a program from (op, arg) pairs.
func tailProg(pairs ...int) []byte {
	var p []byte
	for i := 0; i+1 < len(pairs); i += 2 {
		p = append(p, byte(pairs[i]), byte(pairs[i+1]>>8), byte(pairs[i+1]))
	}
	return p
}

// tailCoverage counts what a run reached.
type tailCoverage struct {
	lateLine, lateTail, lateSealed, gapPastLine int
	pruneChunks, pruneTail, pruneLine           int
	snapLine                                    uint8 // bit n: a snapshot was taken with n bins in the line
}

// tailModel is one series as a flat slice: phys holds the bins of the
// sealed chunks' pruned head and then the logical bins.
type tailModel struct {
	phys []float64
	head int
}

func (m *tailModel) bins() []float64 { return m.phys[m.head:] }

func (m *tailModel) set(bin int, v float64) {
	for len(m.bins()) <= bin {
		m.phys = append(m.phys, math.NaN())
	}
	m.bins()[bin] = v
}

// prune drops the first drop logical bins, as the store does: whole
// chunks go, a cut chunk keeps its bins behind head, and a cut at or
// past the sealed region leaves none.
func (m *tailModel) prune(drop, span int) {
	p := m.head + drop
	if sealedEnd := len(m.phys) / span * span; p < sealedEnd {
		m.phys = m.phys[p/span*span:]
		m.head = p % span
		return
	}
	m.phys = m.phys[p:]
	m.head = 0
}

// runTailProgram runs prog on one series of a store of the given span,
// checking the store against the model after every op.
func runTailProgram(t *testing.T, span int, prog []byte, cov *tailCoverage) {
	t.Helper()
	s := NewStore(t0, time.Minute)
	s.SetChunkSpan(span)
	key := kCPU
	var m tailModel
	rng := rand.New(rand.NewSource(int64(len(prog))*31 + int64(span)))
	next := 0.0
	write := func(bin int) {
		next++
		v := next
		if int(next)%7 == 0 {
			v += 0.25
		}
		s.Append(Measurement{key, s.Start().Add(time.Duration(bin) * time.Minute), v})
		m.set(bin, v)
	}
	// shape reads the entry's regions: sealed, tail and line lengths.
	shape := func(s *Store) (sealed, nt, np int) {
		sh := s.shardFor(key)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		if e := sh.series[key]; e != nil {
			return e.sealedLen(span), len(e.tail), int(e.npend)
		}
		return 0, 0, 0
	}

	// check compares a store with the model: length, windows between the
	// region boundaries, their neighbours and anywhere, and the counts.
	check := func(s *Store, step, op int) {
		t.Helper()
		want := m.bins()
		n := len(want)
		if got, _ := s.SeriesLen(key); got != n {
			t.Fatalf("op %d (%d): SeriesLen = %d, model %d", step, op, got, n)
		}
		if n == 0 {
			return
		}
		sealed, nt, _ := shape(s)
		edge := func() int {
			at := [...]int{0, sealed, sealed + nt, n, rng.Intn(n + 1)}[rng.Intn(5)] + rng.Intn(3) - 1
			return max(0, min(at, n))
		}
		for w := 0; w < 8; w++ {
			lo, hi := edge(), edge()
			if w == 0 {
				lo, hi = 0, n
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo == hi {
				continue
			}
			from := s.Start().Add(time.Duration(lo) * time.Minute)
			got, wstart, ok := s.RangeInto(key, from, from.Add(time.Duration(hi-lo)*time.Minute), nil)
			if !ok || !wstart.Equal(from) {
				t.Fatalf("op %d (%d): RangeInto [%d,%d) of %d: ok %v, start %v", step, op, lo, hi, n, ok, wstart)
			}
			sameBits(t, got, want[lo:hi], "window")
		}
		st, chunks := s.Stats(), len(m.phys)/span
		approx := int64(len(m.phys)%span) * 8
		for ci := 0; ci < chunks; ci++ {
			approx += int64(chunk.Encode(m.phys[ci*span : (ci+1)*span]).EncodedBytes())
		}
		if st.Bins != n || st.Chunks != chunks || st.TailBins != len(m.phys)%span || st.ApproxBytes != approx {
			t.Fatalf("op %d (%d): stats %+v, model %d bins, %d chunks, %d tail bins, %d bytes", step, op, st, n, chunks, len(m.phys)%span, approx)
		}
	}

	for pc := 0; pc+3 <= len(prog) && pc < 3*128; pc += 3 {
		op, arg := int(prog[pc])%numTailOps, int(prog[pc+1])<<8|int(prog[pc+2])
		sealed, nt, np := shape(s)
		n := sealed + nt + np
		switch op {
		case opAppend:
			for i := arg%64 + 1; i > 0; i-- {
				write(len(m.bins()))
			}
		case opLateLine:
			if np > 0 {
				write(sealed + nt + arg%np)
				cov.lateLine++
			}
		case opLateTail:
			if nt > 0 {
				write(sealed + arg%nt)
				cov.lateTail++
			}
		case opLateSealed:
			if sealed > 0 {
				write(arg % sealed)
				cov.lateSealed++
			}
		case opGap:
			gap := arg%(3*span) + 1
			write(n + gap)
			if np+gap >= pendBins {
				cov.gapPastLine++
			}
		case opPruneChunks, opPruneTail, opPruneLine:
			drop := 0
			switch {
			case op == opPruneChunks && sealed > 0:
				drop = arg % sealed
				cov.pruneChunks++
			case op == opPruneTail && nt > 0:
				drop = sealed + arg%nt
				cov.pruneTail++
			case op == opPruneLine && np > 0:
				drop = sealed + nt + arg%np
				cov.pruneLine++
			}
			if drop > 0 {
				s.Prune(s.Start().Add(time.Duration(drop) * time.Minute))
				m.prune(drop, span)
			}
		case opSnapshot:
			snap := snapshotBytes(t, s)
			r, err := ReadSnapshot(bytes.NewReader(snap))
			if err != nil {
				t.Fatalf("op %d: restore: %v", pc/3, err)
			}
			if again := snapshotBytes(t, r); !bytes.Equal(snap, again) {
				t.Fatalf("op %d: snapshot with %d bins in the line is %d bytes, its restore's %d and they differ", pc/3, np, len(snap), len(again))
			}
			check(r, pc/3, op)
			if arg%2 == 1 {
				s = r
			}
			cov.snapLine |= 1 << np
		}

		check(s, pc/3, op)
	}
}

// tailSeedPrograms are FuzzTailWrites' seeds. The first is
// TestPruneThenLateWriteAcrossSealBoundaries' sequence at span 8; the
// rest walk the line: every fill level snapshotted, late writes and
// prunes into each region, gaps that stay inside the line and gaps that
// leave it.
func tailSeedPrograms() [][]byte {
	const span = 8
	seeds := [][]byte{
		tailProg(opAppend, 63, opAppend, 15, opPruneChunks, 2*span+3,
			opLateSealed, 0, opLateSealed, 4*span-1-(2*span+3), opLateSealed, 4*span-(2*span+3),
			opLateSealed, 80-span-1-(2*span+3), opLateSealed, 80-1-(2*span+3), opPruneChunks, 5*span+1-(2*span+3)),
		tailProg(opAppend, 2, opLateLine, 1, opSnapshot, 1, opLateTail, 2, opAppend, 4, opLateLine, 0, opPruneLine, 2, opAppend, 20, opPruneTail, 1, opPruneChunks, 3),
		tailProg(opGap, 2, opSnapshot, 0, opGap, 5, opGap, 6, opLateLine, 1, opGap, 7, opGap, 40, opLateSealed, 9, opGap, 191, opSnapshot, 1),
		tailProg(opAppend, 69, opPruneLine, 1, opAppend, 0, opSnapshot, 0, opPruneTail, 0, opPruneTail, 2, opAppend, 63, opLateTail, 3, opPruneLine, 0),
	}
	var fills []int
	for fill := 1; fill <= 2*pendBins; fill++ {
		fills = append(fills, opAppend, 0, opSnapshot, 0)
	}
	return append(seeds, tailProg(fills...))
}

// FuzzTailWrites runs op programs over the unsealed region — appends,
// late writes into the line, the tail and the sealed chunks, gaps,
// prunes into each region, snapshot round trips — at spans the line
// divides, straddles and exceeds, against a flat model.
func FuzzTailWrites(f *testing.F) {
	for _, p := range tailSeedPrograms() {
		for si := range tailSpans {
			f.Add(uint8(si), p)
		}
	}
	f.Fuzz(func(t *testing.T, spanSel uint8, prog []byte) {
		runTailProgram(t, tailSpans[int(spanSel)%len(tailSpans)], prog, new(tailCoverage))
	})
}

// TestTailSeedsReachEveryRegion keeps the seeds honest: between them
// they reach every op's region, and snapshot the line at every fill.
func TestTailSeedsReachEveryRegion(t *testing.T) {
	var cov tailCoverage
	for _, p := range tailSeedPrograms() {
		for _, span := range tailSpans {
			runTailProgram(t, span, p, &cov)
		}
	}
	if cov.lateLine == 0 || cov.lateTail == 0 || cov.lateSealed == 0 || cov.gapPastLine == 0 ||
		cov.pruneChunks == 0 || cov.pruneTail == 0 || cov.pruneLine == 0 || cov.snapLine != 0xff {
		t.Fatalf("seed programs miss a region: %+v", cov)
	}
}

// TestSteadyBinLeavesTailUntouched pins the mechanism as counts. A
// time-major feed changes a series' tail (backing array or length) on
// span/8 bins per span, not on every bin; chunks seal on the bins they
// seal on when every write is settled into the tail at once; a steady
// bin allocates nothing; and the entry stays in its allocation size
// class.
func TestSteadyBinLeavesTailUntouched(t *testing.T) {
	if size := unsafe.Sizeof(seriesEntry{}); size > 160 {
		t.Fatalf("seriesEntry is %d bytes, want at most 160", size)
	}
	const span, series = chunk.DefaultSpan, 4000
	s := NewStore(t0, time.Minute)
	keys := fleetKeys(series)
	// The reference settles its line after every append.
	ref := NewStore(t0, time.Minute)
	refKeys := keys[:8]

	batch := make([]Measurement, series)
	entries := make([]*seriesEntry, series)
	type tailID struct {
		p *float64
		n int
	}
	ids := make([]tailID, series)
	moves := make([]int, series)
	for bin := 0; bin < 2*span; bin++ {
		at := t0.Add(time.Duration(bin) * time.Minute)
		for i, k := range keys {
			batch[i] = Measurement{k, at, float64(bin + i)}
		}
		s.AppendBatch(batch)
		for i, k := range refKeys {
			ref.Append(Measurement{k, at, float64(bin + i)})
			e := ref.shardFor(k).series[k]
			e.tail = append(e.tail, e.pend[:e.npend]...)
			e.npend = 0
		}
		refChunks := len(ref.shardFor(refKeys[0]).series[refKeys[0]].chunks)
		for i, k := range keys {
			if bin == 0 {
				entries[i] = s.shardFor(k).series[k]
			}
			e := entries[i]
			if id := (tailID{unsafe.SliceData(e.tail), len(e.tail)}); id != ids[i] {
				ids[i] = id
				moves[i]++
			}
			if len(e.chunks) != refChunks {
				t.Fatalf("bin %d: series %d has %d chunks, the settled reference %d", bin, i, len(e.chunks), refChunks)
			}
		}
		if (bin+1)%span == 0 {
			for i, n := range moves {
				if n != span/pendBins {
					t.Fatalf("span ending at bin %d: series %d's tail changed on %d bins, want %d", bin, i, n, span/pendBins)
				}
			}
			clear(moves)
		}
	}
	for _, k := range refKeys {
		got, _ := s.Series(k)
		want, _ := ref.Series(k)
		sameBits(t, got.Values, want.Values, k.String())
	}

	bin := 2 * span
	if allocs := testing.AllocsPerRun(100, func() {
		for i, e := range entries {
			s.setBinLocked(e, bin, float64(bin+i))
		}
		bin++
	}); allocs != 0 {
		t.Fatalf("a steady bin of %d series allocates %v times, want 0", series, allocs)
	}
}

// TestTailLineReadersStorm: one publisher appends time-major while
// readers take the last bins of a series, replay one, and Stats and
// Compact walk the store. A key's bins are written in order, so every
// read must be a prefix of the model with no hole in it.
func TestTailLineReadersStorm(t *testing.T) {
	s, _ := openTwinStore(t, twinShards, 64)
	keys := fleetKeys(24)
	value := func(ki, bin int) float64 { return float64(bin*100 + ki) }
	bins := 600
	if testing.Short() {
		bins = 200
	}

	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	reader := func(seed int64, read func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() && !t.Failed() {
				read(rng)
				reads.Add(1)
			}
		}()
	}
	for r := 0; r < 3; r++ {
		var dst []float64
		reader(int64(r), func(rng *rand.Rand) {
			ki := rng.Intn(len(keys))
			n, ok := s.SeriesLen(keys[ki])
			if !ok {
				return
			}
			lo := max(0, n-16)
			from := t0.Add(time.Duration(lo) * time.Minute)
			vals, _, ok := s.RangeInto(keys[ki], from, from.Add(time.Hour), dst)
			if !ok || len(vals) < n-lo {
				t.Errorf("key %d: window from bin %d of a series of %d came back with %d bins, ok %v", ki, lo, n, len(vals), ok)
				return
			}
			for i, v := range vals {
				if v != value(ki, lo+i) {
					t.Errorf("key %d: bin %d read %v, want %v", ki, lo+i, v, value(ki, lo+i))
					return
				}
			}
			dst = vals[:0]
		})
	}
	reader(7, func(rng *rand.Rand) {
		ki := rng.Intn(len(keys))
		n, _ := s.SeriesLen(keys[ki])
		lo := max(0, n-20)
		ms := s.ReplaySince(func(k topo.KPIKey) bool { return k == keys[ki] }, t0.Add(time.Duration(lo)*time.Minute))
		if len(ms) < n-lo {
			t.Errorf("key %d: replay since bin %d of a series of %d returned %d", ki, lo, n, len(ms))
			return
		}
		for i, m := range ms {
			if !m.T.Equal(t0.Add(time.Duration(lo+i)*time.Minute)) || m.V != value(ki, lo+i) {
				t.Errorf("key %d: replay entry %d = %v at %v, want bin %d", ki, i, m.V, m.T, lo+i)
				return
			}
		}
	})
	reader(8, func(*rand.Rand) {
		if st := s.Stats(); st.Bins != st.Chunks*64+st.TailBins {
			t.Errorf("stats: %d bins in %d chunks and %d tail bins", st.Bins, st.Chunks, st.TailBins)
		}
		if err := s.Compact(); err != nil {
			t.Errorf("compact: %v", err)
		}
	})

	batch := make([]Measurement, len(keys))
	for bin := 0; bin < bins; bin++ {
		for ki, k := range keys {
			batch[ki] = Measurement{k, t0.Add(time.Duration(bin) * time.Minute), value(ki, bin)}
		}
		s.AppendBatch(batch)
		// A few reads land between any two bins.
		for seen := reads.Load(); reads.Load() < seen+4 && !t.Failed(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	for ki, k := range keys {
		ser, _ := s.Series(k)
		if ser.Len() != bins {
			t.Fatalf("key %d: %d bins stored, want %d", ki, ser.Len(), bins)
		}
		for bin, v := range ser.Values {
			if v != value(ki, bin) {
				t.Fatalf("key %d: bin %d = %v, want %v", ki, bin, v, value(ki, bin))
			}
		}
	}
}
