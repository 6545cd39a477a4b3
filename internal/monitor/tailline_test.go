package monitor

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chunk"
	"repro/internal/topo"
)

// The unsealed region of a series is tail ++ pend[:npend]. FuzzTailWrites
// drives it, and the rest of the store, through op programs checked
// against the store reference model (model_test.go); the tests below
// pin its mechanism.

// tailSeedPrograms are FuzzTailWrites' seeds, each run at every span of
// progSpans. The first is TestPruneThenLateWriteAcrossSealBoundaries'
// sequence; the second snapshots the line at every fill; the rest mix
// late writes, gaps and prunes into each region with frames over three
// connections, the feed, compactions, reopens and damaged records.
func tailSeedPrograms() [][]byte {
	const span, d = 8, 2*8 + 3
	var fills []int
	for fill := 1; fill <= 2*pendBins; fill++ {
		fills = append(fills, opAppend, 0, opSnapshot, 0)
	}
	return [][]byte{
		progOps(opAppend, 63, opAppend, 15, opPruneChunks, d, opLateSealed, 0, opLateSealed, 4*span-1-d,
			opLateSealed, 4*span-d, opLateSealed, 80-span-1-d, opLateSealed, 80-1-d, opPruneChunks, 5*span+1-d),
		progOps(fills...),
		progOps(opFeed, 0, opRefilter, wr(0, 0, 0), opRefilter, wr(4, 0, 1), opAppend, wr(0, 2, 2), opLateLine, wr(0, 3, 1),
			opSnapshot, 0, opLateTail, wr(0, 4, 2), opAppend, wr(4, 2, 4), opDrain, 0, opLateLine, wr(0, 1, 0), opPruneLine, 2,
			opAppend, wr(0, 2, 20), opBin, wr(0, 3, 1), opPruneTail, 1, opRefilter, wr(1, 0, 0), opBin, wr(0, 4, 6), opPruneChunks, 3,
			opDrain, 0, opFeed, 0, opCompact, 0),
		progOps(opGap, wr(5, 1, 2), opSnapshot, 0, opGap, wr(5, 2, 5), opGap, 6, opLateLine, wr(5, 3, 1), opGap, wr(5, 4, 7),
			opGap, 40, opLateSealed, wr(5, 2, 9), opReconnect, 0, opBin, wr(0, 2, 2), opGap, 191, opSnapshot, 1,
			opReopen, ro(1, 0, 0), opBin, wr(0, 3, 0), opDamage, 9<<8|40<<2, opBin, wr(0, 1, 4), opCompact, 0, opDamage, 10<<8, opBin, 0),
		progOps(opAppend, 69, opPruneLine, 1, opAppend, 0, opSnapshot, 0, opPruneTail, 0, opPruneTail, 2, opAppend, 63,
			opLateTail, 3, opPruneLine, 0, opBin, wr(0, 2, 0), opCompact, 0, opBin, wr(0, 3, 2), opPruneChunks, wr(0, 0, 5),
			opBin, wr(0, 2, 0), opCompact, 0, opReopen, ro(2, 3, 0), opAppend, wr(2, 2, 9), opDamage, 1<<8|1,
			opBin, wr(0, 4, 1), opReopen, ro(0, 0, 13), opBin, 0, opBin, wr(0, 2, 0), opBin, 0, opDamage, 0, opBin, wr(0, 1, 0),
			opDamage, 2<<8|63<<2, opBin, 0, opDamage, 3<<8|32<<2, opBin, wr(0, 1, 0), opDamage, 4<<8|63<<2, opBin, 0,
			opDamage, 5<<8|20<<2, opBin, wr(0, 1, 0), opDamage, 7<<8|50<<2, opBin, 0),
	}
}

// FuzzTailWrites runs store programs — see the ops in model_test.go —
// at spans the line divides, straddles and exceeds, against the store
// reference model. Its corpus under testdata/fuzz/FuzzTailWrites holds
// one program per hand-built recovery and ingest scenario.
func FuzzTailWrites(f *testing.F) {
	for _, p := range tailSeedPrograms() {
		for si := range progSpans {
			f.Add(uint8(si), p)
		}
	}
	f.Fuzz(func(t *testing.T, spanSel uint8, prog []byte) {
		runProgram(t, progConfig{span: progSpans[int(spanSel)%len(progSpans)], shards: 4}, fuzzProgram(prog), nil)
	})
}

// maxFuzzOps bounds the ops of one fuzzed program, so that every input
// runs in bounded time.
const maxFuzzOps = 128

// fuzzProgram is what FuzzTailWrites runs of prog: its first maxFuzzOps
// ops.
func fuzzProgram(prog []byte) []byte { return prog[:min(len(prog), 3*maxFuzzOps)] }

// TestTailSeedsReachEveryRegion keeps the seeds honest: between them,
// FuzzTailWrites' seeds and its committed corpus reach every op, every
// region and every kind of damage, and snapshot the line at every fill.
func TestTailSeedsReachEveryRegion(t *testing.T) {
	cov := make(map[string]int)
	for i, p := range tailSeedPrograms() {
		if len(p) > 3*maxFuzzOps {
			t.Fatalf("seed %d has %d ops; FuzzTailWrites runs the first %d", i, len(p)/3, maxFuzzOps)
		}
		for _, span := range progSpans {
			runProgram(t, progConfig{span: span, shards: 4}, p, cov)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzTailWrites", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus (%v)", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		lines := strings.Split(string(raw), "\n")
		if err != nil || len(lines) < 3 {
			t.Fatalf("%s: %d lines (%v)", name, len(lines), err)
		}
		sel, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
		prog, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", name, err1, err2)
		}
		runProgram(t, progConfig{span: progSpans[int(sel[0])%len(progSpans)], shards: 4}, fuzzProgram([]byte(prog)), cov)
	}
	want := []string{"late line", "late tail", "late sealed", "gap past the line", "before the epoch", "prune into the chunks", "prune into the tail",
		"prune into the line", "prune drops a series", "re-created in one generation", "compaction", "reopen", "reshard or respan",
		"nothing lost", "epoch from a log header", "crash in a write op", "crash in a compaction op", "crash in an open",
		"feed attached", "refilter", "refilter left stale", "drain", "reconnect", "handles across a prune"}
	for i := 0; i < pendBins; i++ {
		want = append(want, fmt.Sprintf("snapshot with %d bins in the line", i))
	}
	for i := 0; i <= 10; i++ {
		want = append(want, fmt.Sprintf("damage %d", i))
	}
	for i := 0; i < 5; i++ {
		want = append(want, fmt.Sprintf("path %d", i))
	}
	for _, w := range want {
		if cov[w] == 0 {
			t.Errorf("no seed reaches %q", w)
		}
	}
	t.Logf("coverage: %v", cov)
}

// TestSteadyBinLeavesTailUntouched pins the mechanism as counts. A
// time-major feed changes a series' tail (backing array or length) on
// span/8 bins per span, not on every bin; chunks seal on the bins they
// seal on when every write is settled into the tail at once; a steady
// bin allocates nothing; and the entry stays in its allocation size
// class.
func TestSteadyBinLeavesTailUntouched(t *testing.T) {
	if size := unsafe.Sizeof(seriesEntry{}); size > 144 {
		t.Fatalf("seriesEntry is %d bytes, want at most 144, its allocation size class", size)
	}
	const span, series = chunk.DefaultSpan, 4000
	s := NewStore(t0, time.Minute)
	keys := fleetKeys(series)
	// The model seals a chunk the moment its bins are written.
	m := newStoreModel(t0, span)

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
		m.apply(batch[:8])
		refChunks := len(m.series[keys[0]].enc)
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
				t.Fatalf("bin %d: series %d has %d chunks, the model %d", bin, i, len(e.chunks), refChunks)
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
	for k, ms := range m.series {
		got, _ := s.Series(k)
		sameBits(t, got.Values, ms.bins(), k.String())
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
	s, _ := openTestStore(t, 4, 64)
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
