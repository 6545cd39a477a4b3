package chunk

import (
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// roundTrip encodes vals and asserts a bit-exact full decode.
func roundTrip(t *testing.T, name string, vals []float64) *Chunk {
	t.Helper()
	c := Encode(vals)
	if c.Count() != len(vals) {
		t.Fatalf("%s: count = %d, want %d", name, c.Count(), len(vals))
	}
	got := make([]float64, len(vals))
	c.DecodeInto(got, 0, len(vals))
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("%s: value %d = %x, want %x", name,
				i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
	return c
}

func TestRoundTripPatterns(t *testing.T) {
	nan := math.NaN()
	cases := map[string][]float64{
		"empty":       {},
		"single":      {3.25},
		"single-nan":  {nan},
		"constant":    {7, 7, 7, 7, 7, 7, 7, 7},
		"counter":     {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		"nan-run":     {1, nan, nan, nan, nan, nan, 2},
		"all-nan":     {nan, nan, nan, nan},
		"infs":        {math.Inf(1), math.Inf(-1), math.Inf(1), 0},
		"signed-zero": {0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		"denormals":   {5e-324, 1e-310, -5e-324, 2.2250738585072014e-308},
		"sign-flips":  {1.5, -1.5, 1.5, -1.5, 1.5},
		"extremes":    {math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		"mixed": {
			100.25, 100.5, nan, nan, 101, math.Inf(1), -0.0, 5e-324,
			100.25, 100.25, 100.25, nan, 99,
		},
	}
	for name, vals := range cases {
		roundTrip(t, name, vals)
	}
}

func TestRoundTripLongRuns(t *testing.T) {
	// Runs long enough to need run records — including one past the
	// 16-bit record cap, which must split across records.
	for _, n := range []int{runMinLen, runMinLen + 1, 1000, maxRun + 40} {
		vals := make([]float64, n+2)
		vals[0] = 42
		for i := 1; i <= n; i++ {
			vals[i] = math.NaN()
		}
		vals[n+1] = 43
		c := roundTrip(t, "run", vals)
		if got := c.EncodedBytes(); got > 64 {
			t.Fatalf("run of %d NaNs encoded to %d bytes, want <= 64", n, got)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(600)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				if i > 0 {
					vals[i] = vals[i-1]
				}
			case 2:
				vals[i] = float64(rng.Intn(1000)) // integer counts
			default:
				vals[i] = rng.NormFloat64() * 1e3
			}
		}
		roundTrip(t, "random", vals)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64() * 100)
	}
	a, b := Encode(vals), Encode(vals)
	if string(a.Data()) != string(b.Data()) {
		t.Fatal("same input encoded to different bytes")
	}
}

func TestWindowedDecodeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 512)
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = math.NaN()
		} else {
			vals[i] = float64(100 + rng.Intn(50))
		}
	}
	c := Encode(vals)
	full := make([]float64, len(vals))
	c.DecodeInto(full, 0, len(vals))
	dst := make([]float64, len(vals))
	for trial := 0; trial < 100; trial++ {
		lo := rng.Intn(len(vals))
		hi := lo + rng.Intn(len(vals)-lo)
		c.DecodeInto(dst, lo, hi)
		for i := lo; i < hi; i++ {
			if math.Float64bits(dst[i-lo]) != math.Float64bits(full[i]) {
				t.Fatalf("window [%d,%d): value %d differs", lo, hi, i)
			}
		}
	}
}

func TestCompressionOnIntegerCounts(t *testing.T) {
	// Integer-valued counts (page views, transactions) are the store's
	// bread and butter; they must compress well below 8 bytes/value.
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(10000 + rng.Intn(200))
	}
	c := Encode(vals)
	if ratio := float64(len(vals)*8) / float64(c.EncodedBytes()); ratio < 2 {
		t.Fatalf("integer counts compressed only %.2fx (%d bytes for %d values)",
			ratio, c.EncodedBytes(), len(vals))
	}
}

func TestFromEncodedValidates(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	c := Encode(vals)
	re, err := FromEncoded(c.Data(), len(vals))
	if err != nil {
		t.Fatalf("FromEncoded(valid) = %v", err)
	}
	if failed, err := re.Check(); failed || err != nil || re.Quarantined() {
		t.Fatal("a valid stream failed its walk")
	}
	got := make([]float64, len(vals))
	re.DecodeInto(got, 0, len(vals))
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("value %d = %v, want %v", i, got[i], v)
		}
	}
	// Truncation, garbage and a count overrunning the stream are wrapped,
	// fail their walk at the first Check — once — and then decode to NaN
	// instead of panicking; a negative count is refused outright.
	for _, bad := range []struct {
		data  []byte
		count int
	}{{c.Data()[:4], len(vals)}, {[]byte{0xff, 0xff}, 3}, {c.Data(), len(vals) + 100}} {
		ck, err := FromEncoded(bad.data, bad.count)
		if err != nil {
			t.Fatalf("FromEncoded(%x, %d) = %v, want the walk deferred", bad.data, bad.count, err)
		}
		if ck.Quarantined() {
			t.Fatal("quarantined before its walk")
		}
		if !checkFails(ck) || checkFails(ck) || !ck.Quarantined() {
			t.Fatalf("stream %x of %d values: want one failed walk, then a tombstone", bad.data, bad.count)
		}
		dst := make([]float64, bad.count)
		ck.DecodeInto(dst, 0, bad.count)
		for i, v := range dst {
			if !math.IsNaN(v) {
				t.Fatalf("bin %d of a failed chunk decodes to %v", i, v)
			}
		}
	}
	if _, err := FromEncoded(c.Data(), -1); err == nil {
		t.Fatal("negative count accepted")
	}
}

// TestCheckOnceUnderConcurrentReaders: readers racing to the first
// decode of a chunk whose stream fails its walk see NaN, and exactly one
// of their Checks reports the failure.
func TestCheckOnceUnderConcurrentReaders(t *testing.T) {
	data := Encode([]float64{1, 2, 3, 4, 5, 6, 7, 8}).Data()
	for round := 0; round < 50; round++ {
		ck, _ := FromEncoded(data[:9], 8)
		var failed atomic.Int32
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if checkFails(ck) {
					failed.Add(1)
				}
				dst := make([]float64, 8)
				ck.DecodeInto(dst, 0, 8)
				if !math.IsNaN(dst[3]) {
					t.Errorf("a failed chunk decoded %v", dst[3])
				}
			}()
		}
		wg.Wait()
		if n := failed.Load(); n != 1 {
			t.Fatalf("round %d: %d Checks reported the failure, want 1", round, n)
		}
	}
}

// checkFails runs ck's Check and reports whether this call quarantined
// it; a read error fails the test.
func checkFails(ck *Chunk) bool {
	failed, err := ck.Check()
	if err != nil {
		panic(err)
	}
	return failed
}

// countingReaderAt serves b at an offset and counts the reads; fail
// makes every read fail.
type countingReaderAt struct {
	b     []byte
	reads atomic.Int32
	fail  atomic.Bool
}

var errRead = errors.New("read failed")

func (r *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.reads.Add(1)
	if r.fail.Load() {
		return 0, errRead
	}
	n := copy(p, r.b[min(off, int64(len(r.b))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// TestUnreadReadAtFirstCheck: a chunk Unread built reads nothing until
// its first Check, which reads its bytes once however many readers race
// to it, and decodes them; Encoded copies its bytes without reading it
// into memory. Bytes that fail their CRC, or that the source ends
// before, make it a tombstone that decodes to NaN, reported once — by
// the first Check or the first Encoded — with no bytes to copy.
func TestUnreadReadAtFirstCheck(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	enc := Encode(vals)
	file := append([]byte("head"), enc.Data()...)
	src := &countingReaderAt{b: file}
	ck := Unread(&Source{R: src, Off: 4}, enc.EncodedBytes(), enc.CRC(), len(vals))
	if src.reads.Load() != 0 || ck.Data() != nil || ck.EncodedBytes() != enc.EncodedBytes() || ck.Quarantined() {
		t.Fatal("an unread chunk read its bytes, or reports none")
	}
	if data, failed, err := ck.Encoded(nil); failed || err != nil || string(data) != string(enc.Data()) || ck.Data() != nil {
		t.Fatalf("Encoded copied %x (failed %v, %v), want %x and the chunk left unread", data, failed, err, enc.Data())
	}
	src.reads.Store(0)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 8)
			ck.DecodeInto(dst, 0, 8)
			for i, v := range dst {
				if v != vals[i] {
					t.Errorf("bin %d = %v, want %v", i, v, vals[i])
				}
			}
		}()
	}
	wg.Wait()
	if n := src.reads.Load(); n != 1 {
		t.Fatalf("%d reads under 8 readers, want 1", n)
	}

	rotten := append([]byte(nil), file...)
	rotten[6] ^= 0x10
	for _, src := range []*countingReaderAt{{b: rotten}, {b: file[:len(file)-1]}} {
		for _, viaEncoded := range []bool{false, true} {
			ck := Unread(&Source{R: src, Off: 4}, enc.EncodedBytes(), enc.CRC(), len(vals))
			var first bool
			if viaEncoded {
				var data []byte
				var err error
				data, first, err = ck.Encoded(nil)
				if data != nil || err != nil {
					t.Fatalf("Encoded returned bytes that failed, or %v", err)
				}
			} else {
				first = checkFails(ck)
			}
			if !first || checkFails(ck) || !ck.Quarantined() {
				t.Fatalf("%d bytes, via Encoded %v: reported %v, then %v, quarantined %v", len(src.b), viaEncoded, first, checkFails(ck), ck.Quarantined())
			}
			if data, failed, err := ck.Encoded(nil); data != nil || failed || err != nil {
				t.Fatal("a tombstone copied bytes, or reported its failure twice")
			}
			dst := make([]float64, 8)
			ck.DecodeInto(dst, 0, 8)
			if !math.IsNaN(dst[0]) {
				t.Fatalf("a failed chunk decoded %v", dst[0])
			}
		}
	}
}

// TestUnreadReadErrorLeavesItUnread: a read that fails is no loss. The
// Check, Encoded and DecodeInto that meet it report the error or decode
// NaN, the chunk stays unread and unquarantined, and once reads pass
// again it decodes as written and copies whole.
func TestUnreadReadErrorLeavesItUnread(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	enc := Encode(vals)
	src := &countingReaderAt{b: append([]byte("head"), enc.Data()...)}
	src.fail.Store(true)
	ck := Unread(&Source{R: src, Off: 4}, enc.EncodedBytes(), enc.CRC(), len(vals))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if failed, err := ck.Check(); failed || !errors.Is(err, errRead) {
				t.Errorf("Check under a failing read = %v, %v; want false and the read's error", failed, err)
			}
			dst := make([]float64, 8)
			ck.DecodeInto(dst, 0, 8)
			for i, v := range dst {
				if !math.IsNaN(v) {
					t.Errorf("bin %d decoded %v from a read that failed", i, v)
				}
			}
		}()
	}
	wg.Wait()
	if data, failed, err := ck.Encoded(nil); data != nil || failed || !errors.Is(err, errRead) {
		t.Fatalf("Encoded under a failing read = %x, %v, %v; want no bytes and the read's error", data, failed, err)
	}
	if ck.Quarantined() || ck.Data() != nil {
		t.Fatal("a read that failed quarantined the chunk, or left bytes")
	}
	src.fail.Store(false)
	if data, failed, err := ck.Encoded(nil); failed || err != nil || string(data) != string(enc.Data()) {
		t.Fatalf("Encoded once reads pass = %x, %v, %v; want the chunk's bytes", data, failed, err)
	}
	dst := make([]float64, 8)
	ck.DecodeInto(dst, 0, 8)
	for i, v := range dst {
		if v != vals[i] {
			t.Fatalf("bin %d = %v once reads pass, want %v", i, v, vals[i])
		}
	}
	if ck.Quarantined() {
		t.Fatal("quarantined once reads pass")
	}
}

func TestDecodeIntoAllocs(t *testing.T) {
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i % 97)
	}
	c := Encode(vals)
	dst := make([]float64, len(vals))
	if n := testing.AllocsPerRun(100, func() {
		c.DecodeInto(dst, 100, 400)
	}); n != 0 {
		t.Fatalf("DecodeInto allocates %v per op, want 0", n)
	}
}

// TestEncodeAllocs pins what a seal costs and keeps: a 512-bin Encode
// allocates the Chunk and its bytes and nothing else, and the bytes
// carry no spare capacity, on counts, noise and gap runs alike.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	rng := rand.New(rand.NewSource(13))
	counts, noise, gaps := make([]float64, 512), make([]float64, 512), make([]float64, 512)
	for i := range counts {
		counts[i] = float64(10000 + rng.Intn(200))
		noise[i] = rng.NormFloat64() * 1e3
		gaps[i] = math.NaN()
		if i%100 < 10 {
			gaps[i] = float64(rng.Intn(50))
		}
	}
	for name, vals := range map[string][]float64{"counts": counts, "noise": noise, "gaps": gaps} {
		var c *Chunk
		if n := testing.AllocsPerRun(100, func() { c = Encode(vals) }); n != 2 {
			t.Errorf("%s: Encode allocates %v per op, want 2 (the Chunk and its bytes)", name, n)
		}
		if d := c.Data(); cap(d) != len(d) {
			t.Errorf("%s: sealed chunk holds %d bytes in a buffer of %d", name, len(d), cap(d))
		}
	}
}

// TestEncodeConcurrent seals from several goroutines at once, as the
// store's shards do, and checks every chunk against a serial encode:
// no chunk may share bytes with the pooled scratch another seal reuses.
func TestEncodeConcurrent(t *testing.T) {
	const workers, inputs = 4, 16
	vals := make([][]float64, inputs)
	want := make([]string, inputs)
	for i := range vals {
		rng := rand.New(rand.NewSource(int64(i)))
		vals[i] = make([]float64, 64+rng.Intn(512))
		for j := range vals[i] {
			vals[i][j] = float64(rng.Intn(1 << (2 * i)))
		}
		want[i] = string(Encode(vals[i]).Data())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []*Chunk
			for k := 0; k < 50; k++ {
				held = append(held, Encode(vals[(w+k)%inputs]))
			}
			for k, c := range held {
				if string(c.Data()) != want[(w+k)%inputs] {
					t.Errorf("worker %d: chunk %d changed after later seals", w, k)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFromEncodedAllocs pins the token walk: wrapping an untrusted
// stream and walking it allocates the Chunk and nothing that scales
// with the declared count (a head file may declare a span of 1<<20).
func TestFromEncodedAllocs(t *testing.T) {
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = float64(i % 97)
	}
	data := Encode(vals).Data()
	if n := testing.AllocsPerRun(20, func() {
		c, err := FromEncoded(data, len(vals))
		if err != nil || checkFails(c) {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("FromEncoded allocates %v per op, want ≤ 1 (the Chunk)", n)
	}
	// A nil buffer is one too short for the window: DecodeInto panics
	// rather than decode without storing.
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeInto(nil, 0, n) did not panic")
		}
	}()
	Encode(vals[:8]).DecodeInto(nil, 0, 8)
}

func TestCRCMatchesEncodedBytes(t *testing.T) {
	vals := []float64{1, 2, 3, math.NaN(), 5, 5, 5, 2.5}
	c := Encode(vals)
	if c.CRC() != crc32.ChecksumIEEE(c.Data()) {
		t.Fatalf("seal-time CRC %08x != checksum of data %08x", c.CRC(), crc32.ChecksumIEEE(c.Data()))
	}
	// FromEncoded recomputes the same CRC from the same bytes.
	rt, err := FromEncoded(c.Data(), c.Count())
	if err != nil {
		t.Fatal(err)
	}
	if rt.CRC() != c.CRC() {
		t.Fatalf("FromEncoded CRC %08x != seal CRC %08x", rt.CRC(), c.CRC())
	}
	// A one-bit flip changes the CRC — the property quarantine relies on.
	flipped := append([]byte(nil), c.Data()...)
	flipped[len(flipped)/2] ^= 0x10
	if crc32.ChecksumIEEE(flipped) == c.CRC() {
		t.Fatal("bit flip left CRC unchanged")
	}
}

func TestTombstoneDecodesToNaN(t *testing.T) {
	tb := Tombstone(64)
	if !tb.Quarantined() {
		t.Fatal("tombstone not quarantined")
	}
	if tb.Count() != 64 || tb.EncodedBytes() != 0 {
		t.Fatalf("tombstone count=%d bytes=%d", tb.Count(), tb.EncodedBytes())
	}
	dst := make([]float64, 64)
	tb.DecodeInto(dst, 0, 64)
	for i, v := range dst {
		if !math.IsNaN(v) {
			t.Fatalf("bin %d = %v, want NaN", i, v)
		}
	}
	// Windowed decode of a tombstone also yields NaN, zero-alloc.
	if n := testing.AllocsPerRun(50, func() {
		tb.DecodeInto(dst, 10, 30)
	}); n != 0 {
		t.Fatalf("tombstone DecodeInto allocates %v per op", n)
	}
	for i := 0; i < 20; i++ {
		if !math.IsNaN(dst[i]) {
			t.Fatalf("windowed bin %d = %v, want NaN", i, dst[i])
		}
	}
	// Regular chunks are never quarantined.
	if Encode([]float64{1, 2}).Quarantined() {
		t.Fatal("Encode produced a quarantined chunk")
	}
	if Tombstone(-3).Count() != 0 {
		t.Fatal("negative tombstone count not clamped")
	}
}

// TestChunkHeaderSize pins the size of a chunk's header, which every
// sealed chunk carries; only an unread one adds its source.
func TestChunkHeaderSize(t *testing.T) {
	if n := unsafe.Sizeof(Chunk{}); n > 64 {
		t.Fatalf("a Chunk is %d bytes, want at most 64", n)
	}
}
