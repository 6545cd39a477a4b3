package chunk

import (
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
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
	got := make([]float64, len(vals))
	re.DecodeInto(got, 0, len(vals))
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("value %d = %v, want %v", i, got[i], v)
		}
	}
	// Truncation, garbage, a count overrunning the stream, and a
	// negative count must all be rejected instead of panicking later.
	if _, err := FromEncoded(c.Data()[:4], len(vals)); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := FromEncoded([]byte{0xff, 0xff}, 3); err == nil {
		t.Fatal("garbage stream accepted")
	}
	if _, err := FromEncoded(c.Data(), len(vals)+100); err == nil {
		t.Fatal("overlong count accepted")
	}
	if _, err := FromEncoded(c.Data(), -1); err == nil {
		t.Fatal("negative count accepted")
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

// TestFromEncodedAllocs pins the validate-only decode: wrapping an
// untrusted stream allocates the Chunk and nothing that scales with the
// declared count (a snapshot header may declare a span of 1<<20).
func TestFromEncodedAllocs(t *testing.T) {
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = float64(i % 97)
	}
	data := Encode(vals).Data()
	if n := testing.AllocsPerRun(20, func() {
		if _, err := FromEncoded(data, len(vals)); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("FromEncoded allocates %v per op, want ≤ 1 (the Chunk)", n)
	}
	// The nil buffer that selects validate-only inside the package must
	// not be reachable through DecodeInto.
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
