package chunk

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRoundTrip feeds adversarial bit patterns through encode/decode
// and asserts exact reproduction, and that Encode writes the
// bit-at-a-time reference encoder's stream byte for byte. The corpus
// seeds cover the float64 corners the XOR codec must not normalize
// away: NaN payloads, ±Inf, signed zeros, denormals and sign flips.
func FuzzRoundTrip(f *testing.F) {
	seed := func(vals ...uint64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.BigEndian.PutUint64(buf[8*i:], v)
		}
		f.Add(buf)
	}
	nan := math.Float64bits(math.NaN())
	seed(nan, nan, nan, nan, nan)
	seed(math.Float64bits(1), nan|0xdead, nan|0xbeef) // NaN payloads differ
	seed(math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	seed(0, 0x8000000000000000, 0, 0x8000000000000000) // ±0 flips
	seed(1, 2, 3, 0x0000000000000001)                  // denormal tail
	seed(math.Float64bits(1.5), math.Float64bits(-1.5), math.Float64bits(1.5))
	run := make([]uint64, 70) // a run record of 68
	run[69] = nan
	seed(run...)
	seed()

	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n > 4096 {
			n = 4096
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
		c := Encode(vals)
		if want, _ := referenceEncode(vals); !bytes.Equal(c.Data(), want) {
			t.Fatalf("Encode wrote %x, the reference encoder %x", c.Data(), want)
		}
		got := make([]float64, n)
		c.DecodeInto(got, 0, n)
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d: decoded %x, want %x",
					i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
		// The stream must also survive the snapshot path: wrap the raw
		// bytes and decode an interior window.
		re, err := FromEncoded(c.Data(), n)
		if err != nil {
			t.Fatalf("FromEncoded rejected Encode output: %v", err)
		}
		if n > 2 {
			win := make([]float64, n-2)
			re.DecodeInto(win, 1, n-1)
			for i := 1; i < n-1; i++ {
				if math.Float64bits(win[i-1]) != math.Float64bits(vals[i]) {
					t.Fatalf("window value %d differs", i)
				}
			}
		}
	})
}

// FuzzFromEncoded throws arbitrary bytes at the segment-restore entry
// point: the deferred walk (Check) must fail without panicking, and
// exactly when the bit-at-a-time reference decoder refuses, after which
// the chunk decodes to NaN; checkStream, the token walk Check runs, and
// decodeRange must agree with the reference
// on the same bytes; and anything accepted must decode in full to the
// reference's values, bit for bit. The seeds cut each token kind off
// within the last 8 bytes of its stream, where the walk reads through
// the bit reader, and hold each token the grammar refuses: a run record
// that overflows the count or is empty, a reused window before any, and
// a window past 64 bits.
func FuzzFromEncoded(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff}, 5)
	f.Add(Encode([]float64{1, 2, 3}).Data(), 3)
	// Each stream below is the seed value, a declared window and one
	// token; cut one byte short, its last token ends past the stream.
	tokens := []func(w *bitWriter) (values int){
		func(w *bitWriter) int { w.put(0, 1); return 1 },                                    // repeat
		func(w *bitWriter) int { w.put(0b10, 2); w.put(0x2a5, 10); return 1 },               // reused window
		func(w *bitWriter) int { w.put(0b110<<12|20<<6|9, 15); w.put(0x3ff, 10); return 1 }, // new window
		func(w *bitWriter) int { w.put(0b111<<16|40, 19); return 40 },                       // run record
		func(w *bitWriter) int { w.put(0b111<<16|40, 19); return 39 },                       // a run past the count
	}
	for _, emit := range tokens {
		w := bitWriter{}
		w.put(math.Float64bits(1234.5), 64)
		w.put(0b110<<12|20<<6|9, 15) // leading 20, meaningful 10
		w.put(0x155, 10)
		count := 2 + emit(&w)
		data := w.finish()
		f.Add(data, count)
		f.Add(data[:len(data)-1], count)
	}
	// The seed value alone, one value short.
	f.Add(Encode([]float64{7}).Data(), 2)
	// Tokens the grammar refuses whole: a window reused before any is
	// declared, a window of 63 leading and 2 meaningful bits, an empty
	// run record.
	for _, bad := range []struct {
		bits uint64
		n    int
	}{{0b10, 2}, {0b110<<12 | 63<<6 | 1, 15}, {0b111 << 16, 19}} {
		w := bitWriter{}
		w.put(math.Float64bits(1234.5), 64)
		w.put(bad.bits, bad.n)
		w.put(0, 24) // room for a payload: the token is refused, not cut
		f.Add(w.finish(), 3)
	}
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 1<<16 {
			return
		}
		accepted := checkAgainstReference(t, data, count)
		c, err := FromEncoded(data, count)
		if err != nil {
			t.Fatalf("FromEncoded refused a count of %d: %v", count, err)
		}
		if failed := checkFails(c); failed == accepted {
			t.Fatalf("the walk failed: %v, the reference decoder accepted: %v", failed, accepted)
		}
		dst := make([]float64, count)
		c.DecodeInto(dst, 0, count)
		if !accepted && count > 0 && !math.IsNaN(dst[0]) {
			t.Fatalf("a chunk that failed its walk decodes %v", dst[0])
		}
	})
}
