package chunk

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRoundTrip feeds adversarial bit patterns through encode/decode
// and asserts exact reproduction. The corpus seeds cover the float64
// corners the XOR codec must not normalize away: NaN payloads, ±Inf,
// signed zeros, denormals and sign flips.
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

// FuzzFromEncoded throws arbitrary bytes at the snapshot-restore
// entry point: it must reject or accept without panicking, and exactly
// when the bit-at-a-time reference decoder does; its validate-only pass
// must agree with a storing decode of the same bytes; and anything
// accepted must decode in full to the reference's values, bit for bit.
func FuzzFromEncoded(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff}, 5)
	f.Add(Encode([]float64{1, 2, 3}).Data(), 3)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 1<<16 {
			return
		}
		accepted := checkAgainstReference(t, data, count)
		c, err := FromEncoded(data, count)
		if (err == nil) != accepted {
			t.Fatalf("FromEncoded says %v, the reference decoder accepted: %v", err, accepted)
		}
		if err != nil {
			return
		}
		c.DecodeInto(make([]float64, count), 0, count)
	})
}
