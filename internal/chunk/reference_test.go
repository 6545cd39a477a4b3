package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	mbits "math/bits"
	"testing"
)

// referenceEncode is the stream-layout comment at the top of chunk.go
// written one bit at a time: the stream Encode must produce byte for
// byte. Like referenceDecode it is the slow, obvious one, sharing
// nothing with bitWriter. It also returns the stream's length in bits
// before padding.
func referenceEncode(vals []float64) (data []byte, nbits int) {
	put := func(v uint64, n int) {
		for i := n - 1; i >= 0; i-- {
			if nbits%8 == 0 {
				data = append(data, 0)
			}
			data[nbits/8] |= byte(v>>uint(i)&1) << (7 - nbits%8)
			nbits++
		}
	}
	if len(vals) == 0 {
		return nil, 0
	}
	prev := math.Float64bits(vals[0])
	put(prev, 64)
	lead, mean := -1, 0
	run := 0
	flush := func() {
		for run >= runMinLen { // the previous value repeats n more times
			n := min(run, maxRun)
			put(0b111, 3)
			put(uint64(n), 16)
			run -= n
		}
		for ; run > 0; run-- { // same bits as the previous value
			put(0, 1)
		}
	}
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		if cur == prev {
			run++
			continue
		}
		flush()
		x := cur ^ prev
		l, t := mbits.LeadingZeros64(x), mbits.TrailingZeros64(x)
		if lead >= 0 && l >= lead && 64-t <= lead+mean {
			// The XOR fits inside the previous window.
			put(0b10, 2)
			put(x>>uint(64-lead-mean), mean)
		} else {
			lead, mean = l, 64-l-t
			put(0b110, 3)
			put(uint64(lead), 6)
			put(uint64(mean-1), 6)
			put(x>>uint(t), mean)
		}
		prev = cur
	}
	flush()
	return data, nbits
}

// checkEncodeAgainstReference fails unless Encode(vals) is the
// reference encoder's stream, byte for byte, and the reference decoder
// reads it back to vals.
func checkEncodeAgainstReference(t *testing.T, vals []float64) {
	t.Helper()
	want, _ := referenceEncode(vals)
	got := Encode(vals).Data()
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("Encode wrote %d bytes, the reference %d; first difference at byte %d", len(got), len(want), at)
	}
	back, err := referenceDecode(got, len(vals))
	if err != nil {
		t.Fatalf("the reference decoder refused Encode's stream: %v", err)
	}
	for i, v := range vals {
		if back[i] != math.Float64bits(v) {
			t.Fatalf("value %d decodes to %016x, want %016x", i, back[i], math.Float64bits(v))
		}
	}
}

// referenceDecode is the stream-layout comment at the top of chunk.go
// read one bit at a time: the decoder decodeRange must agree with, on
// what it accepts and on every value it produces, and checkStream on
// what it accepts. It is deliberately
// the slow, obvious one — no word loads, no fast path, no sharing with
// bitReader.
func referenceDecode(data []byte, count int) ([]uint64, error) {
	pos := 0
	bits := func(n int) (uint64, error) {
		var v uint64
		for ; n > 0; n-- {
			if pos >= 8*len(data) {
				return 0, errors.New("truncated")
			}
			v = v<<1 | uint64(data[pos/8]>>(7-pos%8)&1)
			pos++
		}
		return v, nil
	}
	out := make([]uint64, 0, count)
	if count == 0 {
		return out, nil
	}
	prev, err := bits(64)
	if err != nil {
		return nil, err
	}
	out = append(out, prev)
	lead, mean := -1, 0
	for len(out) < count {
		tag := 0 // number of leading 1 bits, at most 3
		for tag < 3 {
			b, err := bits(1)
			if err != nil {
				return nil, err
			}
			if b == 0 {
				break
			}
			tag++
		}
		switch tag {
		case 0: // same bits as the previous value
		case 1, 2:
			if tag == 2 { // a freshly declared window
				l, err1 := bits(6)
				m, err2 := bits(6)
				if err1 != nil || err2 != nil {
					return nil, errors.New("truncated")
				}
				if lead, mean = int(l), int(m)+1; lead+mean > 64 {
					return nil, errors.New("bad window")
				}
			} else if lead < 0 {
				return nil, errors.New("window reuse before any window")
			}
			x, err := bits(mean)
			if err != nil {
				return nil, err
			}
			prev ^= x << (64 - lead - mean)
		case 3: // the previous value repeats n more times
			n, err := bits(16)
			if err != nil {
				return nil, err
			}
			if n == 0 || len(out)+int(n) > count {
				return nil, errors.New("bad run record")
			}
			for ; n > 1; n-- {
				out = append(out, prev)
			}
		}
		out = append(out, prev)
	}
	return out, nil
}

// checkAgainstReference decodes data as count values through
// decodeRange and through the reference, and checks it with
// checkStream, the walk FromEncoded runs; it fails unless all three
// agree on acceptance and the two decoders on every bit, and reports
// whether they accepted.
func checkAgainstReference(t *testing.T, data []byte, count int) (accepted bool) {
	t.Helper()
	want, wantErr := referenceDecode(data, count)
	dst := make([]float64, count)
	c := &Chunk{count: count, data: data}
	err := c.decodeRange(dst, 0, count)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeRange says %v, the reference decoder says %v", err, wantErr)
	}
	if werr := checkStream(data, count); (werr == nil) != (wantErr == nil) {
		t.Fatalf("checkStream says %v, the reference decoder says %v", werr, wantErr)
	}
	if err != nil {
		return false
	}
	for i, w := range want {
		if got := math.Float64bits(dst[i]); got != w {
			t.Fatalf("value %d: decodeRange %016x, reference %016x", i, got, w)
		}
	}
	return true
}

// TestDecodeTokenAtEveryPhase puts each token kind at every bit phase,
// once with enough stream after it for the one-load path and once
// within the last 8 bytes of the stream, where the bit reader takes
// over, and checks decodeRange and checkStream against the reference
// decoder. The payload widths straddle the decoder's one-load limits: a
// reused window holds up to 55 bits in one load, a new window up to 42.
func TestDecodeTokenAtEveryPhase(t *testing.T) {
	type token struct {
		name string
		emit func(w *bitWriter) (values int)
	}
	window := func(lead, mean int, payload uint64) func(*bitWriter) {
		return func(w *bitWriter) {
			w.put(0b110, 3)
			w.put(uint64(lead), 6)
			w.put(uint64(mean-1), 6)
			w.put(payload, mean)
		}
	}
	tokens := []token{
		{"repeat", func(w *bitWriter) int { w.put(0, 1); return 1 }},
		{"run", func(w *bitWriter) int { w.put(0b111, 3); w.put(40, 16); return 40 }},
	}
	for _, mean := range []int{1, 17, 42, 43, 55, 56, 64} {
		payload := uint64(1)<<(mean-1) | 1 // both ends of the window set
		tokens = append(tokens,
			token{fmt.Sprintf("new window m=%d", mean), func(w *bitWriter) int {
				window(64-mean, mean, payload)(w)
				return 1
			}},
			token{fmt.Sprintf("reused window m=%d", mean), func(w *bitWriter) int {
				window(64-mean, mean, payload)(w)
				w.put(0b10, 2)
				w.put(payload>>1|1, mean)
				return 2
			}},
		)
	}
	for _, tk := range tokens {
		for phase := 0; phase < 8; phase++ {
			for _, trailing := range []int{0, 3, 80} {
				w := bitWriter{}
				w.put(math.Float64bits(1234.5), 64)
				count := 1
				for i := 0; i < phase; i++ {
					w.put(0, 1) // repeat bits shift the phase
					count++
				}
				count += tk.emit(&w)
				for i := 0; i < trailing; i++ {
					w.put(0, 1)
					count++
				}
				data := w.finish()
				t.Run(fmt.Sprintf("%s/phase=%d/trailing=%d", tk.name, phase, trailing), func(t *testing.T) {
					if !checkAgainstReference(t, data, count) {
						t.Fatal("a well-formed stream was refused")
					}
					// The same stream cut short must be refused by both.
					if checkAgainstReference(t, data[:len(data)-1], count+8) {
						t.Fatal("a stream cut short was accepted")
					}
				})
			}
		}
	}
}

// TestEncodeTokenAtEveryPhase puts each token kind at each of the 64
// phases of the encoder's accumulator, so every token both fits inside
// the pending word and crosses a spill at every offset, and checks
// Encode against the reference encoder byte for byte.
//
// Values are written as XOR deltas from the previous one (0 repeats it),
// starting from a NaN with a payload. A prefix of one new window of at
// most 48 bits, after up to 16 repeat bits, sets the phase and leaves a
// window with 16 or more leading zeros; every setup below declares a
// window with fewer, so it is always a new window and each token is the
// kind its name says.
func TestEncodeTokenAtEveryPhase(t *testing.T) {
	bit := func(i ...int) (x uint64) {
		for _, b := range i {
			x |= 1 << b
		}
		return x
	}
	repeats := func(n int, then uint64) []uint64 {
		d := make([]uint64, n+1)
		d[n] = then
		return d
	}
	tokens := []struct {
		name          string
		setup, deltas []uint64
	}{
		{"repeat bit", nil, repeats(1, bit(5))},
		{"31 repeat bits", nil, repeats(runMinLen-1, bit(5))},
		{"run record of 32", nil, repeats(runMinLen, bit(5))},
		{"run record of 65535", nil, repeats(maxRun, bit(5))},
		{"run record of 65535 then 31 repeat bits", nil, repeats(maxRun+runMinLen-1, bit(5))},
		{"run records of 65535 and 40", nil, repeats(maxRun+40, bit(5))},
		{"reused window m=62", []uint64{bit(62, 1)}, []uint64{bit(62, 1), bit(2)}},
		{"reused window m=63", []uint64{bit(62, 0)}, []uint64{bit(62, 0), bit(61)}},
		{"reused window m=64", []uint64{bit(63, 0)}, []uint64{bit(63, 0), bit(40)}},
		{"new window m=1", nil, []uint64{bit(63)}},
		{"new window m=49", nil, []uint64{bit(63, 15)}},
		{"new window m=50", nil, []uint64{bit(63, 14)}},
		{"new window m=64", nil, []uint64{bit(63, 0)}},
		{"NaN payloads", nil, []uint64{0xbeef, 0xdead00, bit(50)}},
	}
	const nanSeed = 0x7ff8_0000_0000_0001
	for _, tk := range tokens {
		var seen [64]bool
		for p := 0; p < 64; p++ {
			r, m := 0, (p+64-16)%64+1 // 15+m header and payload bits ≡ p
			if m > 48 {
				r, m = m-48, 48
			}
			deltas := append(repeats(r, 1<<m-1), tk.setup...)
			prefix := 1 + len(deltas)
			deltas = append(deltas, tk.deltas...)
			deltas = append(deltas, bit(9), 0, 0, 0)
			vals := make([]float64, 1+len(deltas))
			cur := uint64(nanSeed)
			vals[0] = math.Float64frombits(cur)
			for i, d := range deltas {
				cur ^= d
				vals[1+i] = math.Float64frombits(cur)
			}
			_, before := referenceEncode(vals[:prefix])
			phase := before % 64
			seen[phase] = true
			t.Run(fmt.Sprintf("%s/phase=%d", tk.name, phase), func(t *testing.T) {
				checkEncodeAgainstReference(t, vals)
			})
		}
		for phase, ok := range seen {
			if !ok {
				t.Errorf("%s: never encoded at accumulator phase %d", tk.name, phase)
			}
		}
	}
}
