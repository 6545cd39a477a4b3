package chunk

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// referenceDecode is the stream-layout comment at the top of chunk.go
// read one bit at a time: the decoder decodeRange must agree with, on
// what it accepts and on every value it produces. It is deliberately
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
// decodeRange — storing and validate-only — and through the reference,
// fails unless all three agree on acceptance and on every bit, and
// reports whether they accepted.
func checkAgainstReference(t *testing.T, data []byte, count int) (accepted bool) {
	t.Helper()
	want, wantErr := referenceDecode(data, count)
	dst := make([]float64, count)
	c := &Chunk{count: count, data: data}
	err := c.decodeRange(dst, 0, count)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeRange says %v, the reference decoder says %v", err, wantErr)
	}
	if verr := c.decodeRange(nil, 0, count); (verr == nil) != (err == nil) {
		t.Fatalf("validate-only says %v, storing decode says %v", verr, err)
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
// over, and checks decodeRange against the reference decoder. The
// payload widths straddle the one-load limits: a reused window holds up
// to 55 bits in one load, a new window up to 42.
func TestDecodeTokenAtEveryPhase(t *testing.T) {
	type token struct {
		name string
		emit func(w *bitWriter) (values int)
	}
	window := func(lead, mean int, payload uint64) func(*bitWriter) {
		return func(w *bitWriter) {
			w.writeBits(0b110, 3)
			w.writeBits(uint64(lead), 6)
			w.writeBits(uint64(mean-1), 6)
			w.writeBits(payload, mean)
		}
	}
	tokens := []token{
		{"repeat", func(w *bitWriter) int { w.writeBits(0, 1); return 1 }},
		{"run", func(w *bitWriter) int { w.writeBits(0b111, 3); w.writeBits(40, 16); return 40 }},
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
				w.writeBits(0b10, 2)
				w.writeBits(payload>>1|1, mean)
				return 2
			}},
		)
	}
	for _, tk := range tokens {
		for phase := 0; phase < 8; phase++ {
			for _, trailing := range []int{0, 3, 80} {
				w := bitWriter{}
				w.writeBits(math.Float64bits(1234.5), 64)
				count := 1
				for i := 0; i < phase; i++ {
					w.writeBits(0, 1) // repeat bits shift the phase
					count++
				}
				count += tk.emit(&w)
				for i := 0; i < trailing; i++ {
					w.writeBits(0, 1)
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
