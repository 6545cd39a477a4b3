package monitor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/topo"
)

// FuzzDecodeMeasurement hammers the measurement codec with arbitrary
// payloads: it must never panic, and every accepted payload must
// re-encode to an equivalent measurement.
func FuzzDecodeMeasurement(f *testing.F) {
	good, _ := EncodeMeasurement(Measurement{
		Key: topo.KPIKey{Scope: topo.ScopeInstance, Entity: "a@b", Metric: "m"},
		T:   time.Unix(12345, 0).UTC(), V: 1.5,
	})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{frameMeasurement})
	f.Add([]byte{frameMeasurement, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMeasurement(data)
		if err != nil {
			return
		}
		re, err := EncodeMeasurement(m)
		if err != nil {
			t.Fatalf("accepted measurement failed to re-encode: %v", err)
		}
		m2, err := DecodeMeasurement(re)
		if err != nil {
			t.Fatalf("re-encoded measurement failed to decode: %v", err)
		}
		if m2.Key != m.Key || !m2.T.Equal(m.T) {
			t.Fatalf("round trip drifted: %+v vs %+v", m2, m)
		}
	})
}

// FuzzDecodeSubscribe checks the subscribe codec the same way.
func FuzzDecodeSubscribe(f *testing.F) {
	good, _ := EncodeSubscribe([]string{"server/", "instance/x"})
	f.Add(good)
	f.Add([]byte{frameSubscribe, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		prefixes, err := DecodeSubscribe(data)
		if err != nil {
			return
		}
		re, err := EncodeSubscribe(prefixes)
		if err != nil {
			t.Fatalf("accepted subscribe failed to re-encode: %v", err)
		}
		again, err := DecodeSubscribe(re)
		if err != nil || len(again) != len(prefixes) {
			t.Fatalf("round trip drifted: %v vs %v (%v)", again, prefixes, err)
		}
	})
}

// FuzzReadSnapshot feeds arbitrary bytes to the head reader, beside a
// well-formed segment: no panics, and every accepted head must restore
// to a store that re-serializes.
func FuzzReadSnapshot(f *testing.F) {
	s := NewStore(time.Unix(0, 0).UTC(), time.Minute)
	s.SetChunkSpan(2)
	for i := range 3 {
		s.Append(Measurement{Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: "s", Metric: "m"},
			T: time.Unix(int64(60*(i+1)), 0).UTC(), V: float64(i)})
	}
	good := imageOf(f, s)
	f.Add(good.head)
	f.Add([]byte("FNLH"))
	for _, head := range badIndexHeads(good) {
		f.Add(head)
	}
	f.Fuzz(func(t *testing.T, head []byte) {
		store, err := restoreImage(image{head: head, seg: good.seg})
		if err != nil {
			return
		}
		imageOf(t, store)
	})
}

// FuzzReadFrame exercises the length-prefixed framing, including the
// max-frame-size rejection path.
func FuzzReadFrame(f *testing.F) {
	var framed bytes.Buffer
	_ = WriteFrame(&framed, []byte("payload"))
	f.Add(framed.Bytes())
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // oversized length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err == nil && len(payload) > maxFrame {
			t.Fatalf("accepted %d-byte frame past the %d bound", len(payload), maxFrame)
		}
		if errors.Is(err, ErrFrameTooLarge) && len(data) >= 4 &&
			binary.BigEndian.Uint32(data) <= maxFrame {
			t.Fatalf("rejected %d-byte frame as oversized", binary.BigEndian.Uint32(data))
		}
	})
}

// FuzzDecodeSubscribeSince checks the resume-subscribe codec: no
// panics, and accepted payloads round-trip including the watermark.
func FuzzDecodeSubscribeSince(f *testing.F) {
	good, _ := EncodeSubscribeSince(time.Unix(600, 0).UTC(), []string{"server/"})
	f.Add(good)
	live, _ := EncodeSubscribeSince(time.Time{}, nil)
	f.Add(live)
	f.Add([]byte{frameSubscribeSince})
	f.Fuzz(func(t *testing.T, data []byte) {
		since, prefixes, err := DecodeSubscribeSince(data)
		if err != nil {
			return
		}
		re, err := EncodeSubscribeSince(since, prefixes)
		if err != nil {
			t.Fatalf("accepted subscribe-since failed to re-encode: %v", err)
		}
		since2, prefixes2, err := DecodeSubscribeSince(re)
		if err != nil {
			t.Fatalf("re-encoded subscribe-since failed to decode: %v", err)
		}
		if !since2.Equal(since) || len(prefixes2) != len(prefixes) {
			t.Fatalf("round trip drifted: (%v, %v) vs (%v, %v)", since2, prefixes2, since, prefixes)
		}
	})
}

// FuzzIngestStream drives the full publisher frame path — framing plus
// measurement decoding — over an arbitrary byte stream, exactly as an
// IngestServer handler does with a hostile or corrupted peer: it must
// never panic, and every frame it accepts must carry a decodable
// measurement or terminate the stream.
func FuzzIngestStream(f *testing.F) {
	var healthy bytes.Buffer
	m := Measurement{
		Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "mem.util"},
		T:   time.Unix(300, 0).UTC(), V: 0.5,
	}
	frame, _ := EncodeMeasurement(m)
	_ = WriteFrame(&healthy, frame)
	_ = WriteFrame(&healthy, frame)
	f.Add(healthy.Bytes())
	// A healthy prefix followed by a corrupted frame: the stream must
	// terminate cleanly at the corruption, not panic.
	torn := append([]byte{}, healthy.Bytes()...)
	torn[len(torn)-3] ^= 0xFF
	f.Add(torn)
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, frameMeasurement})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			if _, err := DecodeMeasurement(payload); err != nil {
				return // protocol violation: a real server drops the peer here
			}
		}
	})
}

// FuzzDecodeBatch checks the batch (0x04) codec: whatever DecodeBatchInto
// accepts must re-encode and decode to the same measurements, with and
// without key interning.
func FuzzDecodeBatch(f *testing.F) {
	good, _ := EncodeBatch([]Measurement{
		{Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-1", Metric: "cpu"}, T: time.Unix(60, 0).UTC(), V: 1},
		{Key: topo.KPIKey{Scope: topo.ScopeService, Entity: "kv", Metric: "qps"}, T: time.Unix(120, 0).UTC(), V: 2},
	})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{frameBatch})
	f.Add([]byte{frameBatch, 0x00, 0x01})
	f.Add([]byte{frameBatch, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := DecodeBatchInto(nil, data, nil)
		if err != nil {
			return
		}
		re, err := EncodeBatch(ms)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		ms2, err := DecodeBatchInto(nil, re, NewKeyCache())
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if len(ms2) != len(ms) {
			t.Fatalf("round trip changed count: %d vs %d", len(ms2), len(ms))
		}
		for i := range ms {
			if ms2[i].Key != ms[i].Key || !ms2[i].T.Equal(ms[i].T) {
				t.Fatalf("entry %d drifted: %+v vs %+v", i, ms2[i], ms[i])
			}
		}
	})
}

// FuzzSnapshotRestore hammers the restore path — a head and the
// segment it lists — with arbitrary bytes seeded from well-formed images
// of three shapes and corrupted variants of each: restore must either
// error cleanly or produce a store whose image restores to itself —
// never panic, and never allocate proportionally to a corrupt length
// field. A restored chunk whose stream fails its walk reads as NaN.
func FuzzSnapshotRestore(f *testing.F) {
	at := func(i int) time.Time { return time.Unix(int64(60*(i+1)), 0).UTC() }
	k := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv", Metric: "m"}

	// Sealed chunks, a tail, and a quarantined tombstone.
	s := NewStore(time.Unix(0, 0).UTC(), time.Minute)
	s.SetChunkSpan(4)
	for i := 0; i < 11; i++ {
		s.Append(Measurement{Key: k, T: at(i), V: float64(i)})
	}
	s.shardFor(k).series[k].chunks[1] = chunk.Tombstone(4)
	chunked := imageOf(f, s)

	// Three scopes, gaps, and a pruned head inside the first chunk.
	s = NewStore(time.Unix(0, 0).UTC(), time.Minute)
	s.SetChunkSpan(4)
	for i := 0; i < 10; i += 2 {
		s.Append(Measurement{Key: k, T: at(i), V: 9.5})
		s.Append(Measurement{Key: topo.KPIKey{Scope: topo.ScopeInstance, Entity: "kv@srv", Metric: "qps"}, T: at(i), V: float64(-i)})
		s.Append(Measurement{Key: topo.KPIKey{Scope: topo.ScopeService, Entity: "kv", Metric: "lat"}, T: at(i / 2), V: math.Inf(1)})
	}
	s.Prune(at(2))
	pruned := imageOf(f, s)

	// Tails only: no series has sealed a chunk yet.
	s = NewStore(time.Unix(0, 0).UTC(), time.Minute)
	for i, v := range []float64{1, 2, 3} {
		s.Append(Measurement{Key: k, T: at(i), V: v})
	}
	tails := imageOf(f, s)

	// Each shape, one flipped byte in the head, one in each region of
	// the segment, a truncated segment, and a hostile length field.
	flip := func(b []byte, pos int) []byte {
		c := bytes.Clone(b)
		c[pos] ^= 0x80
		return c
	}
	for _, im := range []image{chunked, pruned, tails} {
		f.Add(im.head, im.seg)
		f.Add(flip(im.head, len(im.head)/2), im.seg)
		for _, pos := range []int{5, len(im.seg) / 2, len(im.seg) - 2} {
			f.Add(im.head, flip(im.seg, pos))
		}
		f.Add(im.head, im.seg[:len(im.seg)/3]) // truncation
	}
	huge := bytes.Clone(tails.head[:len(tails.head)-3*8-8])
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFE) // absurd tail count
	f.Add(huge, tails.seg)
	for _, im := range []image{chunked, pruned} {
		for _, head := range badIndexHeads(im) {
			f.Add(head, im.seg)
		}
	}

	f.Fuzz(func(t *testing.T, head, seg []byte) {
		store, err := restoreImage(image{head: head, seg: seg})
		if err != nil {
			return
		}
		out1 := imageOf(t, store)
		again, err := restoreImage(out1)
		if err != nil {
			t.Fatalf("a re-serialized image failed to restore: %v", err)
		}
		out2 := imageOf(t, again)
		if !bytes.Equal(out1.head, out2.head) || !bytes.Equal(out1.seg, out2.seg) {
			t.Fatal("restore → serialize is not deterministic")
		}
		// Every series decodes: a chunk whose bytes fail their CRC or walk
		// reads NaN.
		for _, key := range store.Keys() {
			store.Series(key)
		}
	})
}

// badIndexHeads returns im's head with its first series' first index
// entry patched, under a checksum made good again: the chunk placed past
// the segment's end, and in a segment the head does not list.
func badIndexHeads(im image) [][]byte {
	var heads [][]byte
	for _, patch := range []func(e []byte){
		func(e []byte) { binary.BigEndian.PutUint64(e[1:], uint64(len(im.seg))+8) },
		func(e []byte) { e[0] = 1 },
	} {
		if head := patchIndex(im.head, patch); head != nil {
			heads = append(heads, head)
		}
	}
	return heads
}

// patchIndex returns a copy of head with patch applied to its first
// series' first index entry and the checksum made good again, or nil
// when that series has no chunks.
func patchIndex(head []byte, patch func(entry []byte)) []byte {
	at := 4 + 2 + 8 + 8 + 4 + 8 + 4
	at += 9*int(binary.BigEndian.Uint32(head[at-4:])) + 4
	at += 1 + 2 + int(binary.BigEndian.Uint16(head[at+1:])) // scope, entity
	at += 2 + int(binary.BigEndian.Uint16(head[at:]))       // metric
	if binary.BigEndian.Uint32(head[at+4:]) == 0 {
		return nil
	}
	head = bytes.Clone(head)
	patch(head[at+8:]) // past first chunk and chunk count
	binary.BigEndian.PutUint32(head[len(head)-4:], crc32.ChecksumIEEE(head[:len(head)-4]))
	return head
}
