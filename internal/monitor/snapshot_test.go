package monitor

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0, 1.5})
	s.Append(Measurement{kCPU, t0.Add(3 * time.Minute), 4.5}) // NaN gap at 1, 2
	s.Append(Measurement{kPV, t0, 100})

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start().Equal(t0) || got.Step() != time.Minute || got.Len() != 2 {
		t.Fatalf("header mismatch: start=%v step=%v len=%d", got.Start(), got.Step(), got.Len())
	}
	ser, ok := got.Series(kCPU)
	if !ok || ser.Len() != 4 {
		t.Fatalf("cpu series = %v", ser)
	}
	if ser.Values[0] != 1.5 || !math.IsNaN(ser.Values[1]) || !math.IsNaN(ser.Values[2]) || ser.Values[3] != 4.5 {
		t.Fatalf("cpu values = %v", ser.Values)
	}
	pv, _ := got.Series(kPV)
	if pv.Values[0] != 100 {
		t.Fatalf("pv values = %v", pv.Values)
	}
	// The restored store keeps working.
	got.Append(Measurement{kPV, t0.Add(time.Minute), 101})
	pv, _ = got.Series(kPV)
	if pv.Values[1] != 101 {
		t.Fatal("restored store rejects appends")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewStore(t0, time.Minute)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: len=%d err=%v", got.Len(), err)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"FNLS\x00\x63", // wrong version
	}
	for i, c := range cases {
		if _, err := ReadSnapshot(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Truncated body.
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{kCPU, t0, 1})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(full[:len(full)-4])); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

func TestSnapshotBadScope(t *testing.T) {
	s := NewStore(t0, time.Minute)
	s.Append(Measurement{Measurementkey(99), t0, 1})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil {
		t.Fatal("invalid scope should be rejected on read")
	}
}

// Measurementkey builds a key with an arbitrary scope byte for
// negative tests.
func Measurementkey(scope uint8) topo.KPIKey {
	return topo.KPIKey{Scope: topo.Scope(scope), Entity: "x", Metric: "y"}
}

// A snapshot string costs one allocation, the string itself: the bytes
// are read through the caller's scratch.
func TestReadSnapshotStringAllocs(t *testing.T) {
	var framed []byte
	for _, s := range []string{"srv-0042", "cpu.util", "grp000.core", ""} {
		framed = append(framed, byte(len(s)>>8), byte(len(s)))
		framed = append(framed, s...)
	}
	r := bytes.NewReader(framed)
	br := bufio.NewReader(r)
	scratch := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(framed)
		br.Reset(r)
		for _, want := range []string{"srv-0042", "cpu.util", "grp000.core", ""} {
			if got, err := readSnapshotString(br, &scratch); err != nil || got != want {
				t.Fatalf("read %q, %v; want %q", got, err, want)
			}
		}
	})
	if allocs != 3 { // the empty string allocates nothing
		t.Fatalf("%v allocations for 4 strings, want 3", allocs)
	}
}

// ReadSnapshot reconstructs a default-striped Store from a snapshot
// stream, counting its quarantined chunks the way recovery does.
func ReadSnapshot(r io.Reader) (*Store, error) {
	var quarantined int
	store, err := readSnapshotShards(r, StoreShards, &quarantined)
	if store != nil && quarantined > 0 {
		store.quarantined.Add(int64(quarantined))
	}
	return store, err
}
