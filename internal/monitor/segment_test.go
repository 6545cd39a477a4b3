package monitor

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/topo"
)

// TestRestoredChunkWalkedAtFirstDecode: a segment chunk whose bytes
// match their CRC but fail the token walk passes the open — nothing is
// quarantined there — and becomes a tombstone at its first decode:
// every window over it reads NaN from then on, the rest of the series
// reads as written, and monitor.quarantined_chunks counts it once,
// however many readers race to it. Fsck, which walks every chunk,
// reports it.
func TestRestoredChunkWalkedAtFirstDecode(t *testing.T) {
	const span = 16
	dir := t.TempDir()
	opts := persistOptsNoBG(4)
	opts.ChunkSpan = span
	st, err := OpenPersistent(dir, t0, time.Minute, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := topo.KPIKey{Scope: topo.ScopeServer, Entity: "srv-3", Metric: "cpu.util"}
	at := func(bin int) time.Time { return t0.Add(time.Duration(bin) * time.Minute) }
	for bin := range 3*span + 5 {
		st.Append(Measurement{k, at(bin), float64(bin)})
	}
	bad := st.shardFor(k).series[k].chunks[1].Data()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Chunk 1's stream becomes bytes the walk refuses (a run record that
	// overflows the chunk), under a CRC that holds.
	rewriteFile(t, filepath.Join(dir, segmentName(1)), func(raw []byte) []byte {
		at := bytes.Index(raw, bad)
		if at < 0 || bytes.Count(raw, bad) != 1 {
			t.Fatal("chunk 1's stream is not in the segment once")
		}
		junk := bytes.Repeat([]byte{0xff}, len(bad))
		copy(raw[at:], junk)
		binary.BigEndian.PutUint32(raw[at-4:], crc32.ChecksumIEEE(junk))
		return raw
	})
	fsckDir := copyImage(t, dir)

	re, err := OpenPersistent(dir, time.Time{}, 0, persistOptsNoBG(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovered(); rec.QuarantinedChunks != 0 || re.QuarantinedChunks() != 0 || re.Stats().QuarantinedChunks != 0 {
		t.Fatalf("the open quarantined a chunk whose CRC holds: %+v, gauge %d", rec, re.QuarantinedChunks())
	}
	var wg sync.WaitGroup
	var wrong atomic.Int32
	for r := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := r % 3 * span / 2 // windows from chunk 0, 0–1 and 1 on
			buf, from, ok := re.RangeInto(k, at(lo), at(lo+2*span), nil)
			if !ok {
				wrong.Add(1)
				return
			}
			first := int(from.Sub(t0) / time.Minute)
			for i, v := range buf {
				bin := first + i
				if (bin >= span && bin < 2*span) != math.IsNaN(v) || !math.IsNaN(v) && v != float64(bin) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d bins read wrong: chunk 1 must read NaN, the rest as written", n)
	}
	if got := re.QuarantinedChunks(); got != 1 {
		t.Fatalf("monitor.quarantined_chunks = %d after the first decodes, want 1", got)
	}
	// Later reads find the tombstone and count nothing more.
	buf, _, _ := re.RangeInto(k, at(0), at(3*span), nil)
	if !math.IsNaN(buf[span+3]) || buf[2*span+1] != float64(2*span+1) || re.QuarantinedChunks() != 1 || re.Stats().QuarantinedChunks != 1 {
		t.Fatalf("a later read: bins %v and %v, gauge %d, stats %d", buf[span+3], buf[2*span+1], re.QuarantinedChunks(), re.Stats().QuarantinedChunks)
	}

	rep, err := Fsck(fsckDir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuarantinedChunks != 1 || rep.Healthy() {
		t.Fatalf("fsck: %+v, want the chunk that fails its walk reported", rep)
	}
}

// segmentWrites counts the bytes written to segment and head files.
type segmentWrites struct {
	faultfs.FS
	n atomic.Int64
}

type segmentWriteFile struct {
	faultfs.File
	n *atomic.Int64
}

func (fs *segmentWrites) Create(name string) (faultfs.File, error) {
	f, err := fs.FS.Create(name)
	if base := filepath.Base(name); err != nil || !strings.HasPrefix(base, segmentPrefix) && base != headTmpFile {
		return f, err
	}
	return segmentWriteFile{f, &fs.n}, nil
}

func (f segmentWriteFile) Write(p []byte) (int, error) {
	f.n.Add(int64(len(p)))
	return f.File.Write(p)
}

// TestCompactionWritesFlatInHistory: what a run of compactions writes,
// and how many segments it leaves live, does not grow with the history
// the store holds. Two stores differ only in history — 8 and 32 sealed
// chunks a series under a base segment — and then take the same bins
// and the same 16 compactions, each sealing a chunk a series. They
// write the same bytes, binary-counter merges included, and leave at
// most the base and one segment per bit of the compaction count.
func TestCompactionWritesFlatInHistory(t *testing.T) {
	const span, rounds = 16, 16
	keys := fleetKeys(24)
	run := func(history int) (written int64, live []segmentRef) {
		fsys := &segmentWrites{FS: faultfs.OS}
		opts := persistOptsNoBG(4)
		opts.ChunkSpan, opts.FS = span, fsys
		st, err := OpenPersistent(t.TempDir(), t0, time.Minute, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		bin := 0
		add := func(n int, value func(ki, bin int) float64) {
			for ; n > 0; n-- {
				for ki, k := range keys {
					st.Append(Measurement{k, t0.Add(time.Duration(bin) * time.Minute), value(ki, bin)})
				}
				bin++
			}
		}
		add(history*span, func(ki, bin int) float64 { return float64(ki*100000 + bin) })
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		before := fsys.n.Load()
		for r := range rounds {
			// The same values in both stores, whatever their history.
			add(span, func(ki, b int) float64 { return float64(ki*1000 + r*span + b%span) })
			if r%3 == 0 { // a late write into the chunk the round before sealed
				k := keys[r%len(keys)]
				st.Append(Measurement{k, t0.Add(time.Duration(bin-span-1) * time.Minute), -1})
			}
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		return fsys.n.Load() - before, st.persist.live
	}
	short, shortLive := run(8)
	long, longLive := run(32)
	t.Logf("%d compactions wrote %d bytes over 8 chunks of history a series, %d over 32; live segments %+v", rounds, short, long, longLive)
	if short != long {
		t.Fatalf("%d compactions wrote %d bytes over 8 chunks of history, %d over 32: want the same", rounds, short, long)
	}
	if len(longLive) != len(shortLive) || len(longLive) > 1+bits.Len(rounds) || longLive[0].level != baseLevel {
		t.Fatalf("live segments %+v after %d compactions, want the base and at most %d more", longLive, rounds, bits.Len(rounds))
	}
}
