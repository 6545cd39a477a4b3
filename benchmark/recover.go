package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/topo"
)

const (
	// recoverSnapBins is how many bins of the crash image sit in the
	// compacted snapshot, recoverWALBins how many more in the shard
	// logs on top of it.
	// recoverServers × 10 KPIs is the width of the crash image: 5 000
	// series, so that one recovery takes under half a second, a run
	// makes some forty of them, and three set-ups fit in a run.
	recoverServers  = 500
	recoverSnapBins = 600
	recoverWALBins  = 200
	// recoverDigestBins × recoverDigestKeys is the window of the image
	// whose RangeInto digest must survive the restart.
	recoverDigestBins = 64
	recoverDigestKeys = 256
)

// restartRecover reads what the persistence layer wrote: set-up builds
// a deterministic crash image (a compacted snapshot plus shard logs that
// were synced but never compacted), and every operation opens a fresh
// copy of it with the default options, waits until every series is
// back at full length, and closes it again.
type restartRecover struct {
	f         *fleet
	image     string // directory holding the crash image
	imageSize int64
	digest    uint64
	sample    []topo.KPIKey

	rounds   []*round
	resident float64
	rec      monitor.RecoveryStats
}

func (w *restartRecover) totalBins() int { return recoverSnapBins + recoverWALBins }

func (w *restartRecover) setup(e *env) error {
	metrics := make([]string, 10)
	for i := range metrics {
		metrics[i] = fmt.Sprintf("count.k%d", i)
	}
	w.f = newFleet(e.opt.seed, fleetSpec{background: e.scale(recoverServers, 25), metrics: metrics})
	f := w.f
	f.value = func(series, bin int) float64 {
		lambda := 800 + 400*math.Sin(2*math.Pi*float64(bin%1440)/1440)
		return math.Round(lambda + 40*unitNoise(f.seed, series, bin))
	}
	build, err := e.subdir("build-")
	if err != nil {
		return err
	}
	defer removeAll(build)
	// Automatic compaction and the background fsync are off for the
	// image build only, so the image's split between snapshot and logs
	// is exactly the one asked for.
	store, err := monitor.OpenPersistent(build, epoch, time.Minute, monitor.PersistOptions{CompactBytes: -1, SyncInterval: -1})
	if err != nil {
		return fmt.Errorf("open image store: %w", err)
	}
	closeStore := registry.push(func() { store.Close() })
	defer closeStore()
	batch := make([]monitor.Measurement, 0, len(f.keys))
	for bin := 0; bin < w.totalBins(); bin++ {
		if bin == recoverSnapBins {
			if err := store.Compact(); err != nil {
				return fmt.Errorf("compact image: %w", err)
			}
		}
		batch = f.fillBin(batch[:0], bin)
		store.AppendBatch(batch)
	}
	if err := store.Sync(); err != nil {
		return fmt.Errorf("sync image: %w", err)
	}
	w.sample = nil
	stride := len(f.keys)/recoverDigestKeys + 1
	for i := 0; i < len(f.keys); i += stride {
		w.sample = append(w.sample, f.keys[i])
	}
	w.digest = tailDigest(store, w.sample, w.totalBins())

	// The "crash": the directory is copied as it stands after the sync,
	// before the store gets a chance to shut down cleanly.
	if w.image, err = e.subdir("image-"); err != nil {
		return err
	}
	if err := copyDir(build, w.image); err != nil {
		return fmt.Errorf("copy image: %w", err)
	}
	if w.imageSize, err = dirBytes(w.image); err != nil {
		return err
	}
	return nil
}

// tailDigest folds the last recoverDigestBins bins of the sampled
// series, read through RangeInto, into one digest.
func tailDigest(store *monitor.Store, keys []topo.KPIKey, bins int) uint64 {
	var h uint64
	var buf []float64
	for _, k := range keys {
		buf, _, _ = store.RangeInto(k, binTime(bins-recoverDigestBins), binTime(bins), buf[:0])
		h = digest(h, buf)
	}
	return h
}

// copyDir copies the regular files of src into the existing directory
// dst (the data directory is flat).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (w *restartRecover) run(e *env, total time.Duration) {
	res, tr, f := e.res, e.tr, w.f
	rc := newRoundClock(e, total)
	bins := w.totalBins()
	for i := 0; !rc.expired(); i++ {
		res.op(1)
		// Untimed: a fresh copy of the image (recovery compacts what it
		// opens, so a copy serves once).
		dir, err := e.subdir("recover-")
		if err == nil {
			err = copyDir(w.image, dir)
		}
		if err != nil {
			res.fail("copy image: %v", err)
			break
		}

		root := tr.begin("recover", -1, int64(i))
		cpu0, t0 := processCPU(), time.Now()
		sp := tr.begin("open", root, int64(i))
		store, err := monitor.OpenPersistent(dir, epoch, time.Minute, monitor.PersistOptions{})
		tr.end(sp)
		if err != nil {
			res.fail("recover: %v", err)
			break
		}
		closeStore := registry.push(func() { store.Close() })
		short := 0
		for _, k := range f.keys {
			if n, ok := store.SeriesLen(k); !ok || n != bins {
				short++
			}
		}
		opened := time.Since(t0)
		cpuOpen := processCPU() - cpu0

		// Untimed: what came back must be what was there.
		if short > 0 {
			res.fail("recovery %d: %d of %d series do not hold %d bins", i, short, len(f.keys), bins)
		} else if tailDigest(store, w.sample, bins) != w.digest {
			res.fail("recovery %d: RangeInto digest differs from the one taken before the crash", i)
		}
		if w.resident == 0 {
			st := store.Stats()
			w.resident = float64(st.ApproxBytes) / float64(st.Bins)
			w.rec = store.Recovered()
		}

		cpu1, t1 := processCPU(), time.Now()
		sp = tr.begin("close", root, int64(i))
		err = store.Close()
		tr.end(sp)
		busy := opened + time.Since(t1)
		cpu := cpuOpen + processCPU() - cpu1
		tr.end(root)
		closeStore()
		if err != nil {
			res.fail("close after recovery %d: %v", i, err)
		}
		removeAll(dir)

		rc.cur.lat = append(rc.cur.lat, float64(busy)/1e6)
		rc.cur.busy += busy
		rc.cur.busyCPU += cpu
		rc.op()
	}
	w.rounds, e.factor = rc.finish()
}

func (w *restartRecover) verify(e *env) {
	e.res.op(1)
	want := len(w.f.keys) * recoverWALBins
	if w.rec.WALRecords != want || w.rec.SnapshotSeries != len(w.f.keys) || w.rec.TornTails != 0 || w.rec.QuarantinedChunks != 0 {
		e.res.fail("recovery stats %+v: want %d series from the snapshot and %d log records, nothing torn or quarantined",
			w.rec, len(w.f.keys), want)
	}
}

func (w *restartRecover) report(e *env, setupSeconds float64) {
	endToEnd(e, setupSeconds, w.rounds, w.resident)
	meas := float64(len(w.f.keys) * w.totalBins())
	e.res.info = append(e.res.info, fmt.Sprintf("image: %d series × (%d snapshot + %d log) bins, %d bytes, %.3f B/measurement on disk",
		len(w.f.keys), recoverSnapBins, recoverWALBins, w.imageSize, float64(w.imageSize)/meas))
	if !e.opt.trace {
		return
	}
	// The ladder wants a live store holding the workload's data: one
	// more recovery, untimed.
	dir, err := e.subdir("ladder-store-")
	if err == nil {
		err = copyDir(w.image, dir)
	}
	if err != nil {
		e.res.op(1)
		e.res.fail("ladder store: %v", err)
		return
	}
	defer removeAll(dir)
	store, err := monitor.OpenPersistent(dir, epoch, time.Minute, monitor.PersistOptions{})
	if err != nil {
		e.res.op(1)
		e.res.fail("ladder store: %v", err)
		return
	}
	closeStore := registry.push(func() { store.Close() })
	defer closeStore()
	in := &layerInputs{rounds: w.rounds, store: store, fleet: w.f, cfg: funnel.Config{HistoryDays: 1}}
	in.batches = w.f.sampleBins(w.totalBins()-ladderBins, w.totalBins())
	reportLayers(e, in)
}

func (w *restartRecover) teardown() {
	if w.image != "" {
		removeAll(w.image)
		w.image = ""
	}
}
