package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/changelog"
	"repro/internal/daemon"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sst"
	"repro/internal/topo"
)

// rolloutMetrics are the two server KPIs every rollout-stream server
// publishes.
var rolloutMetrics = []string{"mem.util", "cpu.util"}

const (
	// rolloutLead is how many bins before its change bin a change is
	// registered on the admin port.
	rolloutLead = 5
	// rolloutStagger is the distance in bins between two successive
	// changes.
	rolloutStagger = 3
	// rolloutShift is the level shift a change causes on the treated
	// servers of an even-numbered service, against noise σ rolloutNoise.
	rolloutShift = 9.0
	rolloutNoise = 0.6
	// rolloutHistoryBins is the history set-up publishes before the
	// clock starts: HistoryDays (one day) plus 100 bins.
	rolloutHistoryBins = 1440 + 100
	// rolloutVerifyMax bounds how many verdicts are re-derived with the
	// batch assessor after the clock stops.
	rolloutVerifyMax = 120
)

// rolloutStream is the deployed composite: measurements enter through
// the ingest socket of a daemon with WAL, streaming assessment and
// telemetry on; changes are registered just in time on the admin port;
// the clock runs from just before a change's verdict-completing bin is
// written until its report leaves the daemon.
type rolloutStream struct {
	f           *fleet
	sched       rollout
	cfg         funnel.Config
	historyBins int
	rig         *rig
	refTopo     *topo.Topology
	atSetup     monitor.Stats

	rounds      []*round
	reports     map[int]*funnel.Report // by change index
	registered  int
	lastBin     int // last bin published
	registerLat []float64
}

func (w *rolloutStream) setup(e *env) error {
	w.historyBins = e.scale(rolloutHistoryBins, 200)
	w.f, w.sched = rolloutFleet(e.opt.seed, e.scale(240, 8), e.scale(300, 10), w.historyBins)
	f := w.f
	w.cfg = funnel.Config{ServerMetrics: rolloutMetrics, HistoryDays: 1}
	w.reports = make(map[int]*funnel.Report)

	var err error
	if w.rig, err = startRig(e, w.cfg); err != nil {
		return err
	}
	w.refTopo = topo.NewTopology()
	for _, s := range f.svc {
		if err := w.rig.d.DeployService(s.name, s.servers...); err != nil {
			return err
		}
		for _, srv := range s.servers {
			w.refTopo.Deploy(s.name, srv)
		}
	}
	// History goes in the way production data does: over the ingest
	// socket, one batch per bin.
	batch := make([]monitor.Measurement, 0, len(f.keys))
	for bin := 0; bin < w.historyBins; bin++ {
		batch = f.fillBin(batch[:0], bin)
		if err := w.rig.pub.PublishBatch(batch); err != nil {
			return fmt.Errorf("publish history: %w", err)
		}
	}
	if err := w.rig.pub.Flush(); err != nil {
		return fmt.Errorf("flush history: %w", err)
	}
	if !waitUntil(func() bool { return w.rig.binVisible(f, w.historyBins-1) }) {
		return fmt.Errorf("history never became visible")
	}
	// Start every run from the same disk state: one snapshot, empty
	// logs. Background compaction would otherwise leave the logs at an
	// arbitrary fill when the clock starts.
	if err := w.rig.store.Compact(); err != nil {
		return fmt.Errorf("compact history: %w", err)
	}
	w.atSetup = w.rig.store.Stats()
	w.lastBin = w.historyBins - 1
	return nil
}

// rolloutFleet generates the rollout-stream fleet and its change
// schedule: services of six servers (two treated) publishing two KPIs,
// plus background servers; noise around a flat level, and on every
// change of an even-numbered service an alternating level shift on its
// treated servers, so half the verdicts are software-caused and half
// are clean.
func rolloutFleet(seed int64, services, background, historyBins int) (*fleet, rollout) {
	f := newFleet(seed, fleetSpec{
		services:          services,
		serversPerService: 6,
		treatedPerService: 2,
		background:        background,
		metrics:           rolloutMetrics,
	})
	sched := rollout{first: historyBins + rolloutLead, stagger: rolloutStagger, services: services}
	f.value = func(series, bin int) float64 {
		v := 55 + rolloutNoise*unitNoise(f.seed, series, bin)
		if svc := f.service[series]; f.treated[series] && svc%2 == 0 && sched.deployed(svc, bin)%2 == 1 {
			v += rolloutShift
		}
		return v
	}
	return f, sched
}

// completes returns the change whose verdict-completing bin is bin: the
// streamer reports a change once its probe series holds bin
// changeBin + WindowBins + FutureSpan (all public configuration).
func (w *rolloutStream) completes(bin int) (int, bool) {
	return w.sched.changeAt(bin - w.readySpan())
}

func (w *rolloutStream) readySpan() int {
	window := w.cfg.WindowBins
	if window <= 0 {
		window = 60 // funnel.Config's documented default
	}
	return window + sst.Config{}.FutureSpan()
}

func (w *rolloutStream) change(k int) changelog.Change {
	s := w.f.svc[k%len(w.f.svc)]
	return changelog.Change{
		ID:      fmt.Sprintf("chg-%05d", k),
		Type:    changelog.Upgrade,
		Service: s.name,
		Servers: s.treated,
		At:      binTime(w.sched.changeBin(k)),
	}
}

func (w *rolloutStream) run(e *env, total time.Duration) {
	f, res, tr := w.f, e.res, e.tr
	rc := newRoundClock(e, total)
	batch := make([]monitor.Measurement, 0, len(f.keys))
	// The region runs for its time, and past it until the first verdict
	// is in (some 80 bins at most): latency is never left unmeasured.
	for bin := w.historyBins; !rc.expired() || len(w.reports) == 0; bin++ {
		root := tr.begin("bin", -1, int64(bin))

		if k, ok := w.sched.changeAt(bin + rolloutLead); ok {
			c := w.change(k)
			sp := tr.begin("register", root, int64(bin))
			t0 := time.Now()
			err := w.rig.register(daemon.RegisterRequest{
				ID: c.ID, Type: "upgrade", Service: c.Service, Servers: c.Servers, At: c.At,
			})
			tr.end(sp)
			res.op(1)
			if err != nil {
				res.fail("register %s: %v", c.ID, err)
				break
			}
			w.registerLat = append(w.registerLat, float64(time.Since(t0))/1e6)
			w.registered = k + 1
		}
		// A report that is already waiting was emitted before its
		// completing bin was sent.
		select {
		case rep, ok := <-w.rig.d.Reports():
			if ok {
				res.fail("report for %s arrived before its completing bin %d was sent", rep.Change.ID, bin)
			}
		default:
		}

		sp := tr.begin("generate", root, int64(bin))
		batch = f.fillBin(batch[:0], bin)
		tr.end(sp)

		t0 := time.Now()
		sp = tr.begin("publish", root, int64(bin))
		err := w.rig.publishBin(batch)
		tr.end(sp)
		tPub := time.Now()
		res.op(1)
		if err != nil {
			res.fail("publish bin %d: %v", bin, err)
			break
		}
		sp = tr.begin("wait_visible", root, int64(bin))
		visible := waitUntil(func() bool { return w.rig.binVisible(f, bin) })
		tr.end(sp)
		tVis := time.Now()
		if !visible {
			res.fail("bin %d not visible after %v", bin, waitTimeout)
			break
		}
		w.lastBin = bin
		rc.cur.aux["publish"] = append(rc.cur.aux["publish"], float64(tPub.Sub(t0))/1e6)
		rc.cur.aux["bin_visible"] = append(rc.cur.aux["bin_visible"], float64(tVis.Sub(t0))/1e6)

		if k, ok := w.completes(bin); ok {
			res.op(1)
			sp = tr.begin("wait_verdict", root, int64(bin))
			var rep *funnel.Report
			select {
			case rep = <-w.rig.d.Reports():
			case <-time.After(waitTimeout):
			}
			tr.end(sp)
			if rep == nil {
				res.fail("no report for change %d within %v of bin %d", k, waitTimeout, bin)
				break
			}
			lat := float64(time.Since(t0)) / 1e6
			if want := w.change(k).ID; rep.Change.ID != want {
				res.fail("bin %d completed %s but %s was reported", bin, want, rep.Change.ID)
			} else {
				w.reports[k] = rep
				rc.cur.lat = append(rc.cur.lat, lat)
			}
		}
		tr.end(root)
		rc.op()
	}
	w.rounds, e.factor = rc.finish()
}

// verify re-derives a sample of the verdicts with the batch assessor on
// the same store and configuration, checks that every measurement that
// was sent is in the store, and reads the program's own fault counters.
func (w *rolloutStream) verify(e *env) {
	res, f, store := e.res, w.f, w.rig.store

	// The reference takes the same scoring path the daemon's collector
	// selects, on a collector of its own so the daemon's counters stay
	// the daemon's.
	refCfg := w.cfg
	refCfg.Obs = obs.NewCollector()
	ref, err := funnel.NewAssessor(store, w.refTopo, refCfg)
	if err != nil {
		res.op(1)
		res.fail("reference assessor: %v", err)
		return
	}
	step := (len(w.reports) + rolloutVerifyMax - 1) / rolloutVerifyMax
	if step < 1 {
		step = 1
	}
	for k := 0; k < w.registered; k += step {
		rep, ok := w.reports[k]
		if !ok {
			continue
		}
		res.op(1)
		want, err := ref.Assess(w.change(k))
		if err != nil {
			res.fail("reference assess %s: %v", rep.Change.ID, err)
			continue
		}
		if diff := diffReports(rep, want); diff != "" {
			res.fail("%s differs from the batch reference: %s", rep.Change.ID, diff)
		}
	}

	checkStored(res, store, f, w.lastBin+1)
	checkCounters(res, w.rig.d.Collector())
}

func (w *rolloutStream) teardown() {
	if w.rig != nil {
		w.rig.close()
		w.rig = nil
	}
}

// truthAccuracy scores the reports against what the generator did: the
// treated KPIs of an even service's change shifted, those of an odd
// service's did not.
func (w *rolloutStream) truthAccuracy() (correct, total int) {
	for k, rep := range w.reports {
		shifted := (k%len(w.f.svc))%2 == 0
		for _, a := range rep.Assessments {
			total++
			if (a.Verdict == funnel.ChangedBySoftware) == shifted {
				correct++
			}
		}
	}
	return correct, total
}

// diffReports compares what the issue calls a verdict: per KPI the
// verdict, the control kind and the change kind.
func diffReports(got, want *funnel.Report) string {
	if len(got.Assessments) != len(want.Assessments) {
		return fmt.Sprintf("%d KPIs against %d", len(got.Assessments), len(want.Assessments))
	}
	for i, g := range got.Assessments {
		x := want.Assessments[i]
		if g.Key != x.Key || g.Verdict != x.Verdict || g.ControlKind != x.ControlKind || g.Detection.Kind != x.Detection.Kind {
			return fmt.Sprintf("%v: %v/%v/%v against %v/%v/%v", g.Key,
				g.Verdict, g.ControlKind, g.Detection.Kind, x.Verdict, x.ControlKind, x.Detection.Kind)
		}
	}
	return ""
}

// checkStored verifies that every series holds exactly bins bins and
// that the last 64 bins of 256 evenly sampled series read back, through
// RangeInto, as generated.
func checkStored(res *result, store *monitor.Store, f *fleet, bins int) {
	res.op(1)
	short := 0
	for _, k := range f.keys {
		if n, ok := store.SeriesLen(k); !ok || n != bins {
			short++
		}
	}
	if short > 0 {
		res.fail("%d of %d series do not hold %d bins", short, len(f.keys), bins)
	}
	res.op(1)
	lo := bins - 64
	if lo < 0 {
		lo = 0
	}
	stride := len(f.keys)/256 + 1
	var buf, want []float64
	bad := 0
	for i := 0; i < len(f.keys); i += stride {
		var ok bool
		buf, _, ok = store.RangeInto(f.keys[i], binTime(lo), binTime(bins), buf[:0])
		want = want[:0]
		for b := lo; b < bins; b++ {
			want = append(want, f.value(i, b))
		}
		if !ok || digest(0, buf) != digest(0, want) {
			bad++
		}
	}
	if bad > 0 {
		res.fail("%d sampled series read back different from what was published", bad)
	}
}

// checkCounters fails the run when the program reports dropped
// connections, rejected frames or shed stream work.
func checkCounters(res *result, col *obs.Collector) {
	for _, name := range []string{obs.CtrConnDrops, obs.CtrFrameRejects, obs.CtrStreamSheds} {
		res.op(1)
		if n := col.Counter(name); n != 0 {
			res.fail("%s = %d", name, n)
		}
	}
}

func (w *rolloutStream) report(e *env, setupSeconds float64) {
	endToEnd(e, setupSeconds, w.rounds, float64(w.atSetup.ApproxBytes)/float64(w.atSetup.Bins))
	correct, total := w.truthAccuracy()
	bins := w.lastBin + 1 - w.historyBins
	e.res.info = append(e.res.info, fmt.Sprintf("%d bins × %d series after %d bins of history, %d verdicts (%d/%d KPI verdicts match the generator's truth)",
		bins, len(w.f.keys), w.historyBins, len(w.reports), correct, total))
	if !e.opt.trace {
		return
	}
	ks, reports := sortedReports(w.reports)
	in := &layerInputs{
		rounds:     w.rounds,
		store:      w.rig.store,
		col:        w.rig.d.Collector(),
		debugAddr:  w.rig.d.DebugAddr().String(),
		fleet:      w.f,
		ingested:   int64(bins) * int64(len(w.f.keys)),
		reports:    reports,
		topo:       w.refTopo,
		cfg:        w.cfg,
		registerMs: w.registerLat,
		accuracy:   [2]int{correct, total},
		// Changes pending at any time × treated KPIs each, of all keys.
		trackedEvery: len(w.f.keys) * rolloutStagger / ((w.readySpan() + rolloutLead) * 2 * len(rolloutMetrics)),
	}
	for _, k := range ks {
		in.changes = append(in.changes, w.change(k))
	}
	in.batches = w.f.sampleBins(w.lastBin+1-ladderBins, w.lastBin+1)
	reportLayers(e, in)
}

// sortedReports returns the change indices of a report map in order,
// and the reports in the same order.
func sortedReports(m map[int]*funnel.Report) ([]int, []*funnel.Report) {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	out := make([]*funnel.Report, len(ks))
	for i, k := range ks {
		out[i] = m[k]
	}
	return ks, out
}
