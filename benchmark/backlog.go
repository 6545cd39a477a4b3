package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/topo"
	"repro/internal/workload"
)

// backlogAccuracyFloor is the share of per-KPI verdicts that must match
// the generator's ground truth for a run to count as correct. The
// measured share is reported as funnel.verdict_accuracy; the floor only
// catches an assessor that stopped working.
const backlogAccuracyFloor = 0.9

// backlogChanges is the size of the corpus: the paper corpus's
// generator and parameters (4 servers per service, 7-day history, 75 %
// dark launch) cut from 144 changes to 24. One pass takes about half a
// second, so a run repeats the corpus some forty times, and the store
// holds 8 M measurements instead of 48 M: at the full size the
// sandbox's memory noise alone moved a run by ±25 % (README, "Spread
// and bounds").
const backlogChanges = 24

// batchBacklog runs the same funnel, sst, did and chunk layers the
// other way round: the paper-evaluation corpus loaded into an in-memory
// store, then assessed change by change in pull mode — a full window
// sweep per KPI, windowed reads instead of appends, no daemon, no WAL
// and no collector (attaching one would switch the scoring algorithm).
type batchBacklog struct {
	sc       *workload.Scenario
	store    *monitor.Store
	cfg      funnel.Config
	assessor *funnel.Assessor
	atLoad   monitor.Stats

	rounds  []*round
	reports []*funnel.Report // first report per case
	passes  int
}

func (w *batchBacklog) setup(e *env) error {
	p := workload.DefaultParams()
	p.Seed = e.opt.seed
	p.Changes = backlogChanges
	if e.opt.quick {
		p.Changes, p.HistoryDays = 4, 3
	}
	sc, err := workload.Generate(p)
	if err != nil {
		return err
	}
	w.sc = sc
	w.store = monitor.NewStoreShards(sc.Start, sc.Step, monitor.StoreShards)
	// Series-major load, keys in a fixed order.
	keys := sc.Source.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	batch := make([]monitor.Measurement, 0, 4096)
	for _, key := range keys {
		s, _ := sc.Source.Series(key)
		for i, v := range s.Values {
			if math.IsNaN(v) {
				continue
			}
			batch = append(batch, monitor.Measurement{Key: key, T: s.TimeAt(i), V: v})
			if len(batch) == cap(batch) {
				w.store.AppendBatch(batch)
				batch = batch[:0]
			}
		}
	}
	w.store.AppendBatch(batch)
	w.atLoad = w.store.Stats()
	w.cfg = funnel.Config{
		ServerMetrics:   workload.ServerMetrics(),
		InstanceMetrics: workload.InstanceMetrics(),
		HistoryDays:     p.HistoryDays,
	}
	w.assessor, err = funnel.NewAssessor(w.store, sc.Topo, w.cfg)
	if err != nil {
		return err
	}
	w.reports = make([]*funnel.Report, len(sc.Cases))
	return nil
}

func (w *batchBacklog) run(e *env, total time.Duration) {
	res, tr := e.res, e.tr
	rc := newRoundClock(e, total)
	for i := 0; !rc.expired(); i++ {
		ci := i % len(w.sc.Cases)
		cs := w.sc.Cases[ci]
		sp := tr.begin("assess", -1, int64(i))
		t0 := time.Now()
		rep, err := w.assessor.Assess(cs.Change)
		lat := float64(time.Since(t0)) / 1e6
		tr.end(sp)
		res.op(1)
		if err != nil {
			res.fail("assess %s: %v", cs.Change.ID, err)
			continue
		}
		// A verdict is a pure function of series, change and
		// configuration: every later pass must repeat the first.
		if first := w.reports[ci]; first == nil {
			w.reports[ci] = rep
		} else if diff := diffReports(rep, first); diff != "" {
			res.fail("%s changed between passes: %s", cs.Change.ID, diff)
		}
		// The operation is one KPI verdict: impact sets differ from
		// change to change and, in a corpus this small, on average from
		// seed to seed (20 to 24 KPIs), and the cost of an assessment
		// is proportional to them.
		kpis := len(rep.Assessments)
		if kpis == 0 {
			res.fail("assess %s: empty impact set", cs.Change.ID)
			continue
		}
		rc.cur.lat = append(rc.cur.lat, lat/float64(kpis))
		rc.cur.ops += kpis - 1
		rc.op()
		if ci == len(w.sc.Cases)-1 {
			w.passes++
		}
	}
	w.rounds, e.factor = rc.finish()
}

// verify re-assesses every change serially (verdicts must not depend on
// the worker count) and scores the verdicts against the generator's
// ground truth.
func (w *batchBacklog) verify(e *env) {
	res := e.res
	serialCfg := w.cfg
	serialCfg.AssessWorkers = 1
	serial, err := funnel.NewAssessor(w.store, w.sc.Topo, serialCfg)
	if err != nil {
		res.op(1)
		res.fail("serial assessor: %v", err)
		return
	}
	for ci, cs := range w.sc.Cases {
		if w.reports[ci] == nil {
			continue // the run was too short to reach this change
		}
		res.op(1)
		want, err := serial.Assess(cs.Change)
		if err != nil {
			res.fail("serial assess %s: %v", cs.Change.ID, err)
			continue
		}
		if diff := diffReports(w.reports[ci], want); diff != "" {
			res.fail("%s differs from the serial reference: %s", cs.Change.ID, diff)
		}
	}
	res.op(1)
	if correct, total := w.truthAccuracy(); total > 0 && float64(correct)/float64(total) < backlogAccuracyFloor {
		res.fail("verdict accuracy %d/%d is below %.2f", correct, total, backlogAccuracyFloor)
	}
}

// truthAccuracy counts per-KPI verdicts that agree with Case.Truth.
func (w *batchBacklog) truthAccuracy() (correct, total int) {
	for ci, cs := range w.sc.Cases {
		rep := w.reports[ci]
		if rep == nil {
			continue
		}
		for _, a := range rep.Assessments {
			truth, ok := cs.Truth[a.Key]
			if !ok {
				continue
			}
			total++
			if (a.Verdict == funnel.ChangedBySoftware) == truth.Changed {
				correct++
			}
		}
	}
	return correct, total
}

// kpisPerChange is the mean impact-set size of the assessed changes.
func (w *batchBacklog) kpisPerChange() float64 {
	var kpis, n int
	for _, rep := range w.reports {
		if rep != nil {
			kpis += len(rep.Assessments)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(kpis) / float64(n)
}

func (w *batchBacklog) report(e *env, setupSeconds float64) {
	endToEnd(e, setupSeconds, w.rounds, float64(w.atLoad.ApproxBytes)/float64(w.atLoad.Bins))
	correct, total := w.truthAccuracy()
	e.res.info = append(e.res.info, fmt.Sprintf("%d changes × %.1f KPIs, %d full passes, %d series × %d bins loaded, truth %d/%d",
		len(w.sc.Cases), w.kpisPerChange(), w.passes, w.atLoad.SeriesCount, w.atLoad.LastBin+1, correct, total))
	if !e.opt.trace {
		return
	}
	in := &layerInputs{
		rounds:   w.rounds,
		store:    w.store,
		topo:     w.sc.Topo,
		cfg:      w.cfg,
		accuracy: [2]int{correct, total},
	}
	for ci, cs := range w.sc.Cases {
		if w.reports[ci] != nil {
			in.reports = append(in.reports, w.reports[ci])
			in.changes = append(in.changes, cs.Change)
		}
	}
	// The corpus went in series-major; the ladder replays a sample of
	// it the same way.
	for _, key := range sampleKeys(w.store, 64) {
		s, _ := w.sc.Source.Series(key)
		var b []monitor.Measurement
		for i, v := range s.Values {
			if !math.IsNaN(v) {
				b = append(b, monitor.Measurement{Key: key, T: s.TimeAt(i), V: v})
			}
		}
		in.batches = append(in.batches, b)
	}
	reportLayers(e, in)
}

func (w *batchBacklog) teardown() {}

// sampleKeys returns up to n keys of the store, evenly spaced in a
// fixed order.
func sampleKeys(store *monitor.Store, n int) []topo.KPIKey {
	keys := store.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	if len(keys) <= n {
		return keys
	}
	out := make([]topo.KPIKey, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, keys[i*len(keys)/n])
	}
	return out
}
