package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/bsts"
	"repro/internal/edivisive"
	"repro/internal/eval"
	"repro/internal/funnel"
	"repro/internal/sst"
	"repro/internal/workload"
)

// The bake-off corpus is pinned — seed, size and trap mix are part of
// the experiment definition, not tunable via the sizing flags — so the
// committed table regenerates byte-identically (timing column aside) on
// any machine and CI can fail on drift.
const (
	bakeoffChanges = 48
	bakeoffHistory = 3 // days
	bakeoffSeed    = 7
	bakeoffTraps   = 0.25
)

// bakeoffParams builds the pinned corpus parameters: the standard
// three-class KPI mix plus trend/long-range-dependence traps on a
// quarter of the no-effect cases.
func bakeoffParams() workload.Params {
	p := workload.DefaultParams()
	p.Changes = bakeoffChanges
	p.HistoryDays = bakeoffHistory
	p.Seed = bakeoffSeed
	p.TrapFraction = bakeoffTraps
	return p
}

// bakeoffEntry pairs one table row with its method and the scorer whose
// per-window cost fills the ns/op column.
type bakeoffEntry struct {
	detector string // registry name shown in the Detector column
	stage    string // causality stage label: "did", "bsts", or "—"
	method   eval.Method
	scorer   sst.Scorer
}

// bakeoffRows generates the corpus, calibrates the score-only
// baselines on its pre-change stretches, evaluates every entry, and
// measures per-window cost.
func bakeoffRows() ([]eval.BakeoffRow, error) {
	sc, err := workload.Generate(bakeoffParams())
	if err != nil {
		return nil, err
	}

	ika := sst.NewIKA(sst.Config{Normalize: true, RobustFilter: true})
	cusum := &baselines.CUSUM{Window: 60, Bootstraps: 300, MinRelRange: 2}
	mrls := baselines.NewMRLS()
	ediv := edivisive.New()

	cthr, err := eval.CalibrateOnScenario(sc, cusum, 24, 0.999, 1.1)
	if err != nil {
		return nil, fmt.Errorf("calibrating CUSUM: %w", err)
	}
	mthr, err := eval.CalibrateOnScenario(sc, mrls, 24, 0.999, 1.1,
		workload.MetricMemUtil, workload.MetricQueueLen)
	if err != nil {
		return nil, fmt.Errorf("calibrating MRLS: %w", err)
	}
	ethr, err := eval.CalibrateOnScenario(sc, ediv, 24, 0.999, 1.1)
	if err != nil {
		return nil, fmt.Errorf("calibrating E-divisive: %w", err)
	}

	entries := []bakeoffEntry{
		// FUNNEL reference: SST detection + classical DiD causality.
		{"sst", "did", &eval.FunnelMethod{Label: "sst/did",
			Config: funnel.Config{HistoryDays: bakeoffHistory}}, ika},
		// The Bayesian alternative: same detection, BSTS causality.
		{"sst", "bsts", &eval.FunnelMethod{Label: "sst/bsts",
			Config: funnel.Config{HistoryDays: bakeoffHistory},
			Stages: funnel.Stages{Estimate: bsts.Estimate}}, ika},
		// Improved SST with no causality stage at all.
		{"sst", "—", &eval.FunnelMethod{Label: "sst/none",
			Config: funnel.Config{HistoryDays: bakeoffHistory, SkipDiD: true}}, ika},
		{"cusum", "—", &eval.BaselineMethod{Label: "cusum",
			Scorer: cusum, Threshold: cthr, Persistence: 7}, cusum},
		{"mrls", "—", &eval.BaselineMethod{Label: "mrls",
			Scorer: mrls, Threshold: mthr, Persistence: 1}, mrls},
		{"edivisive", "—", &eval.BaselineMethod{Label: "edivisive",
			Scorer: ediv, Threshold: ethr, Persistence: 7}, ediv},
	}

	methods := make([]eval.Method, len(entries))
	for i, e := range entries {
		methods[i] = e.method
	}
	results, err := eval.Run(sc, methods, eval.Options{NegativeWeight: 86})
	if err != nil {
		return nil, err
	}

	// Per-window cost on a bursty series (the dominant and costliest KPI
	// class), one measurement per distinct scorer.
	series := workload.Render(workload.NewVariable(100, 0.3, bakeoffSeed), 400)
	timing := map[sst.Scorer]time.Duration{}
	rows := make([]eval.BakeoffRow, len(entries))
	for i, e := range entries {
		per, ok := timing[e.scorer]
		if !ok {
			c := e.scorer.Config()
			t0 := c.PastSpan()
			span := len(series) - c.FutureSpan() - t0
			j := 0
			per = eval.TimePerWindow(func() {
				e.scorer.ScoreAt(series, t0+j%span)
				j++
			}, 120)
			timing[e.scorer] = per
		}
		rows[i] = eval.BakeoffRow{
			Detector:        e.detector,
			Stage:           e.stage,
			Overall:         results[i].Overall(),
			MedianDelayBins: results[i].DelayQuantile(0.5),
			PerWindow:       per,
		}
	}
	return rows, nil
}

// runBakeoff regenerates the bake-off table. In write mode it splices
// the table between the markers in docPath; in check mode it compares
// the regenerated table against the committed one with the volatile
// ns/op column masked, exiting non-zero on drift — the CI contract that
// keeps EXPERIMENTS.md honest.
func runBakeoff(docPath string, check bool) error {
	rows, err := bakeoffRows()
	if err != nil {
		return err
	}
	table := eval.RenderBakeoff(rows)

	raw, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	doc := string(raw)

	if check {
		committed, err := eval.ExtractBakeoff(doc)
		if err != nil {
			return err
		}
		got := eval.MaskBakeoffVolatile("\n" + table)
		want := eval.MaskBakeoffVolatile(committed)
		if got != want {
			return fmt.Errorf("bake-off table in %s drifted from the generated corpus:\n--- committed ---%s--- regenerated ---%s"+
				"run `go run ./cmd/funnelbench -run-bakeoff` and commit the result", docPath, want, got)
		}
		fmt.Printf("bake-off table in %s matches the regenerated corpus (%d rows)\n", docPath, len(rows))
		return nil
	}

	spliced, err := eval.SpliceBakeoff(doc, table)
	if err != nil {
		return err
	}
	if err := os.WriteFile(docPath, []byte(spliced), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bake-off rows into %s\n", len(rows), docPath)
	fmt.Print(table)
	return nil
}
