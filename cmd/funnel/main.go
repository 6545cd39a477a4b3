// Command funnel runs the FUNNEL assessment pipeline over a generated
// scenario and prints, for each software change, the KPI changes
// attributed to it — the report the operations team receives (step 12
// of the paper's Fig. 3).
//
//	funnel -changes 8 -history 3 -seed 42 [-v] [-json] [-workers 8]
//	funnel -trace scenario.json [-v] [-json]      # assess an exported trace
//	funnel -detector edivisive -causality bsts    # swap pipeline stages
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bsts"
	"repro/internal/changelog"
	"repro/internal/detect"
	"repro/internal/funnel"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/topo"
	"repro/internal/workload"
)

// options carries the flags every run shares, whatever its corpus.
type options struct {
	history, workers                   int
	verbose, asJSON, summarize, trends bool
	col                                *obs.Collector
	stages                             funnel.Stages
}

func main() {
	var (
		changes   = flag.Int("changes", 8, "number of software changes to simulate and assess")
		history   = flag.Int("history", 3, "days of KPI history per series")
		seed      = flag.Int64("seed", 1, "scenario seed")
		verbose   = flag.Bool("v", false, "also print KPIs whose changes were excluded or absent")
		asJSON    = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		workers   = flag.Int("workers", 0, "parallel assessment workers (0 = GOMAXPROCS)")
		trends    = flag.Bool("trends", false, "run the parallel-trends placebo diagnostics")
		summarize = flag.Bool("summary", false, "print a one-line-per-change summary instead of full reports")
		traceFile = flag.String("trace", "", "assess a workload.Trace JSON file instead of generating a scenario")
		timings   = flag.Bool("timings", false, "instrument the pipeline and dump stage metrics to stderr after the run")
		detector  = flag.String("detector", "", "change detector to run (see funnel.Detectors; \"\" = the deployed SST scorer)")
		causality = flag.String("causality", "", "causality stage: \"did\" (classical, default) or \"bsts\" (Bayesian structural time series)")
	)
	flag.Parse()

	stages, err := resolveStages(*detector, *causality)
	if err != nil {
		fmt.Fprintln(os.Stderr, "funnel:", err)
		os.Exit(1)
	}
	o := options{history: *history, workers: *workers, verbose: *verbose, asJSON: *asJSON,
		summarize: *summarize, trends: *trends, stages: stages}
	if *timings {
		o.col = obs.NewCollector()
	}
	if *traceFile != "" {
		err = runTrace(*traceFile, o)
	} else {
		err = run(*changes, *seed, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "funnel:", err)
		os.Exit(1)
	}
	if o.col != nil {
		if err := o.col.WriteMetrics(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "funnel:", err)
			os.Exit(1)
		}
	}
}

// resolveStages maps the -detector and -causality names to the stages
// the assessor runs: "" or "sst" and "" or "did" keep the deployed ones,
// any other detector comes from the registry, and "bsts" is the
// Bayesian structural time-series stage.
func resolveStages(detector, causality string) (funnel.Stages, error) {
	var st funnel.Stages
	switch detector {
	case "", "sst":
	default:
		entry, err := detect.LookupDetector(detector)
		if err != nil {
			return st, err
		}
		st.Scorer = entry.New()
	}
	switch causality {
	case "", "did":
	case "bsts":
		st.Estimate = bsts.Estimate
	default:
		return st, fmt.Errorf("funnel: unknown causality stage %q (want \"did\" or \"bsts\")", causality)
	}
	return st, nil
}

// runTrace assesses every change of an exported trace file.
func runTrace(path string, o options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.LoadTrace(f)
	if err != nil {
		return err
	}
	source, tp, log, _, err := tr.Build()
	if err != nil {
		return err
	}
	return assess(source, tp, log.All(), traceMetrics(tr, "server"), traceMetrics(tr, "instance"), o)
}

// traceMetrics collects the distinct metric names of one scope from a
// trace.
func traceMetrics(tr *workload.Trace, scope string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range tr.Series {
		if s.Scope == scope && !seen[s.Metric] {
			seen[s.Metric] = true
			out = append(out, s.Metric)
		}
	}
	return out
}

// run generates a scenario and assesses its changes.
func run(changes int, seed int64, o options) error {
	p := workload.DefaultParams()
	p.Changes = changes
	p.HistoryDays = o.history
	p.Seed = seed
	sc, err := workload.Generate(p)
	if err != nil {
		return err
	}
	batch := make([]changelog.Change, 0, len(sc.Cases))
	for _, cs := range sc.Cases {
		batch = append(batch, cs.Change)
	}
	return assess(sc.Source, sc.Topo, batch, workload.ServerMetrics(), workload.InstanceMetrics(), o)
}

// assess runs every change through one assessor built from o and
// renders the reports.
func assess(source funnel.SeriesSource, tp *topo.Topology, changes []changelog.Change, serverMetrics, instanceMetrics []string, o options) error {
	assessor, err := funnel.NewAssessorWith(source, tp, funnel.Config{
		ServerMetrics:        serverMetrics,
		InstanceMetrics:      instanceMetrics,
		HistoryDays:          o.history,
		VerifyParallelTrends: o.trends,
		Obs:                  o.col,
	}, o.stages)
	if err != nil {
		return err
	}
	results := assessor.AssessAll(changes, o.workers)
	reports := make([]*funnel.Report, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("assessing %s: %w", r.Change.ID, r.Err)
		}
		reports = append(reports, r.Report)
	}
	return emit(reports, o)
}

// emit renders reports in the selected format.
func emit(reports []*funnel.Report, o options) error {
	switch {
	case o.asJSON:
		return report.WriteJSON(os.Stdout, reports)
	case o.summarize:
		fmt.Print(report.Summary(reports))
		return nil
	default:
		for _, rep := range reports {
			if err := report.WriteText(os.Stdout, rep, o.verbose); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
}
