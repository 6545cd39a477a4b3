// Command funnelbench regenerates every table and figure of the
// CoNEXT'15 FUNNEL paper from synthetic workloads (see DESIGN.md for
// the experiment index and EXPERIMENTS.md for recorded results):
//
//	funnelbench -fig2            level-shift / ramp example series
//	funnelbench -table1          accuracy per KPI type × method
//	funnelbench -table2          per-window cost and cores for 1M KPIs
//	funnelbench -fig5            detection-delay CCDF per method
//	funnelbench -table3          one-week deployment precision
//	funnelbench -fig6            Redis rebalancing case study
//	funnelbench -fig7            advertising incident case study
//	funnelbench -ablate          scorer design ablations
//	funnelbench -roc             ROC threshold sweeps per method
//	funnelbench -all             everything above
//
// Sizing flags (-changes, -history, -seed, -bootstraps) trade fidelity
// for runtime; defaults reproduce EXPERIMENTS.md.
//
// A separate mode maintains the detector bake-off table in EXPERIMENTS.md
// (every registered detector scored on a pinned labelled corpus with
// trend/long-range-dependence traps; see the "Detector bake-off"
// section there for the methodology):
//
//	funnelbench -run-bakeoff                  regenerate and splice the table
//	funnelbench -run-bakeoff -bakeoff-check   fail if the committed table
//	                                          drifted (ns/op column ignored)
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		fig2   = flag.Bool("fig2", false, "print the Fig. 2 example series")
		table1 = flag.Bool("table1", false, "accuracy per KPI type × method (Table 1)")
		table2 = flag.Bool("table2", false, "per-window cost (Table 2)")
		fig5   = flag.Bool("fig5", false, "detection-delay CCDF (Fig. 5)")
		table3 = flag.Bool("table3", false, "deployment-week precision (Table 3)")
		fig6   = flag.Bool("fig6", false, "Redis case study (Fig. 6)")
		fig7   = flag.Bool("fig7", false, "advertising case study (Fig. 7)")
		ablate = flag.Bool("ablate", false, "scorer design ablations")
		roc    = flag.Bool("roc", false, "ROC threshold sweeps per method")

		changes    = flag.Int("changes", 144, "number of software changes in the Table-1/Fig-5 corpus")
		history    = flag.Int("history", 7, "days of history per series (paper: 30; smaller = faster)")
		seed       = flag.Int64("seed", 1, "corpus seed")
		bootstraps = flag.Int("bootstraps", 300, "CUSUM bootstrap shuffles (paper-faithful: 1000)")
		csvOut     = flag.String("csv", "", "also write table1.csv / fig5_ccdf.csv into this directory")

		runBakeoffF  = flag.Bool("run-bakeoff", false, "regenerate the detector bake-off table and splice it into -bakeoff-doc")
		bakeoffDoc   = flag.String("bakeoff-doc", "EXPERIMENTS.md", "document holding the bake-off markers")
		bakeoffCheck = flag.Bool("bakeoff-check", false, "with -run-bakeoff: compare instead of write; exit 1 when the committed table drifted (ns/op column ignored)")
	)
	flag.Parse()
	csvDir = *csvOut

	if *runBakeoffF {
		if err := runBakeoff(*bakeoffDoc, *bakeoffCheck); err != nil {
			fmt.Fprintf(os.Stderr, "funnelbench: bakeoff: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := runConfig{
		Changes:    *changes,
		History:    *history,
		Seed:       *seed,
		Bootstraps: *bootstraps,
	}

	ran := false
	run := func(enabled bool, name string, fn func(runConfig) error) {
		if !enabled && !*all {
			return
		}
		ran = true
		fmt.Printf("==== %s ====\n", name)
		if err := fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "funnelbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run(*fig2, "Fig. 2 — example level shift and ramp", runFig2)
	run(*table2, "Table 2 — computational cost per window", runTable2)
	run(*table1, "Table 1 — accuracy per KPI type", runTable1)
	run(*fig5, "Fig. 5 — detection-delay CCDF", runFig5)
	run(*table3, "Table 3 — deployment-week statistics", runTable3)
	run(*fig6, "Fig. 6 — Redis load-balancing case", runFig6)
	run(*fig7, "Fig. 7 — advertising incident case", runFig7)
	run(*ablate, "Ablations — scorer design choices", runAblations)
	run(*roc, "ROC — threshold sweeps", runROC)

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runConfig carries the sizing flags to the experiment runners.
type runConfig struct {
	Changes    int
	History    int
	Seed       int64
	Bootstraps int
}
