package eval

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/bsts"
	"repro/internal/funnel"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestBakeoffTableGolden regenerates a miniature bake-off table from a
// pinned corpus and compares it byte for byte against the committed
// golden (refresh with `go test ./internal/eval -run Bakeoff -update`).
// It is the same determinism contract CI enforces on EXPERIMENTS.md at
// full scale: every cell except ns/op must reproduce exactly.
func TestBakeoffTableGolden(t *testing.T) {
	p := workload.DefaultParams()
	p.Changes = 6
	p.HistoryDays = 1
	p.Seed = 11
	p.TrapFraction = 0.5
	sc, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	mrls := baselines.NewMRLS()
	mthr, err := CalibrateOnScenario(sc, mrls, 8, 0.999, 1.1,
		workload.MetricMemUtil, workload.MetricQueueLen)
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{
		&FunnelMethod{Label: "sst/did", Config: funnel.Config{HistoryDays: p.HistoryDays}},
		&FunnelMethod{Label: "sst/bsts", Config: funnel.Config{HistoryDays: p.HistoryDays},
			Stages: funnel.Stages{Estimate: bsts.Estimate}},
		&BaselineMethod{Label: "mrls", Scorer: mrls, Threshold: mthr, Persistence: 1},
	}
	results, err := Run(sc, methods, Options{NegativeWeight: 86})
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"did", "bsts", "—"}
	rows := make([]BakeoffRow, len(results))
	for i, res := range results {
		rows[i] = BakeoffRow{
			Detector:        strings.SplitN(res.Method, "/", 2)[0],
			Stage:           stages[i],
			Overall:         res.Overall(),
			MedianDelayBins: res.DelayQuantile(0.5),
			// A fixed stand-in: the golden pins the deterministic cells,
			// and MaskBakeoffVolatile must hide this column anyway.
			PerWindow: 1234 * time.Nanosecond,
		}
	}
	got := MaskBakeoffVolatile(RenderBakeoff(rows))

	path := filepath.Join("testdata", "bakeoff_table.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if got != string(want) {
		t.Fatalf("bake-off table drifted from the golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestBakeoffSplice pins the marker machinery: splice replaces only the
// marked region, extract returns it, and both fail loudly on documents
// without markers.
func TestBakeoffSplice(t *testing.T) {
	doc := "prose above\n" + BakeoffBegin + "\nold table\n" + BakeoffEnd + "\nprose below\n"
	out, err := SpliceBakeoff(doc, "| new |\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "prose above") || !strings.Contains(out, "prose below") {
		t.Fatalf("splice destroyed surrounding prose:\n%s", out)
	}
	if strings.Contains(out, "old table") || !strings.Contains(out, "| new |") {
		t.Fatalf("splice did not replace the marked region:\n%s", out)
	}
	inner, err := ExtractBakeoff(out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(inner) != "| new |" {
		t.Fatalf("extract returned %q", inner)
	}
	if _, err := SpliceBakeoff("no markers here", "x"); err == nil {
		t.Fatal("splice on a marker-less document must error")
	}
	if _, err := ExtractBakeoff(BakeoffEnd + BakeoffBegin); err == nil {
		t.Fatal("reversed markers must error")
	}
}

// TestBakeoffMask pins that masking blanks exactly the ns/op cells:
// two tables differing only in timings must compare equal, two tables
// differing in an accuracy cell must not.
func TestBakeoffMask(t *testing.T) {
	mk := func(ns int64, prec string) string {
		return RenderBakeoff([]BakeoffRow{{
			Detector: "sst", Stage: "did",
			Overall:         Confusion{TP: 1, TN: 1},
			MedianDelayBins: 5,
			PerWindow:       time.Duration(ns),
		}, {
			Detector: "mrls", Stage: prec,
			Overall:         Confusion{TP: 1, FP: 1},
			MedianDelayBins: 1,
			PerWindow:       time.Duration(2 * ns),
		}})
	}
	if MaskBakeoffVolatile(mk(100, "—")) != MaskBakeoffVolatile(mk(999, "—")) {
		t.Fatal("timing-only difference survived the mask")
	}
	if MaskBakeoffVolatile(mk(100, "—")) == MaskBakeoffVolatile(mk(100, "x")) {
		t.Fatal("a non-timing difference was masked away")
	}
}
