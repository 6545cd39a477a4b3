package funnel

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sst"
	"repro/internal/topo"
	"repro/internal/workload"
)

// accuracyCorpus is one of the two labelled corpora the accuracy tables
// are measured on; stride subsamples its cases under -short.
type accuracyCorpus struct {
	name   string
	sc     *workload.Scenario
	cfg    Config
	stride int
	// store ingests the corpus into a chunked store, once per test binary.
	store func(t *testing.T) *monitor.Store
}

// sources lists what the invariance tests assess a corpus from: the
// generated MapSource, and — except under -short, since ingesting a
// corpus (48 M measurements for the default one) is most of these tests'
// time — a chunked store.
func (c *accuracyCorpus) sources(t *testing.T) map[string]SeriesSource {
	out := map[string]SeriesSource{"map": c.sc.Source}
	if !testing.Short() {
		out["store"] = c.store(t)
	}
	return out
}

// accuracyCorpora generates, once per test binary, the pinned bake-off
// corpus (EXPERIMENTS.md) and the workload.DefaultParams() corpus of
// Table 1 / RESULTS.txt.
var accuracyCorpora = sync.OnceValues(func() ([]accuracyCorpus, error) {
	bake := workload.DefaultParams()
	bake.Changes, bake.HistoryDays, bake.Seed, bake.TrapFraction = 48, 3, 7, 0.25
	out := []accuracyCorpus{
		{name: "bakeoff", stride: 1},
		{name: "default", stride: 1},
	}
	if testing.Short() {
		out[0].stride, out[1].stride = 6, 24
	}
	for i, p := range []workload.Params{bake, workload.DefaultParams()} {
		sc, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		out[i].sc = sc
		var once sync.Once
		var st *monitor.Store
		out[i].store = func(t *testing.T) *monitor.Store {
			once.Do(func() { st = storeFromScenario(t, sc, 512) })
			return st
		}
		out[i].cfg = Config{
			ServerMetrics:   workload.ServerMetrics(),
			InstanceMetrics: workload.InstanceMetrics(),
			HistoryDays:     p.HistoryDays,
		}
	}
	return out, nil
})

// TestTelemetryInvariance: attaching a collector changes no Assessment
// field on either accuracy corpus, over the generated MapSource and over
// a chunked store — only Report.Trace may differ.
func TestTelemetryInvariance(t *testing.T) {
	corpora, err := accuracyCorpora()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpora {
		for name, src := range c.sources(t) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				oncfg := c.cfg
				oncfg.Obs = obs.NewCollector()
				on, err := NewAssessor(src, c.sc.Topo, oncfg)
				if err != nil {
					t.Fatal(err)
				}
				off, err := NewAssessor(src, c.sc.Topo, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				kpis, differ, verdicts := 0, 0, 0
				for i := 0; i < len(c.sc.Cases); i += c.stride {
					change := c.sc.Cases[i].Change
					ron, err := on.Assess(change)
					if err != nil {
						t.Fatal(err)
					}
					roff, err := off.Assess(change)
					if err != nil {
						t.Fatal(err)
					}
					if ron.Trace == nil || roff.Trace != nil {
						t.Fatalf("%s: trace presence: on %v, off %v", change.ID, ron.Trace != nil, roff.Trace != nil)
					}
					if ron.ChangeBin != roff.ChangeBin || len(ron.Assessments) != len(roff.Assessments) {
						t.Fatalf("%s: report shape differs with a collector", change.ID)
					}
					for k := range ron.Assessments {
						kpis++
						aon, aoff := ron.Assessments[k], roff.Assessments[k]
						d := assessmentDiff(aon, aoff)
						if d != "" {
							differ++
						}
						if verdictDiffers(aon, aoff) {
							verdicts++
							t.Errorf("%s %v, collector vs none: %s", change.ID, aon.Key, d)
						}
					}
				}
				if differ > 0 {
					t.Errorf("with a collector attached, %d of %d KPI assessments differ in some field, %d of them in the verdict or detection kind",
						differ, kpis, verdicts)
				}
				if n := oncfg.Obs.Stage(obs.StageSSTWindow).Count(); n < int64(kpis) {
					t.Errorf("sst_window count = %d over %d KPIs: the sweep went untimed", n, kpis)
				}
			})
		}
	}
}

// TestBoundFirstInvariance: telling the sweep the detection threshold
// (sst.SlidingScorer.Floor, set by NewAssessor) changes no Assessment
// field on either accuracy corpus, from either source, against an assessor
// whose scorer solves every window.
func TestBoundFirstInvariance(t *testing.T) {
	corpora, err := accuracyCorpora()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpora {
		for name, src := range c.sources(t) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				cfg := c.cfg
				cfg.Obs = obs.NewCollector()
				deployed, err := NewAssessor(src, c.sc.Topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Obs = obs.NewCollector()
				exact := newSolveAllAssessor(t, src, c.sc.Topo, cfg)
				kpis := 0
				for i := 0; i < len(c.sc.Cases); i += c.stride {
					change := c.sc.Cases[i].Change
					got, err := deployed.Assess(change)
					if err != nil {
						t.Fatal(err)
					}
					want, err := exact.Assess(change)
					if err != nil {
						t.Fatal(err)
					}
					if got.ChangeBin != want.ChangeBin || len(got.Assessments) != len(want.Assessments) {
						t.Fatalf("%s: report shape differs with the bound", change.ID)
					}
					for k := range got.Assessments {
						kpis++
						if !reflect.DeepEqual(got.Assessments[k], want.Assessments[k]) {
							t.Errorf("%s %v, bound-first vs solve-all: %s", change.ID, got.Assessments[k].Key,
								assessmentDiff(got.Assessments[k], want.Assessments[k]))
						}
					}
				}
				bounded, solved := cfg.Obs.Counter(obs.CtrWindowsBounded), cfg.Obs.Counter(obs.CtrWindowsSolved)
				if bounded != 0 || solved == 0 {
					t.Fatalf("solve-all assessor: %d bounded, %d solved", bounded, solved)
				}
				bounded, solved = deployed.obs.Counter(obs.CtrWindowsBounded), deployed.obs.Counter(obs.CtrWindowsSolved)
				if bounded < solved {
					t.Errorf("the bound answered %d of %d windows: expected most", bounded, bounded+solved)
				}
				t.Logf("%s/%s: %d KPIs, %d windows, %.1f%% answered by the bound", c.name, name, kpis, bounded+solved,
					100*float64(bounded)/float64(bounded+solved))
			})
		}
	}
}

// newSolveAllAssessor is NewAssessor with the scorer rebuilt at Floor 0:
// the deployed sweep, every window eigen-solved.
func newSolveAllAssessor(t *testing.T, src SeriesSource, tp *topo.Topology, cfg Config) *Assessor {
	t.Helper()
	a, err := NewAssessor(src, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.scorer = sst.NewSliding(sst.NewIKA(a.cfg.SST))
	a.det.Scorer = a.scorer
	return a
}

// verdictDiffers reports a difference an operator would read: the
// verdict itself or the kind of change detected.
func verdictDiffers(a, b Assessment) bool {
	return a.Verdict != b.Verdict || a.Detection.Kind != b.Detection.Kind
}

// perWindowIKA hides *sst.IKA's concrete type from sst.NewSliding, so
// the wrapper finds no incremental path and scores every position with
// the exact per-window ScoreAt.
type perWindowIKA struct{ *sst.IKA }

// TestDeployedMatchesPerWindowIKA: the deployed sweep is the paper's
// per-window IKA. On both accuracy corpora every verdict and detection
// kind agrees with an assessor scoring each window from scratch, and the
// only field that may differ at all is the detection's peak score, by the
// incremental Gram products' rounding (1e-9 relative).
func TestDeployedMatchesPerWindowIKA(t *testing.T) {
	corpora, err := accuracyCorpora()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			deployed, err := NewAssessor(c.sc.Source, c.sc.Topo, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := NewAssessor(c.sc.Source, c.sc.Topo, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			exact.scorer = sst.NewSliding(perWindowIKA{sst.NewIKA(exact.cfg.SST)})
			exact.det.Scorer = exact.scorer

			kpis, verdicts, peaks := 0, 0, 0
			for i := 0; i < len(c.sc.Cases); i += c.stride {
				change := c.sc.Cases[i].Change
				rd, err := deployed.Assess(change)
				if err != nil {
					t.Fatal(err)
				}
				re, err := exact.Assess(change)
				if err != nil {
					t.Fatal(err)
				}
				if rd.ChangeBin != re.ChangeBin || len(rd.Assessments) != len(re.Assessments) {
					t.Fatalf("%s: report shape differs from per-window IKA", change.ID)
				}
				for k := range rd.Assessments {
					kpis++
					ad, ae := rd.Assessments[k], re.Assessments[k]
					if verdictDiffers(ad, ae) {
						verdicts++
					}
					if pd, pe := ad.Detection.Peak, ae.Detection.Peak; pd != pe && math.Abs(pd-pe) <= 1e-9*math.Abs(pe) {
						peaks++
						ad.Detection.Peak = pe
					}
					if d := assessmentDiff(ad, ae); d != "" {
						t.Errorf("%s %v, deployed sweep vs per-window IKA: %s", change.ID, ad.Key, d)
					}
				}
			}
			t.Logf("%s: %d KPIs; deployed sweep vs per-window IKA: %d differ in verdict or detection kind, %d in the peak score's low digits",
				c.name, kpis, verdicts, peaks)
		})
	}
}
