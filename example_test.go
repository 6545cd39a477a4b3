package funnel_test

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	funnel "repro"
)

// ExampleNewIKASST scores a KPI series with the deployed scorer and
// prints where the change evidence peaks.
func ExampleNewIKASST() {
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 200)
	for i := range series {
		series[i] = 40 + 0.5*rng.NormFloat64()
		if i >= 100 {
			series[i] += 10
		}
	}
	scorer := funnel.NewIKASST(funnel.SSTConfig{Normalize: true, RobustFilter: true})
	scores := funnel.ScoreSeries(scorer, series)
	best, bestAt := 0.0, 0
	for i, v := range scores {
		if !math.IsNaN(v) && v > best {
			best, bestAt = v, i
		}
	}
	// The scorer peaks where its future window first straddles the
	// change, slightly before the change bin itself.
	fmt.Printf("peak within the straddle window: %v\n", bestAt >= 90 && bestAt <= 110)
	// Output:
	// peak within the straddle window: true
}

// ExampleNewDetector applies the 7-minute persistence rule.
func ExampleNewDetector() {
	rng := rand.New(rand.NewSource(2))
	series := make([]float64, 300)
	for i := range series {
		series[i] = 70 + 0.4*rng.NormFloat64()
		if i >= 150 {
			series[i] -= 12
		}
	}
	scorer := funnel.NewIKASST(funnel.SSTConfig{Normalize: true, RobustFilter: true})
	detector := funnel.NewDetector(scorer, 1.6)
	for _, d := range detector.Detect(series) {
		fmt.Println(d.Kind)
	}
	// Output:
	// level-shift-down
}

// ExampleEstimateDiD shows the difference-in-differences decision on
// pooled group samples.
func ExampleEstimateDiD() {
	treatedPre := []float64{10, 11, 10, 9, 10}
	treatedPost := []float64{16, 15, 17, 16, 16}
	controlPre := []float64{30, 31, 30, 29, 30}
	controlPost := []float64{31, 30, 31, 30, 31}
	res, err := funnel.EstimateDiD(treatedPre, treatedPost, controlPre, controlPost)
	if err != nil {
		panic(err)
	}
	fmt.Printf("α = %.1f, causal at 1.0: %v\n", res.Alpha, res.Causal(1.0))
	// Output:
	// α = 5.4, causal at 1.0: true
}

// ExampleNewTopology derives an impact set the way §3.1 does.
func ExampleNewTopology() {
	tp := funnel.NewTopology()
	for _, srv := range []string{"s1", "s2", "s3", "s4"} {
		tp.Deploy("shop.cart", srv)
	}
	set, err := tp.IdentifyImpactSet("shop.cart", []string{"s1"})
	if err != nil {
		panic(err)
	}
	fmt.Printf("dark=%v treated=%v control=%v\n", set.Dark(), set.TServers, set.CServers)
	// Output:
	// dark=true treated=[s1] control=[s2 s3 s4]
}

// ExampleNewStore shows the monitoring substrate's binning.
func ExampleNewStore() {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := funnel.NewStore(start, time.Minute)
	key := funnel.KPIKey{Scope: funnel.ScopeServer, Entity: "s1", Metric: "mem.util"}
	store.Append(funnel.Measurement{Key: key, T: start, V: 55})
	store.Append(funnel.Measurement{Key: key, T: start.Add(2 * time.Minute), V: 57})
	s, _ := store.Series(key)
	fmt.Printf("%d bins, gap at 1: %v\n", s.Len(), s.HasGaps())
	// Output:
	// 3 bins, gap at 1: true
}

// ExampleDetectors lists the detector arena's roster.
func ExampleDetectors() {
	var names []string
	for _, d := range funnel.Detectors() {
		names = append(names, d.Name)
	}
	fmt.Println(names)
	// Output:
	// [cusum edivisive mrls sst sst-classic sst-robust wow]
}

// ExampleNewAssessorWith swaps both pipeline stages: the arena's
// E-divisive detector and the Bayesian structural time-series cause
// stage run behind the deployed impact set, persistence rule and
// attribution rule.
func ExampleNewAssessorWith() {
	p := funnel.DefaultScenarioParams()
	p.Changes, p.HistoryDays = 2, 2
	sc, err := funnel.GenerateScenario(p)
	if err != nil {
		panic(err)
	}
	ediv, err := funnel.LookupDetector("edivisive")
	if err != nil {
		panic(err)
	}
	cfg := funnel.Config{ServerMetrics: []string{"mem.util"}, HistoryDays: p.HistoryDays}
	assessor, err := funnel.NewAssessorWith(sc.Source, sc.Topo, cfg,
		funnel.Stages{Scorer: ediv.New(), Estimate: funnel.EstimateBSTS})
	if err != nil {
		panic(err)
	}
	for _, cs := range sc.Cases {
		rep, err := assessor.Assess(cs.Change)
		if err != nil {
			panic(err)
		}
		for _, a := range rep.Assessments {
			fmt.Println(cs.Change.ID, a.Key, a.Verdict)
		}
	}
	// Output:
	// chg000 server/grp000-srv0/mem.util changed-by-software
	// chg001 server/grp001-srv0/mem.util no-change
}
