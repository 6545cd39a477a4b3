package funnel

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/changelog"
	"repro/internal/obs"
	"repro/internal/topo"
)

// TestAssessWorkersMatchSerial is the tentpole determinism guarantee:
// fanning one impact set over a worker pool must produce a report
// deeply identical to the serial path — same assessment order, same
// verdicts, estimates and errors, same change bin.
func TestAssessWorkersMatchSerial(t *testing.T) {
	sc := smallScenario(t, 2)
	serial := newAssessor(t, sc, func(c *Config) { c.AssessWorkers = 1 })
	for _, workers := range []int{0, 2, 8} {
		par := newAssessor(t, sc, func(c *Config) { c.AssessWorkers = workers })
		for i, cs := range sc.Cases {
			want, err := serial.Assess(cs.Change)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Assess(cs.Change)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d case %d: parallel report differs from serial", workers, i)
			}
		}
	}
}

// With a collector configured, the merged trace must list KPIs in
// impact-set order — exactly the order the serial path appends them —
// and carry the same verdict evidence.
func TestAssessWorkersTraceOrderDeterministic(t *testing.T) {
	sc := smallScenario(t, 2)
	mk := func(workers int) (*Assessor, *obs.Collector) {
		col := obs.NewCollector()
		a := newAssessor(t, sc, func(c *Config) {
			c.AssessWorkers = workers
			c.Obs = col
		})
		return a, col
	}
	serial, _ := mk(1)
	par, _ := mk(8)
	for i, cs := range sc.Cases {
		want, err := serial.Assess(cs.Change)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Assess(cs.Change)
		if err != nil {
			t.Fatal(err)
		}
		if want.Trace == nil || got.Trace == nil {
			t.Fatal("collector configured but no trace attached")
		}
		if len(want.Trace.KPIs) != len(got.Trace.KPIs) {
			t.Fatalf("case %d: trace sizes differ", i)
		}
		for j := range want.Trace.KPIs {
			w, g := want.Trace.KPIs[j], got.Trace.KPIs[j]
			if w.Key != g.Key || w.Verdict != g.Verdict || w.Err != g.Err {
				t.Fatalf("case %d trace[%d]: %s/%s/%q vs %s/%s/%q",
					i, j, w.Key, w.Verdict, w.Err, g.Key, g.Verdict, g.Err)
			}
		}
	}
}

// Many goroutines assess the same overlapping impact sets through one
// shared assessor. Run under -race this exercises the pooled SST
// workspaces and the memoized control averages; every concurrent report
// must still equal the serial reference.
func TestAssessConcurrentMatchesSerial(t *testing.T) {
	sc := smallScenario(t, 2)
	serial := newAssessor(t, sc, func(c *Config) { c.AssessWorkers = 1 })
	shared := newAssessor(t, sc, func(c *Config) { c.AssessWorkers = 4 })
	want := make([]*Report, len(sc.Cases))
	for i, cs := range sc.Cases {
		rep, err := serial.Assess(cs.Change)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, cs := range sc.Cases {
				got, err := shared.Assess(cs.Change)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(want[i], got) {
					errs <- errors.New("concurrent report differs from serial reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAssessAllMatchesSequential(t *testing.T) {
	sc := smallScenario(t, 4)
	a := newAssessor(t, sc, nil)

	changes := make([]changelog.Change, 0, len(sc.Cases))
	for _, cs := range sc.Cases {
		changes = append(changes, cs.Change)
	}

	par := a.AssessAll(changes, 4)
	if len(par) != len(changes) {
		t.Fatalf("results = %d", len(par))
	}
	for i, r := range par {
		if r.Err != nil {
			t.Fatalf("change %d: %v", i, r.Err)
		}
		if r.Change.ID != changes[i].ID {
			t.Fatalf("order broken at %d", i)
		}
		seq, err := a.Assess(changes[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flaggedKeys(seq), flaggedKeys(r.Report)) {
			t.Fatalf("change %d: parallel and sequential disagree", i)
		}
	}
}

func flaggedKeys(r *Report) []string {
	var out []string
	for _, a := range r.Flagged() {
		out = append(out, a.Key.String())
	}
	return out
}

func TestAssessAllEmpty(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	if got := a.AssessAll(nil, 4); len(got) != 0 {
		t.Fatalf("empty input gave %d results", len(got))
	}
}

func TestAssessAllPropagatesErrors(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	bad := sc.Cases[0].Change
	bad.Service = "nope"
	res := a.AssessAll([]changelog.Change{bad, sc.Cases[1].Change}, 2)
	if res[0].Err == nil {
		t.Fatal("bad change should error")
	}
	if res[1].Err != nil {
		t.Fatalf("good change errored: %v", res[1].Err)
	}
}

func TestFlaggedAcross(t *testing.T) {
	sc := smallScenario(t, 2)
	a := newAssessor(t, sc, nil)
	var changes []changelog.Change
	for _, cs := range sc.Cases {
		changes = append(changes, cs.Change)
	}
	res := a.AssessAll(changes, 2)
	all := FlaggedAcross(res)
	if len(all) == 0 {
		t.Fatal("no flagged assessments across the batch")
	}
	// Expected order: results sorted by change ID, and within each
	// change its flagged keys sorted.
	byID := append([]AssessResult(nil), res...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].Change.ID < byID[j].Change.ID })
	var want []string
	for _, r := range byID {
		keys := flaggedKeys(r.Report)
		sort.Strings(keys)
		want = append(want, keys...)
	}
	var got []string
	for _, a := range all {
		got = append(got, a.Key.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FlaggedAcross order:\n got %v\nwant %v", got, want)
	}
}

// Assessments from different changes must stay grouped by change even
// when their KPI keys interleave. The old implementation sorted by key
// alone, shuffling one change's KPIs into another's.
func TestFlaggedAcrossGroupsByChange(t *testing.T) {
	key := func(e string) topo.KPIKey {
		return topo.KPIKey{Scope: topo.ScopeServer, Entity: e, Metric: "m"}
	}
	mk := func(id string, entities ...string) AssessResult {
		rep := &Report{Change: changelog.Change{ID: id}}
		for _, e := range entities {
			rep.Assessments = append(rep.Assessments,
				Assessment{Key: key(e), Verdict: ChangedBySoftware})
		}
		// A non-flagged assessment that must be filtered out.
		rep.Assessments = append(rep.Assessments,
			Assessment{Key: key("quiet"), Verdict: NoChange})
		return AssessResult{Change: rep.Change, Report: rep}
	}
	res := []AssessResult{
		mk("chg-2", "srv-b", "srv-a"), // overlapping keys, listed out of order
		{Change: changelog.Change{ID: "broken"}, Err: errors.New("boom")},
		mk("chg-1", "srv-c", "srv-a"),
		{Change: changelog.Change{ID: "no-report"}},
	}
	all := FlaggedAcross(res)
	var got []string
	for _, a := range all {
		got = append(got, a.Key.Entity)
	}
	want := []string{
		"srv-a", "srv-c", // chg-1, keys sorted within the change
		"srv-a", "srv-b", // chg-2
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}
