package funnel

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/changelog"
	"repro/internal/obs"
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
