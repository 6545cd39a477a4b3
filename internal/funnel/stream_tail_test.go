package funnel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// tailRun drives one streamer through a program of writes in lock-step:
// after every step it waits for the score states to have consumed what
// the store holds, so it knows, when it writes a bin a second time,
// whether that bin lay inside some state's consumed prefix. Two changes
// cover the service, "a" on on-0 and on-1, "b" on on-0 alone and later;
// on-0 is the probe of both, and is written last in every bin.
type tailRun struct {
	t       *testing.T
	start   time.Time
	servers []string
	values  [][]float64 // [server][bin]
	store   *monitor.Store
	tp      *topo.Topology
	cfg     Config
	col     *obs.Collector
	sr      *Streamer
	cc      *countingCache

	changeMin int             // "a" deploys here, "b" tailLag bins later
	next      int             // next bin the in-order feed writes
	skip      map[[2]int]bool // (server, bin) the in-order feed leaves out
	pending   []changelog.Change
	states    int  // score states created so far
	dirtied   bool // some step must have invalidated a state
}

const (
	tailChangeMin = 1440 + 400
	tailLag       = 25 // "b" deploys this many bins after "a"
	tailSpan      = 64 // chunk span: every window crosses sealed chunks
)

func newTailRun(t *testing.T, seed int64, feedKeys, assessWorkers int) *tailRun {
	t.Helper()
	r := &tailRun{
		t:         t,
		start:     time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC),
		servers:   []string{"on-3", "on-2", "on-1", "on-0"},
		changeMin: tailChangeMin,
		skip:      make(map[[2]int]bool),
		col:       obs.NewCollector(),
	}
	total := r.changeMin + tailLag + 200
	rng := rand.New(rand.NewSource(seed))
	r.values = make([][]float64, len(r.servers))
	for i := range r.servers {
		r.values[i] = make([]float64, total)
		for bin := range r.values[i] {
			v := 58 + 0.6*rng.NormFloat64()
			if r.servers[i] == "on-0" && bin >= r.changeMin {
				v += 9
			}
			r.values[i][bin] = v
		}
	}
	r.tp = topo.NewTopology()
	for _, srv := range r.servers {
		r.tp.Deploy("kv.cache", srv)
	}
	r.store = monitor.NewStore(r.start, time.Minute)
	r.store.SetChunkSpan(tailSpan)
	r.cfg = Config{ServerMetrics: []string{"mem.util"}, HistoryDays: 1, AssessWorkers: assessWorkers, Obs: r.col}
	// No poll ticks: every wake-up of the drain loop is a feed mark, so
	// what a state read and when is a function of the program alone.
	sr, err := newStreamer(r.store, r.tp, r.cfg, StreamConfig{PollInterval: time.Hour}, feedKeys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sr.Close)
	r.sr = sr
	r.cc = &countingCache{inner: sr}
	sr.assessor.scores = r.cc
	return r
}

func (r *tailRun) key(srv int) topo.KPIKey {
	return topo.KPIKey{Scope: topo.ScopeServer, Entity: r.servers[srv], Metric: "mem.util"}
}

func (r *tailRun) at(bin int) time.Time { return r.start.Add(time.Duration(bin) * time.Minute) }

// server returns the index of a server by name.
func (r *tailRun) server(name string) int {
	for i, s := range r.servers {
		if s == name {
			return i
		}
	}
	r.t.Fatalf("no server %q", name)
	return -1
}

func (r *tailRun) change(id string) changelog.Change {
	c := changelog.Change{ID: id, Type: changelog.Config, Service: "kv.cache"}
	switch id {
	case "a":
		c.Servers, c.At = []string{"on-0", "on-1"}, r.at(r.changeMin)
	case "b":
		c.Servers, c.At = []string{"on-0"}, r.at(r.changeMin+tailLag)
	}
	return c
}

// readyBin is the bin of the probe whose arrival completes c's window.
func (r *tailRun) readyBin(c changelog.Change) int {
	return r.sr.assessor.fp.readyBin(int(c.At.Sub(r.start) / time.Minute))
}

func (r *tailRun) register(id string) {
	r.t.Helper()
	c := r.change(id)
	if err := r.sr.RegisterChange(c); err != nil {
		r.t.Fatal(err)
	}
	r.pending = append(r.pending, c)
	r.states += len(c.Servers)
	r.settle()
}

// eachState calls fn with every tracked score state, locked.
func (r *tailRun) eachState(fn func(ks *kpiStream)) {
	r.sr.mu.Lock()
	defer r.sr.mu.Unlock()
	for _, states := range r.sr.tracked {
		for _, ks := range states {
			ks.mu.Lock()
			fn(ks)
			ks.mu.Unlock()
		}
	}
}

// settle waits until every tracked state has consumed its window as far
// as the store holds it and the owed list is empty. It compares
// lengths, not values: a state that missed a rewrite still settles, and
// is caught by what the run asserts of the counters and the cache.
func (r *tailRun) settle() {
	r.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		idle := r.sr.owedLen() == 0
		r.eachState(func(ks *kpiStream) {
			if ks.invalid {
				return
			}
			n, _ := r.store.SeriesLen(ks.key)
			want := min(n, ks.absLo+ks.segLen) - ks.absLo
			if ks.low.Load() != lowNone || (want > 0 && len(ks.raw) != want) {
				idle = false
			}
		})
		if idle {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatal("the score states never caught up with the store")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// consumed reports whether bin of server srv lies inside the consumed
// prefix of some tracked state holding other bits than v there.
func (r *tailRun) consumed(srv, bin int, v float64) bool {
	sbin := int(r.at(bin).Sub(r.store.Start()) / time.Minute)
	hit := false
	r.eachState(func(ks *kpiStream) {
		if i := sbin - ks.absLo; ks.key == r.key(srv) && !ks.invalid && i >= 0 && i < len(ks.raw) &&
			math.Float64bits(ks.raw[i]) != math.Float64bits(v) {
			hit = true
		}
	})
	return hit
}

// write appends one measurement out of the feed's order. When it lands
// inside a consumed prefix some state must be invalidated for it, and
// the run waits for that; not seeing it is the failure a streamer that
// ignores the low-water produces.
func (r *tailRun) write(srv, bin int, v float64) {
	r.t.Helper()
	r.settle()
	inside := r.consumed(srv, bin, v)
	before := r.col.Counter(obs.CtrStreamInvalidations)
	r.store.Append(monitor.Measurement{Key: r.key(srv), T: r.at(bin), V: v})
	if inside {
		r.dirtied = true
		r.awaitInvalidation(before, fmt.Sprintf("a write inside the consumed prefix (%s bin %d)", r.servers[srv], bin))
	}
	r.settle()
}

func (r *tailRun) awaitInvalidation(before int64, what string) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.col.Counter(obs.CtrStreamInvalidations) == before {
		if time.Now().After(deadline) {
			r.t.Errorf("%s invalidated no score state", what)
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// prune drops the store's first bins; every tracked state rebases.
func (r *tailRun) prune(before int) {
	r.t.Helper()
	if !r.at(before).After(r.store.Start()) {
		return // already pruned that far
	}
	r.settle()
	tracked := 0
	r.eachState(func(*kpiStream) { tracked++ })
	inv := r.col.Counter(obs.CtrStreamInvalidations)
	r.store.Prune(r.at(before))
	if tracked > 0 {
		r.dirtied = true
		r.awaitInvalidation(inv, "a prune")
	}
	r.settle()
}

// feedTo writes bins [next, end) in order, one bin of every server at a
// time, and takes the report of every change whose window completes,
// comparing it to a fresh batch assessment of the same store.
func (r *tailRun) feedTo(end int) {
	r.t.Helper()
	for ; r.next < end; r.next++ {
		bin := r.next
		for i := range r.servers {
			if !r.skip[[2]int{i, bin}] {
				r.store.Append(monitor.Measurement{Key: r.key(i), T: r.at(bin), V: r.values[i][bin]})
			}
		}
		for len(r.pending) > 0 && r.readyBin(r.pending[0]) == bin {
			r.takeReport()
		}
		r.settle()
	}
}

func (r *tailRun) takeReport() {
	r.t.Helper()
	c := r.pending[0]
	r.pending = r.pending[1:]
	misses := r.cc.misses.Load()
	rep := waitReport(r.t, r.sr.Reports())
	if rep.Change.ID != c.ID {
		r.t.Fatalf("report for change %q, want %q", rep.Change.ID, c.ID)
	}
	bcfg := r.cfg
	bcfg.Obs = nil
	ba, err := NewAssessor(r.store, r.tp, bcfg)
	if err != nil {
		r.t.Fatal(err)
	}
	brep, err := ba.Assess(c)
	if err != nil {
		r.t.Fatal(err)
	}
	requireSame(r.t, rep, brep)
	// The assessment brings its change's states up to date before it
	// fetches, so the sweep is always served from the stream; a state
	// that never noticed a rewrite fails the cache's bit comparison here.
	if n := r.cc.misses.Load() - misses; n != 0 {
		r.t.Errorf("change %q: %d KPIs fell back to the batch sweep", c.ID, n)
	}
	// The report leaves before the change retires; wait for that, so the
	// next step sees the states it will really meet.
	want := 0
	for _, p := range r.pending {
		want += len(p.Servers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.sr.nTracked.Load() != int64(want) {
		if time.Now().After(deadline) {
			r.t.Fatalf("change %q never retired", c.ID)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// finish feeds the rest and checks what the counters must say.
func (r *tailRun) finish() (fullReads, tailReads int64) {
	r.t.Helper()
	r.feedTo(r.readyBin(r.change("b")) + 1)
	if len(r.pending) != 0 {
		r.t.Fatalf("%d changes never reported", len(r.pending))
	}
	inv := r.col.Counter(obs.CtrStreamInvalidations)
	if r.dirtied != (inv > 0) {
		r.t.Errorf("stream.invalidations = %d, but a write inside a consumed prefix or a prune happened: %v", inv, r.dirtied)
	}
	return r.col.Counter(obs.CtrStreamFullReads), r.col.Counter(obs.CtrStreamTailReads)
}

// tailStep is one out-of-order event of a program, run just before the
// in-order feed writes bin at (an offset from the first change).
type tailStep struct {
	at int
	do func(r *tailRun)
}

func (r *tailRun) run(steps []tailStep) (fullReads, tailReads int64) {
	r.t.Helper()
	for _, s := range steps {
		r.feedTo(r.changeMin + s.at)
		s.do(r)
	}
	return r.finish()
}

// The out-of-order events a program is made of. Offsets are chosen by
// the caller so that a state has re-amortized before its window ends.
var (
	registerA = func(r *tailRun) { r.register("a") }
	registerB = func(r *tailRun) { r.register("b") }
	// lateInside rewrites a bin of the probe back in a sealed chunk,
	// which the windows open at the time hold.
	lateInside = func(r *tailRun) { r.write(r.server("on-0"), r.next-tailSpan-10, 71) }
	// lateBefore rewrites a bin older than any window: a low-water under
	// every prefix, but nothing a state holds differs.
	lateBefore = func(r *tailRun) { r.write(r.server("on-0"), r.changeMin-600, 71) }
	// overwriteNewest rewrites the bin the feed wrote last.
	overwriteNewest = func(r *tailRun) { r.write(r.server("on-1"), r.next-1, 33) }
	// openGap makes the feed skip on-1's next four bins; fillGap writes
	// the skipped bins the feed is past, inside the consumed prefix.
	openGap = func(r *tailRun) {
		for b := r.next; b < r.next+4; b++ {
			r.skip[[2]int{r.server("on-1"), b}] = true
		}
	}
	fillGap = func(r *tailRun) {
		srv := r.server("on-1")
		for b := r.next - 40; b < r.next; b++ {
			if r.skip[[2]int{srv, b}] {
				delete(r.skip, [2]int{srv, b})
				r.write(srv, b, r.values[srv][b])
			}
		}
	}
	pruneOld = func(r *tailRun) { r.prune(300) }
)

// TestStreamerTailReadMatchesBatch: whatever order bins arrive in and
// whatever the feed could tell the streamer about them, every report
// equals a fresh batch assessment; a state is invalidated exactly when
// a write landed inside what it had consumed (or a prune rebased it);
// and when nothing arrives out of order, each state re-reads its window
// once, at birth, and reads only new bins ever after.
func TestStreamerTailReadMatchesBatch(t *testing.T) {
	const (
		lead  = -100 // before either window opens
		clean = 1    // nothing out of order: full reads = states created
		dirty = 2    // some event the streamer must fall back for
	)
	type program struct {
		name     string
		feedKeys int
		steps    []tailStep
		reads    int // clean, dirty, or 0: whatever the seed made of it
	}
	programs := []program{
		// The clean programs register once the window has opened: settle
		// cannot see a mark still in the feed for a bin before it, and
		// such a mark, drained after the state's first read, sends it
		// back for a second one.
		{name: "clean", reads: clean, steps: []tailStep{{-70, registerA}, {-40, registerB}}},
		{name: "clean-registered-mid-window", reads: clean, steps: []tailStep{{-20, registerA}, {40, registerB}}},
		{name: "late-inside-sealed", reads: dirty, steps: []tailStep{{lead, registerA}, {lead, registerB}, {30, lateInside}}},
		{name: "late-before-window", reads: dirty, steps: []tailStep{{lead, registerA}, {lead, registerB}, {30, lateBefore}}},
		{name: "overwrite-newest", reads: dirty, steps: []tailStep{{lead, registerA}, {lead, registerB}, {10, overwriteNewest}}},
		{name: "gap-then-backfill", reads: dirty, steps: []tailStep{{lead, registerA}, {lead, registerB}, {5, openGap}, {15, fillGap}}},
		{name: "prune-mid-window", reads: dirty, steps: []tailStep{{lead, registerA}, {lead, registerB}, {20, pruneOld}}},
		{name: "overflow", reads: dirty, feedKeys: 1, steps: []tailStep{{lead, registerA}, {lead, registerB}, {30, lateInside}}},
	}
	// Seeded random programs over the same events: registrations at
	// random bins, then up to four events after the first change, all
	// before the second one's window completes.
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		steps := []tailStep{{lead + rng.Intn(80), registerA}}
		steps = append(steps, tailStep{steps[0].at + rng.Intn(60), registerB})
		events := []func(*tailRun){lateInside, lateBefore, overwriteNewest, pruneOld}
		at := 0
		for n := rng.Intn(5); n > 0; n-- {
			at += 1 + rng.Intn(10)
			if e := rng.Intn(len(events) + 1); e < len(events) {
				steps = append(steps, tailStep{at, events[e]})
			} else {
				steps = append(steps, tailStep{at, openGap}, tailStep{at + 10, fillGap})
				at += 10
			}
		}
		// The second registration falls wherever its bin puts it.
		sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
		programs = append(programs, program{name: fmt.Sprintf("random-%d", seed), steps: steps})
	}

	// One scorer goroutine advances every state; the legs vary the
	// assessor's own fan-out, which reads the cache concurrently.
	for _, p := range programs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", p.name, workers), func(t *testing.T) {
				r := newTailRun(t, 91, p.feedKeys, workers)
				// History is in the store before anything streams.
				for bin := 0; bin < r.changeMin+lead; bin++ {
					for i := range r.servers {
						r.store.Append(monitor.Measurement{Key: r.key(i), T: r.at(bin), V: r.values[i][bin]})
					}
				}
				r.next = r.changeMin + lead
				full, tail := r.run(p.steps)
				if tail == 0 {
					t.Error("no advance read only its new bins")
				}
				if p.reads == clean && full != int64(r.states) {
					t.Errorf("%d full reads for %d score states: an in-order feed re-read a window", full, r.states)
				}
				if p.reads == dirty && full <= int64(r.states) {
					t.Errorf("%d full reads for %d score states: no fallback was taken", full, r.states)
				}
			})
		}
	}
}
