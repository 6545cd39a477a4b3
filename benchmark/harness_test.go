package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/topo"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3.7, 3.5, 3.9, 3.6, 3.8, 4.4, 3.5, 3.6, 3.7, 3.6}, [3]float64{3.575, 3.65, 3.825}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	base := time.Unix(0, 0)
	mk := func(ops int, secs float64, lat ...float64) *round {
		return &round{start: base, end: base.Add(time.Duration(secs * float64(time.Second))), ops: ops, lat: lat}
	}
	rs := []*round{mk(10, 1, 1, 2, 3), mk(30, 1, 4, 5), mk(20, 2), mk(1000, 1, 6)}
	got, n := medianOfRounds(rs, func(r *round) float64 { return float64(r.ops) / r.seconds() })
	if !near(got, 20) || n != 4 { // 10, 30, 10, 1000 → median of {10,10,30,1000}
		t.Errorf("median throughput = %v over %d rounds, want 20 over 4", got, n)
	}
	// A round with no samples yields NaN and is left out.
	got, n = medianOfRounds(rs, func(r *round) float64 { return percentile(r.lat, 0.5) })
	if !near(got, 4.5) || n != 3 {
		t.Errorf("median of round p50s = %v over %d rounds, want 4.5 over 3", got, n)
	}
	if p := pooled(rs, latOf); len(p) != 6 {
		t.Errorf("pooled %d samples, want 6", len(p))
	}
	// busy overrides the round's own span.
	r := mk(4, 10)
	r.busy, r.busyCPU, r.cpu = 2*time.Second, time.Second, 9*time.Second
	if r.seconds() != 2 || r.cpuTime() != time.Second {
		t.Errorf("busy round reports %v s, %v cpu", r.seconds(), r.cpuTime())
	}
}

func TestRoundClockCutsRounds(t *testing.T) {
	const want = 4
	tr := newTracer()
	e := &env{tr: tr, yard: testYard(), opt: options{trace: true}}
	rc := newRoundClock(e, want*roundWidth)
	for !rc.expired() {
		if tr.enabled != rc.cur.traced {
			t.Fatalf("tracer enabled=%v in a round marked traced=%v", tr.enabled, rc.cur.traced)
		}
		time.Sleep(5 * time.Millisecond)
		rc.cur.lat = append(rc.cur.lat, 1)
		rc.op()
	}
	rs, factor := rc.finish()
	if len(rc.readings) != len(rs)+1 || factor <= 0 {
		t.Errorf("%d yardstick readings around %d rounds, host-speed factor %v", len(rc.readings), len(rs), factor)
	}
	if tr.enabled {
		t.Error("span recording still on after finish")
	}
	if len(rs) < want-1 || len(rs) > want+1 { // the last round may be a stub
		t.Fatalf("%d rounds closed, want %d or %d", len(rs), want, want+1)
	}
	for i, r := range rs {
		if r.ops == 0 || r.ops != len(r.lat) || (i < want-1 && r.end.Sub(r.start) < roundWidth) {
			t.Errorf("round %d: %d ops, %d samples, %.3f s", i, r.ops, len(r.lat), r.seconds())
		}
		if r.traced != (i%2 == 1) {
			t.Errorf("round %d traced=%v: spans belong in every other round", i, r.traced)
		}
	}
	// An untraced run never switches recording on.
	e.opt.trace = false
	rc = newRoundClock(e, 10*time.Millisecond)
	rc.op()
	if tr.enabled || rc.cur.traced {
		t.Error("untraced run recorded spans")
	}
	rc.finish()
}

// The end-to-end time metrics are taken over the fastest quarter of the
// full-width rounds.
func TestQuietRounds(t *testing.T) {
	t0 := time.Now()
	mk := func(ops int, width time.Duration) *round {
		return &round{start: t0, end: t0.Add(width), ops: ops}
	}
	var rs []*round
	for _, ops := range []int{10, 40, 20, 30, 35, 5, 25, 15} {
		rs = append(rs, mk(ops, roundWidth))
	}
	rs = append(rs, mk(9, roundWidth/10)) // a stub: the fastest by rate, left out
	rs = append(rs, mk(0, roundWidth))    // nothing finished in it
	q := quietRounds(rs)
	if len(q) != 2 || q[0].ops != 40 || q[1].ops != 35 {
		t.Fatalf("quiet rounds = %d rounds led by %d ops, want the two with 40 and 35", len(q), q[0].ops)
	}
	if q := quietRounds(rs[:1]); len(q) != 1 {
		t.Fatalf("one round in, %d quiet rounds out", len(q))
	}
	// Only stubs: better a stub than nothing.
	if q := quietRounds(rs[8:9]); len(q) != 1 || q[0].ops != 9 {
		t.Fatalf("a lone stub gave %d quiet rounds", len(q))
	}
}

// A region's host-speed factor is the quiet quartile of its yardstick
// readings, and a reading is a positive multiple of the nominal host.
func TestHostFactor(t *testing.T) {
	if f := hostFactor([]float64{1.2, 1.0, 3.0, 1.1, 1.4}); !near(f, 1.1) {
		t.Errorf("host-speed factor of five readings = %v, want their first quartile 1.1", f)
	}
	if f := hostFactor(nil); f != 1 {
		t.Errorf("host-speed factor of no readings = %v, want 1", f)
	}
	if r := testYard().read(); !(r > 0.1 && r < 100) {
		t.Errorf("yardstick reading %v is not a plausible multiple of the nominal host", r)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{Name: "bin", Start: ms(0), End: ms(100), Parent: -1},          // 0
		{Name: "publish", Start: ms(10), End: ms(30), Parent: 0},       // 1: nested
		{Name: "wait", Start: ms(40), End: ms(70), Parent: 0},          // 2
		{Name: "wait", Start: ms(60), End: ms(90), Parent: 0},          // 3: overlaps 2 by 10 ms
		{Name: "syscall", Start: ms(15), End: ms(20), Parent: 1},       // 4: grandchild
		{Name: "late", Start: ms(95), End: ms(120), Parent: 0},         // 5: sticks out of its parent
		{Name: "open", Start: ms(200), End: ms(199), Parent: -1},       // 6: never closed
		{Name: "bin", Start: ms(300), End: ms(310), Parent: -1, Op: 1}, // 7: no children
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 − (20 + 50 union of the two waits + 5 of "late" inside) + 10
		"bin":     25*time.Millisecond + 10*time.Millisecond,
		"publish": 15 * time.Millisecond,
		"wait":    60 * time.Millisecond,
		"syscall": 5 * time.Millisecond,
		"late":    25 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was given a self time")
	}
	if d := spanDurations(spans, "wait"); len(d) != 2 || !near(d[0], 30) {
		t.Errorf("wait durations = %v", d)
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := newTracer()
	h := tr.begin("x", -1, 0)
	tr.end(h)
	if h != -1 || len(tr.spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans (handle %d)", len(tr.spans), h)
	}
	tr.enabled = true
	h = tr.begin("x", -1, 7)
	tr.end(h)
	if len(tr.spans) != 1 || tr.spans[0].End < tr.spans[0].Start || tr.spans[0].Op != 7 {
		t.Fatalf("enabled tracer recorded %+v", tr.spans)
	}
}

func binDigest(f *fleet, bin int) uint64 {
	var vals []float64
	for _, m := range f.fillBin(nil, bin) {
		vals = append(vals, m.V, float64(m.T.Unix()))
	}
	return digest(0, vals)
}

func TestGeneratorDeterminism(t *testing.T) {
	a, sched := rolloutFleet(7, 8, 10, 200)
	b, _ := rolloutFleet(7, 8, 10, 200)
	c, _ := rolloutFleet(8, 8, 10, 200)
	for _, bin := range []int{0, 199, 205, 900} {
		if binDigest(a, bin) != binDigest(b, bin) {
			t.Errorf("bin %d: same seed, different batch", bin)
		}
		if binDigest(a, bin) == binDigest(c, bin) {
			t.Errorf("bin %d: different seeds, same batch", bin)
		}
	}
	if a.sentinel != a.keys[len(a.keys)-1] || len(a.keys) != 8*6*2+10*2 {
		t.Errorf("fleet has %d keys, sentinel %v", len(a.keys), a.sentinel)
	}
	// An even service's treated series steps up at its change and back
	// down at the next; an odd service's never moves.
	series := func(svc int) int {
		for i := range a.keys {
			if a.service[i] == svc && a.treated[i] {
				return i
			}
		}
		t.Fatalf("no treated series for service %d", svc)
		return -1
	}
	mean := func(s, from int) float64 {
		var sum float64
		for b := from; b < from+20; b++ {
			sum += a.value(s, b)
		}
		return sum / 20
	}
	cb := sched.changeBin(2)
	if up := mean(series(2), cb) - mean(series(2), cb-20); math.Abs(up-rolloutShift) > 1 {
		t.Errorf("service 2 shifted by %.2f at its change, want about %v", up, rolloutShift)
	}
	next := sched.changeBin(2 + sched.services)
	if down := mean(series(2), next) - mean(series(2), next-20); math.Abs(down+rolloutShift) > 1 {
		t.Errorf("service 2 shifted by %.2f at its second change, want about %v", down, -rolloutShift)
	}
	cb = sched.changeBin(3)
	if d := mean(series(3), cb) - mean(series(3), cb-20); math.Abs(d) > 1 {
		t.Errorf("odd service 3 moved by %.2f at its change", d)
	}
	if k, ok := sched.changeAt(sched.changeBin(5)); !ok || k != 5 {
		t.Errorf("changeAt(changeBin(5)) = %d, %v", k, ok)
	}
	if _, ok := sched.changeAt(sched.changeBin(5) + 1); ok {
		t.Error("a change between two stagger points")
	}
}

func TestUnitNoiseMoments(t *testing.T) {
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := unitNoise(3, i%97, i)
		sum += v
		sq += v * v
	}
	mean, variance := sum/n, sq/n-(sum/n)*(sum/n)
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Errorf("noise mean %.4f variance %.4f, want 0 and 1", mean, variance)
	}
}

// The harness stamps the clock just before the bin it computes from
// public configuration; a live Streamer must stay silent up to the bin
// before and report on that bin.
func TestCompletingBinFormula(t *testing.T) {
	f, sched := rolloutFleet(1, 2, 0, 200)
	w := &rolloutStream{f: f, sched: sched, cfg: funnel.Config{ServerMetrics: rolloutMetrics, HistoryDays: 1}}
	store := monitor.NewStoreShards(epoch, time.Minute, monitor.StoreShards)
	tp := topo.NewTopology()
	for _, s := range f.svc {
		for _, srv := range s.servers {
			tp.Deploy(s.name, srv)
		}
	}
	sr, err := funnel.NewStreamer(store, tp, w.cfg, funnel.StreamConfig{PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	c := w.change(0)
	if err := sr.RegisterChange(changelog.Change{ID: c.ID, Type: c.Type, Service: c.Service, Servers: c.Servers, At: c.At}); err != nil {
		t.Fatal(err)
	}
	completing := sched.changeBin(0) + w.readySpan()
	if k, ok := w.completes(completing); !ok || k != 0 {
		t.Fatalf("completes(%d) = %d, %v", completing, k, ok)
	}
	var batch []monitor.Measurement
	for bin := 0; bin < completing; bin++ {
		batch = f.fillBin(batch[:0], bin)
		store.AppendBatch(batch)
	}
	select {
	case rep := <-sr.Reports():
		t.Fatalf("report for %s after bin %d, before the completing bin %d", rep.Change.ID, completing-1, completing)
	case <-time.After(150 * time.Millisecond):
	}
	store.AppendBatch(f.fillBin(batch[:0], completing))
	select {
	case rep := <-sr.Reports():
		if rep.Change.ID != c.ID || len(rep.Flagged()) == 0 {
			t.Fatalf("report %s flagged %d KPIs, want %s with its shifted KPIs flagged", rep.Change.ID, len(rep.Flagged()), c.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no report after the completing bin %d", completing)
	}
	select {
	case rep := <-sr.Reports():
		t.Fatalf("second report for %s", rep.Change.ID)
	case <-time.After(50 * time.Millisecond):
	}
}
