package funnel

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/topo"
)

// TestStreamerBurstBeyondOldQueue registers enough changes over one
// service that every bin owes more score states than the bounded
// advance queue the Streamer once had (1 024 entries, which shed the
// excess). The owed list takes them all: nothing is shed, its length
// never exceeds the states tracked, every KPI is served from the
// stream's cache, and every report equals the batch assessor's over the
// same store.
func TestStreamerBurstBeyondOldQueue(t *testing.T) {
	const (
		nServers  = 40
		nTreated  = 36
		nChanges  = 8
		oldQueue  = 1024
		changeMin = 1440 + 200
	)
	metrics := []string{"m0", "m1", "m2", "m3"}
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	servers := make([]string, nServers)
	tp := topo.NewTopology()
	for i := range servers {
		servers[i] = fmt.Sprintf("srv-%02d", i)
		tp.Deploy("kv.cache", servers[i])
	}
	changes := make([]changelog.Change, nChanges)
	for i := range changes {
		treated := make([]string, nTreated)
		for j := range treated {
			treated[j] = servers[(i*5+j)%nServers]
		}
		changes[i] = changelog.Change{
			ID: fmt.Sprintf("burst-%d", i), Type: changelog.Config, Service: "kv.cache",
			Servers: treated, At: start.Add(time.Duration(changeMin+3*i) * time.Minute),
		}
	}
	if states := nChanges * nTreated * len(metrics); states <= oldQueue {
		t.Fatalf("%d score states do not outgrow the old queue", states)
	}

	cfg := Config{ServerMetrics: metrics, HistoryDays: 1, Obs: obs.NewCollector()}
	store := monitor.NewStore(start, time.Minute)
	sr, err := NewStreamer(store, tp, cfg, StreamConfig{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	cc := &countingCache{inner: sr}
	sr.assessor.scores = cc
	rcfg := sr.Config()
	readyBin := func(c changelog.Change) int {
		return int(c.At.Sub(start)/time.Minute) + rcfg.WindowBins + rcfg.SST.FutureSpan()
	}
	firstReady, lastReady := readyBin(changes[0]), readyBin(changes[nChanges-1])

	// One bin of every key in one batch, as an ingest frame lands; a
	// level shift on srv-00's m0 from the first change on gives the
	// reports something to flag.
	rng := rand.New(rand.NewSource(41))
	batch := make([]monitor.Measurement, 0, nServers*len(metrics))
	feed := func(from, to int) {
		for bin := from; bin < to; bin++ {
			ts := start.Add(time.Duration(bin) * time.Minute)
			batch = batch[:0]
			for i, srv := range servers {
				for j, m := range metrics {
					v := 40 + 10*float64(j) + 0.6*rng.NormFloat64()
					if i == 0 && j == 0 && bin >= changeMin {
						v += 9
					}
					batch = append(batch, monitor.Measurement{
						Key: topo.KPIKey{Scope: topo.ScopeServer, Entity: srv, Metric: m}, T: ts, V: v,
					})
				}
			}
			store.AppendBatch(batch)
		}
	}

	// History first; the windows open after every change is registered.
	lead := rcfg.WindowBins + rcfg.SST.PastSpan()
	feed(0, changeMin-lead-10)
	for _, c := range changes {
		if err := sr.RegisterChange(c); err != nil {
			t.Fatal(err)
		}
	}
	tracked := sr.nTracked.Load()
	if tracked != int64(nChanges*nTreated*len(metrics)) {
		t.Fatalf("tracked = %d score states, want %d", tracked, nChanges*nTreated*len(metrics))
	}

	// Until the first change is ready no state retires, so the owed
	// list can be held to the tracked count at every sample.
	var (
		stop     atomic.Bool
		peak     atomic.Int64
		over     atomic.Int64
		sampling sync.WaitGroup
	)
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		for !stop.Load() {
			n := sr.owedLen()
			if n > tracked {
				over.Store(n)
			}
			if n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	feed(changeMin-lead-10, firstReady)
	stop.Store(true)
	sampling.Wait()
	if n := over.Load(); n != 0 {
		t.Errorf("stream.queue_depth read %d, above the %d states tracked", n, tracked)
	}
	t.Logf("%d score states tracked; owed list peaked at %d in the samples", tracked, peak.Load())

	feed(firstReady, lastReady+1)
	got := make(map[string]*Report, nChanges)
	for range changes {
		rep := waitReport(t, sr.Reports())
		got[rep.Change.ID] = rep
	}

	bcfg := cfg
	bcfg.Obs = nil
	ba, err := NewAssessor(store, tp, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for _, c := range changes {
		rep := got[c.ID]
		if rep == nil {
			t.Fatalf("no report for %q", c.ID)
		}
		want, err := ba.Assess(c)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, rep, want)
		flagged += len(rep.Flagged())
	}
	if flagged == 0 {
		t.Error("no change flagged the level shift on srv-00")
	}
	if n := cfg.Obs.Counter(obs.CtrStreamSheds); n != 0 {
		t.Errorf("stream.sheds = %d", n)
	}
	if hits, misses := cc.hits.Load(), cc.misses.Load(); misses != 0 || hits != tracked {
		t.Errorf("cache: %d hits, %d misses over %d KPIs; every KPI must be a hit", hits, misses, tracked)
	}
}
