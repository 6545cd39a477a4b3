package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/changelog"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// RedisParams sizes the Fig. 6 case study: a configuration change in a
// Redis query service rebalances traffic from saturated class-A
// servers onto idle class-B servers, producing a negative NIC
// throughput level shift on class A and a positive one on class B.
type RedisParams struct {
	Seed                 int64
	ClassA, ClassB       int // server counts per class
	HistoryDays          int
	ShiftFraction        float64 // share of class-A NIC load moved to class B
	ChangeMinuteOfDay    int
	UnaffectedPerClassAB int // extra servers whose NIC stays put
}

// DefaultRedisParams mirrors the case's shape: 16 affected KPIs out of
// 118 in the impact set.
func DefaultRedisParams() RedisParams {
	return RedisParams{
		Seed: 7, ClassA: 8, ClassB: 8, HistoryDays: 2,
		ShiftFraction: 0.4, ChangeMinuteOfDay: 700, UnaffectedPerClassAB: 102,
	}
}

// MetricNIC is the NIC throughput server KPI of the Redis case.
const MetricNIC = "nic.throughput"

// RedisCase is the generated Fig. 6 scenario.
type RedisCase struct {
	Topo      *topo.Topology
	Log       *changelog.Log
	Source    *MapSource
	Change    changelog.Change
	ChangeBin int
	Start     time.Time
	// ClassAServers and ClassBServers are the rebalanced servers whose
	// NIC KPIs carry the expected level shifts.
	ClassAServers, ClassBServers []string
}

// GenerateRedis builds the Redis rebalancing case study.
func GenerateRedis(p RedisParams) (*RedisCase, error) {
	if p.ClassA < 1 || p.ClassB < 1 {
		return nil, fmt.Errorf("workload: redis needs servers in both classes")
	}
	if p.HistoryDays < 1 {
		p.HistoryDays = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	rc := &RedisCase{
		Topo:   topo.NewTopology(),
		Log:    changelog.NewLog(),
		Source: NewMapSource(corpusEpoch, timeseries.DefaultStep),
		Start:  corpusEpoch,
	}
	svc := "cache.redisquery"
	historyBins := p.HistoryDays * MinutesPerDay
	rc.ChangeBin = historyBins + p.ChangeMinuteOfDay
	total := historyBins + MinutesPerDay

	var servers []string
	add := func(class string, i int) string {
		name := fmt.Sprintf("redis-%s-%02d", class, i)
		rc.Topo.Deploy(svc, name)
		servers = append(servers, name)
		return name
	}
	for i := 0; i < p.ClassA; i++ {
		rc.ClassAServers = append(rc.ClassAServers, add("a", i))
	}
	for i := 0; i < p.ClassB; i++ {
		rc.ClassBServers = append(rc.ClassBServers, add("b", i))
	}
	for i := 0; i < p.UnaffectedPerClassAB; i++ {
		add("c", i)
	}

	// NIC throughput: class A runs hot (near capacity, so its
	// fluctuation is clipped), class B idles with the full burstiness
	// of a variable KPI (§5.1). After the change, ShiftFraction of
	// class A's load moves to B.
	hotLevel, idleLevel := 900.0, 150.0
	moved := hotLevel * p.ShiftFraction
	for _, s := range servers {
		level, spread := idleLevel, 0.18
		var eff []Effect
		switch {
		case contains(rc.ClassAServers, s):
			level, spread = hotLevel, 0.05
			eff = []Effect{{StartBin: rc.ChangeBin, Magnitude: -moved}}
		case contains(rc.ClassBServers, s):
			eff = []Effect{{StartBin: rc.ChangeBin, Magnitude: moved * float64(p.ClassA) / float64(p.ClassB)}}
		}
		gen := Gen(NewVariable(level, spread, rng.Int63()))
		if eff != nil {
			gen = &WithEffects{Base: gen, Effects: eff}
		}
		vals := Render(gen, total)
		if contains(rc.ClassAServers, s) {
			// A saturated NIC is physically capped at link capacity;
			// bursts clip instead of spiking (§5.1: class A NICs were
			// "always busy" at the bandwidth limit).
			for i, v := range vals {
				if v > 1000 {
					vals[i] = 1000
				}
			}
		}
		key := topo.KPIKey{Scope: topo.ScopeServer, Entity: s, Metric: MetricNIC}
		rc.Source.Put(key, timeseries.New(rc.Start, timeseries.DefaultStep, vals))
	}

	rc.Change = changelog.Change{
		ID:          "redis-rebalance",
		Type:        changelog.Config,
		Service:     svc,
		Servers:     append(append([]string{}, rc.ClassAServers...), rc.ClassBServers...),
		At:          rc.Start.Add(time.Duration(rc.ChangeBin) * timeseries.DefaultStep),
		Description: "balance query traffic between class A and class B Redis servers",
	}
	if err := rc.Log.Append(rc.Change); err != nil {
		return nil, err
	}
	return rc, nil
}

// contains reports membership of s in xs.
func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// AdParams sizes the Fig. 7 case study: a software upgrade in the
// advertising system breaks the anti-cheating JSON check on iPhone
// browsers, so every iPhone click is misclassified as a cheat and the
// (strongly seasonal) effective-click count drops sharply; operations
// fixes it 90 minutes later and the KPI recovers with a positive level
// shift.
type AdParams struct {
	Seed              int64
	HistoryDays       int
	ChangeMinuteOfDay int
	DropFraction      float64 // share of clicks lost (iPhone share)
	FixAfterMinutes   int     // the paper's 1.5 h manual turnaround
	Instances         int
}

// DefaultAdParams mirrors the case's shape.
func DefaultAdParams() AdParams {
	return AdParams{Seed: 11, HistoryDays: 6, ChangeMinuteOfDay: 600,
		DropFraction: 0.3, FixAfterMinutes: 90, Instances: 8}
}

// MetricEffectiveClicks is the anti-cheating-validated click count.
const MetricEffectiveClicks = "clicks.effective"

// AdCase is the generated Fig. 7 scenario.
type AdCase struct {
	Topo      *topo.Topology
	Log       *changelog.Log
	Source    *MapSource
	Change    changelog.Change
	ChangeBin int
	FixBin    int
	Start     time.Time
	Service   string
}

// GenerateAdClicks builds the advertising incident case study.
func GenerateAdClicks(p AdParams) (*AdCase, error) {
	if p.Instances < 1 {
		return nil, fmt.Errorf("workload: ad case needs instances")
	}
	if p.HistoryDays < 1 {
		p.HistoryDays = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	ac := &AdCase{
		Topo:    topo.NewTopology(),
		Log:     changelog.NewLog(),
		Source:  NewMapSource(corpusEpoch, timeseries.DefaultStep),
		Start:   corpusEpoch,
		Service: "ads.serving",
	}
	historyBins := p.HistoryDays * MinutesPerDay
	ac.ChangeBin = historyBins + p.ChangeMinuteOfDay
	ac.FixBin = ac.ChangeBin + p.FixAfterMinutes
	total := historyBins + MinutesPerDay

	var servers []string
	for i := 0; i < p.Instances; i++ {
		s := fmt.Sprintf("ads-srv-%02d", i)
		ac.Topo.Deploy(ac.Service, s)
		servers = append(servers, s)
	}

	// Effective clicks per instance: strongly seasonal, with a
	// DropFraction dip between change and fix. The dip is proportional
	// to the (seasonal) level, so it is modeled multiplicatively.
	svcTotal := make([]float64, total)
	for _, s := range servers {
		base := NewSeasonal(800, 350, 20, rng.Int63())
		vals := make([]float64, total)
		for b := range vals {
			v := base.At(b)
			if b >= ac.ChangeBin && b < ac.FixBin {
				v *= 1 - p.DropFraction
			}
			vals[b] = v
		}
		key := topo.KPIKey{Scope: topo.ScopeInstance, Entity: topo.InstanceID(ac.Service, s), Metric: MetricEffectiveClicks}
		ac.Source.Put(key, timeseries.New(ac.Start, timeseries.DefaultStep, vals))
		for b, v := range vals {
			svcTotal[b] += v / float64(len(servers))
		}
	}
	ac.Source.Put(topo.KPIKey{Scope: topo.ScopeService, Entity: ac.Service, Metric: MetricEffectiveClicks},
		timeseries.New(ac.Start, timeseries.DefaultStep, svcTotal))

	// The upgrade goes to all servers at once (Full Launching): no
	// concurrent control exists, so FUNNEL must fall back to the
	// 30-day-style historical DiD (§3.2.5) — that is the point of the
	// case.
	ac.Change = changelog.Change{
		ID:          "ads-upgrade",
		Type:        changelog.Upgrade,
		Service:     ac.Service,
		Servers:     servers,
		At:          ac.Start.Add(time.Duration(ac.ChangeBin) * timeseries.DefaultStep),
		Description: "advertising system performance upgrade",
	}
	if err := ac.Log.Append(ac.Change); err != nil {
		return nil, err
	}
	return ac, nil
}
