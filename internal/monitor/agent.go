package monitor

import (
	"time"

	"repro/internal/topo"
)

// MetricFunc produces the value of one KPI at a given bin index; agents
// call it once per tick. Generators in the workload package satisfy
// this shape.
type MetricFunc func(bin int) float64

// Agent simulates the per-server monitoring agent of §2.2: it owns a
// set of KPIs (server KPIs from log analysis plus the instance KPIs of
// the processes it hosts) and emits one measurement per KPI per bin
// into a Store. Time is virtual — Tick advances one bin — so
// simulations run as fast as the CPU allows while the emitted
// timestamps stay on the 1-minute grid.
type Agent struct {
	store   *Store
	metrics []agentMetric
	bin     int
}

// agentMetric pairs a key with its value source.
type agentMetric struct {
	key topo.KPIKey
	fn  MetricFunc
}

// NewAgent returns an agent writing into store.
func NewAgent(store *Store) *Agent {
	return &Agent{store: store}
}

// Track registers a KPI with its generator. Registering the same key
// twice emits it twice; callers keep keys unique.
func (a *Agent) Track(key topo.KPIKey, fn MetricFunc) {
	a.metrics = append(a.metrics, agentMetric{key: key, fn: fn})
}

// Tick emits one measurement per tracked KPI for the current bin and
// advances the virtual clock. It returns the bin it emitted.
func (a *Agent) Tick() int {
	t := a.store.Start().Add(time.Duration(a.bin) * a.store.Step())
	for _, m := range a.metrics {
		a.store.Append(Measurement{Key: m.key, T: t, V: m.fn(a.bin)})
	}
	emitted := a.bin
	a.bin++
	return emitted
}

// Run ticks the agent n times.
func (a *Agent) Run(n int) {
	for i := 0; i < n; i++ {
		a.Tick()
	}
}
