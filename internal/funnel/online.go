package funnel

import (
	"fmt"
	"sync"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/topo"
)

// Online is the deployed form of FUNNEL (§5): it consumes the
// measurement stream pushed by the monitoring substrate, keeps its own
// KPI store, accepts software-change registrations as the operations
// team deploys them, and emits an assessment report for each change as
// soon as the post-change observation window has fully arrived — the
// paper's "1 h is enough for software change assessment" horizon plus
// the scorer's lookahead.
//
// HandleMeasurement is safe to call from one goroutine (typically the
// subscription reader); RegisterChange may be called from any
// goroutine.
type Online struct {
	assessor *Assessor
	store    *monitor.Store

	mu      sync.Mutex
	pending []pendingChange
	seen    map[string]bool // change IDs ever registered
	out     chan *Report
	closed  bool
}

// pendingChange tracks a registered change until it is assessable.
type pendingChange struct {
	change changelog.Change
	// readyBin is the store bin whose arrival makes the change
	// assessable: changeBin + WindowBins + FutureSpan.
	readyBin int
	// probe is one treated KPI key whose series length signals data
	// arrival.
	probe topo.KPIKey
	// forced records that the stale-probe escape hatch already emitted
	// its one provisional report for this change. The change stays
	// pending afterwards — a recovered (backfilled) probe feed still
	// yields the real verdict — but a permanently-severed one never
	// re-emits the same Inconclusive report on every poll tick.
	forced bool
}

// NewOnline builds the online assessor: store is the local KPI copy the
// caller feeds (its epoch must cover the history the configuration
// needs), tp the topology, cfg the pipeline configuration.
func NewOnline(store *monitor.Store, tp *topo.Topology, cfg Config) (*Online, error) {
	assessor, err := NewAssessor(store, tp, cfg)
	if err != nil {
		return nil, err
	}
	return &Online{
		assessor: assessor,
		store:    store,
		seen:     make(map[string]bool),
		out:      make(chan *Report, 16),
	}, nil
}

// Reports delivers finished assessments. The channel closes after
// Close.
func (o *Online) Reports() <-chan *Report { return o.out }

// RegisterChange records a deployed software change for assessment.
// The change must reference a known service (impact-set identification
// runs immediately to fail fast on bad registrations) and carry a
// change ID never registered before — duplicate registrations would
// double-assess and double-report the same rollout.
func (o *Online) RegisterChange(c changelog.Change) error {
	set, err := o.assessor.topo.IdentifyImpactSet(c.Service, c.Servers)
	if err != nil {
		return err
	}
	cfg := o.assessor.cfg
	changeBin := int(c.At.Sub(o.store.Start()) / o.store.Step())
	ready := changeBin + cfg.WindowBins + cfg.SST.FutureSpan()
	probe := topo.KPIKey{Scope: topo.ScopeServer, Entity: set.TServers[0], Metric: firstMetric(cfg)}
	if len(cfg.ServerMetrics) == 0 {
		probe = topo.KPIKey{Scope: topo.ScopeInstance, Entity: set.TInstances[0], Metric: firstMetric(cfg)}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.seen[c.ID] {
		return fmt.Errorf("funnel: change %q already registered", c.ID)
	}
	o.seen[c.ID] = true
	o.pending = append(o.pending, pendingChange{change: c, readyBin: ready, probe: probe})
	return nil
}

// firstMetric picks the probe metric from the configuration.
func firstMetric(cfg Config) string {
	if len(cfg.ServerMetrics) > 0 {
		return cfg.ServerMetrics[0]
	}
	if len(cfg.InstanceMetrics) > 0 {
		return cfg.InstanceMetrics[0]
	}
	return ""
}

// HandleMeasurement appends one measurement to the local store and
// assesses any pending change whose observation window is now complete.
// Assessment runs inline — the per-change cost is a few milliseconds
// (funnel.stage.assess_us × KPIs in the repo benchmark) against a
// 1-minute bin cadence. Callers must drain Reports(); a full report
// buffer blocks the measurement path rather than dropping an assessment.
func (o *Online) HandleMeasurement(m monitor.Measurement) {
	o.store.Append(m)
	o.assessReady()
}

// Poll re-checks pending changes against the store without appending
// anything — for wiring where measurements reach the store by another
// path (e.g. a network ingest server) and Online only needs the
// bookkeeping tick.
func (o *Online) Poll() { o.assessReady() }

// Run consumes a measurement channel until it closes, then closes the
// report stream. It is a convenience for wiring Online directly to
// monitor.Client.C().
func (o *Online) Run(measurements <-chan monitor.Measurement) {
	for m := range measurements {
		o.HandleMeasurement(m)
	}
	o.Close()
}

// Close flushes nothing (pending changes without data are dropped) and
// closes the report stream. Call it from the measurement goroutine (as
// Run does) — closing concurrently with HandleMeasurement races the
// report channel.
func (o *Online) Close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.closed {
		o.closed = true
		close(o.out)
	}
}

// assessReady assesses and emits every pending change whose probe
// series has reached its ready bin.
func (o *Online) assessReady() {
	o.mu.Lock()
	var ready []pendingChange
	still := o.pending[:0]
	var stats monitor.Stats
	statsLoaded := false
	patience := o.assessor.cfg.StaleBins
	for _, p := range o.pending {
		// SeriesLen, not Series: the readiness probe runs on every poll
		// tick and must not decode the probe's full retained history
		// each time.
		n, ok := o.store.SeriesLen(p.probe)
		if ok && n > p.readyBin {
			ready = append(ready, p)
			continue
		}
		if !p.forced {
			if !statsLoaded {
				stats, statsLoaded = o.store.Stats(), true
			}
			if stats.LastBin >= p.readyBin+patience {
				// The probe feed stalled but the rest of the store moved
				// well past the ready bin: assess anyway, once. The
				// per-KPI gap gate turns the stalled feeds into explicit
				// Inconclusive verdicts instead of leaving the change
				// invisible forever (and instead of ever flagging a
				// severed feed as a regression). The change stays pending
				// under the forced cooldown so a later backfill still
				// produces the real verdict.
				p.forced = true
				ready = append(ready, p)
			}
		}
		still = append(still, p)
	}
	o.pending = still
	closed := o.closed
	o.mu.Unlock()
	if closed {
		return
	}
	for _, p := range ready {
		rep, err := o.assessor.Assess(p.change)
		if err != nil {
			continue // bad registrations were rejected up front
		}
		o.out <- rep
	}
}

// Pending returns the number of changes awaiting data.
func (o *Online) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
}
