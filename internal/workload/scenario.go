package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/changelog"
	"repro/internal/detect"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// Truth is the generator-recorded ground truth for one treated KPI of
// one software change — the role the operations team's manual labels
// play in §4.1.
type Truth struct {
	// Changed reports whether a KPI change *induced by the software
	// change* exists (a confounder-induced change records false).
	Changed bool
	// StartBin is the onset bin of the change-induced effect (only
	// meaningful when Changed).
	StartBin int
	// Kind is the injected change kind (only meaningful when Changed).
	Kind detect.Kind
	// ConfounderAt is ≥ 0 when a non-software common shock was
	// injected at that bin (it hits treated and control alike).
	ConfounderAt int
}

// Case is one software change with its impact set and ground truth.
type Case struct {
	Change    changelog.Change
	Set       *topo.ImpactSet
	ChangeBin int
	// Truth maps every treated KPI key to its label.
	Truth map[topo.KPIKey]Truth
}

// corpusEpoch is bin 0 of every generated corpus.
var corpusEpoch = time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)

// MapSource is an in-memory KPI source keyed by KPIKey, every series on
// one epoch and bin width; it satisfies funnel.SeriesSource.
type MapSource struct {
	start  time.Time
	step   time.Duration
	series map[topo.KPIKey]*timeseries.Series
}

// NewMapSource returns an empty source whose series start at start, one
// bin per step.
func NewMapSource(start time.Time, step time.Duration) *MapSource {
	return &MapSource{start: start, step: step, series: make(map[topo.KPIKey]*timeseries.Series)}
}

// Put stores a series under a key. The series must start at the
// source's epoch and use its step: RangeInto indexes it from there.
func (m *MapSource) Put(key topo.KPIKey, s *timeseries.Series) { m.series[key] = s }

// Series returns the series for key.
func (m *MapSource) Series(key topo.KPIKey) (*timeseries.Series, bool) {
	s, ok := m.series[key]
	return s, ok
}

// Start returns the source's epoch (bin 0 of every series).
func (m *MapSource) Start() time.Time { return m.start }

// Step returns the bin width.
func (m *MapSource) Step() time.Duration { return m.step }

// RangeInto copies the key's bins covering [from, to), clamped to the
// series, into dst (reusing its capacity), and returns them with the
// window's start time. It clamps and rounds as monitor.Store.RangeInto
// does; ok is false, with dst returned unread, for an unknown key or an
// empty clamped window. The values are a copy, never the stored series.
func (m *MapSource) RangeInto(key topo.KPIKey, from, to time.Time, dst []float64) ([]float64, time.Time, bool) {
	s, ok := m.series[key]
	if !ok {
		return dst, time.Time{}, false
	}
	lo, hi := 0, s.Len()
	if from.After(m.start) {
		lo = int(from.Sub(m.start) / m.step)
	}
	if to.Before(s.End()) {
		hi = int(to.Sub(m.start)+m.step-1) / int(m.step)
	}
	if lo >= hi {
		return dst, time.Time{}, false
	}
	return append(dst[:0], s.Values[lo:hi]...), m.start.Add(time.Duration(lo) * m.step), true
}

// Len returns the number of stored series.
func (m *MapSource) Len() int { return len(m.series) }

// Keys returns all stored keys sorted by KPIKey.String, so a walk over
// them (trace export, gap punching) is reproducible.
func (m *MapSource) Keys() []topo.KPIKey {
	out := make([]topo.KPIKey, 0, len(m.series))
	for k := range m.series {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Scenario is a fully generated evaluation corpus.
type Scenario struct {
	Topo   *topo.Topology
	Log    *changelog.Log
	Source *MapSource
	Cases  []Case
	Start  time.Time
	Step   time.Duration
	// HistoryBins is the number of bins before the assessment day.
	HistoryBins int
}

// Params sizes a scenario. The zero value is not useful; start from
// DefaultParams.
type Params struct {
	// Seed drives all randomness.
	Seed int64
	// Changes is the number of software changes; half receive injected
	// KPI effects (the paper's 72+72 split, §4.1).
	Changes int
	// ServersPerService is the deployment width of each service.
	ServersPerService int
	// HistoryDays is the historical baseline depth for seasonal
	// exclusion. The paper uses 30; the evaluation harness uses fewer
	// to keep runtimes sensible (documented in EXPERIMENTS.md).
	HistoryDays int
	// DarkFraction is the share of changes deployed via Dark Launching.
	// The paper's corpus had 108/144 (§4.1).
	DarkFraction float64
	// ConfounderFraction is the share of *no-effect* changes that
	// nevertheless experience a non-software common shock, exercising
	// the DiD exclusion path.
	ConfounderFraction float64
	// MinSNR and MaxSNR bound the injected magnitude in units of the
	// KPI's noise scale.
	MinSNR, MaxSNR float64
	// RampFraction is the share of injected effects that are ramps
	// rather than level shifts.
	RampFraction float64
	// WindowBins is the assessment half-window around the change (the
	// paper assesses 1 h before and after, so 60).
	WindowBins int
	// GapFraction drops this share of bins from every generated series
	// (NaN holes), modeling agent restarts and collection hiccups; the
	// pipeline gap-fills before analysis. 0 disables.
	GapFraction float64
	// TrapFraction is the share of *no-effect* cases whose KPIs carry a
	// common non-software trap — a slow linear trend or long-range-
	// dependent drift hitting treated and control entities alike. These
	// are the classic false-positive generators for change detectors
	// that assume short-memory stationarity; the ground truth stays
	// Changed=false, so every trap a method flags costs it precision.
	// 0 disables and draws no extra randomness, keeping corpora
	// generated before this knob existed bit-identical.
	TrapFraction float64
}

// DefaultParams mirrors the paper's evaluation shape at reduced scale.
func DefaultParams() Params {
	return Params{
		Seed:               1,
		Changes:            144,
		ServersPerService:  4,
		HistoryDays:        7,
		DarkFraction:       0.75,
		ConfounderFraction: 0.1,
		MinSNR:             6,
		MaxSNR:             20,
		RampFraction:       0.3,
		WindowBins:         60,
	}
}

// Metric names used across the generated corpus.
const (
	MetricCtxSwitch = "cpu.ctxswitch" // server scope, variable
	MetricMemUtil   = "mem.util"      // server scope, stationary
	MetricPageViews = "pv.count"      // instance/service scope, seasonal
	MetricRespDelay = "rt.delay"      // instance/service scope, variable
	MetricQueueLen  = "queue.len"     // instance/service scope, stationary
)

// ServerMetrics lists the per-server KPIs every case monitors (§4.1
// uses exactly these two).
func ServerMetrics() []string { return []string{MetricCtxSwitch, MetricMemUtil} }

// InstanceMetrics lists the per-instance KPIs (and their service
// aggregates) every case monitors.
func InstanceMetrics() []string {
	return []string{MetricPageViews, MetricRespDelay, MetricQueueLen}
}

// Generate builds a scenario from params.
func Generate(p Params) (*Scenario, error) {
	if p.Changes <= 0 || p.ServersPerService < 2 {
		return nil, fmt.Errorf("workload: bad params %+v", p)
	}
	if p.HistoryDays < 1 {
		p.HistoryDays = 1
	}
	if p.WindowBins <= 0 {
		p.WindowBins = 60
	}
	if p.GapFraction < 0 || p.GapFraction >= 0.5 {
		return nil, fmt.Errorf("workload: GapFraction %v outside [0, 0.5)", p.GapFraction)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	sc := &Scenario{
		Topo:        topo.NewTopology(),
		Log:         changelog.NewLog(),
		Source:      NewMapSource(corpusEpoch, timeseries.DefaultStep),
		Start:       corpusEpoch,
		Step:        timeseries.DefaultStep,
		HistoryBins: p.HistoryDays * MinutesPerDay,
	}

	for i := 0; i < p.Changes; i++ {
		withEffect := i%2 == 0 // even cases get injected KPI changes
		c, err := sc.generateCase(p, rng, i, withEffect)
		if err != nil {
			return nil, err
		}
		sc.Cases = append(sc.Cases, *c)
	}
	if p.GapFraction > 0 {
		sc.punchGaps(p.GapFraction, rng)
	}
	return sc, nil
}

// punchGaps replaces a random share of bins with NaN across every
// series, in short bursts of 1–5 bins (agents fail for stretches, not
// single minutes).
func (sc *Scenario) punchGaps(fraction float64, rng *rand.Rand) {
	for _, key := range sc.Source.Keys() {
		s, _ := sc.Source.Series(key)
		n := s.Len()
		target := int(fraction * float64(n))
		dropped := 0
		for dropped < target {
			at := rng.Intn(n)
			run := 1 + rng.Intn(5)
			for j := at; j < at+run && j < n; j++ {
				if !math.IsNaN(s.Values[j]) {
					s.Values[j] = math.NaN()
					dropped++
				}
			}
		}
	}
}

// generateCase builds one service, its servers and series, one software
// change and its ground truth.
func (sc *Scenario) generateCase(p Params, rng *rand.Rand, idx int, withEffect bool) (*Case, error) {
	// Each case lives in its own service group to keep cases
	// independent, with two related sibling services whose aggregate
	// KPIs join the impact set as affected services.
	group := fmt.Sprintf("grp%03d", idx)
	svc := group + ".core"
	affected := []string{group + ".feed", group + ".store"}
	servers := make([]string, p.ServersPerService)
	for j := range servers {
		servers[j] = fmt.Sprintf("%s-srv%d", group, j)
		sc.Topo.Deploy(svc, servers[j])
	}
	for _, a := range affected {
		sc.Topo.AddService(a)
	}

	// Deployment mode and treated servers.
	dark := rng.Float64() < p.DarkFraction
	nTreated := len(servers)
	if dark {
		nTreated = 1 + rng.Intn(len(servers)-1)
	}
	tservers := servers[:nTreated]

	set, err := sc.Topo.IdentifyImpactSet(svc, tservers)
	if err != nil {
		return nil, err
	}

	changeBin := sc.HistoryBins + MinutesPerDay/2 // midday of the assessment day
	total := sc.HistoryBins + MinutesPerDay       // full history + assessment day
	ch := changelog.Change{
		ID:      fmt.Sprintf("chg%03d", idx),
		Type:    changelog.Type(idx % 2),
		Service: svc,
		Servers: tservers,
		At:      sc.Start.Add(time.Duration(changeBin) * sc.Step),
	}
	if err := sc.Log.Append(ch); err != nil {
		return nil, err
	}

	cs := &Case{Change: ch, Set: set, ChangeBin: changeBin, Truth: make(map[topo.KPIKey]Truth)}

	// Decide the case-level confounder (a common shock at the change
	// time — rack power event, network incident — hitting every server
	// and instance of the *changed service*, treated and control
	// alike): only dark-launched no-effect cases get one, with the
	// configured probability. Its magnitude is fixed in *raw units per
	// metric* — §3.2.4's observation that non-software factors
	// "introduce similar performance impact on all servers and
	// instances of the same service" is what makes the DiD cancellation
	// exact. Only dark launches are eligible because a shock coinciding
	// with a Full Launch is genuinely indistinguishable from the change
	// (no concurrent control exists); the paper's near-perfect
	// deployment precision implies its sample contained no such
	// coincidence, and ours follows suit.
	confounderAt := -1
	confounderRaw := map[string]float64{}
	if !withEffect && dark && rng.Float64() < p.ConfounderFraction {
		confounderAt = changeBin + rng.Intn(20) - 10
		mult := snr(p, rng)
		for _, m := range append(append([]string{}, ServerMetrics()...), InstanceMetrics()...) {
			confounderRaw[m] = mult * sc.baseFor(m, idx, 0, 0).Noise()
		}
	}

	// Trap overlay for no-effect cases: a slow common trend or a
	// long-range-dependent drift, applied identically to treated and
	// control entities of the changed service so the causality stage can
	// (and must) cancel it. All randomness here is gated behind
	// TrapFraction > 0 so default corpora remain bit-identical.
	const trapNone, trapTrend, trapLRD = 0, 1, 2
	trapKind := trapNone
	trapPerBin := 0.0
	trapAdd := map[string]*LongRange{}
	if p.TrapFraction > 0 && !withEffect && rng.Float64() < p.TrapFraction {
		if rng.Intn(2) == 0 {
			trapKind = trapTrend
			// 0.02–0.08 noise units per bin: invisible bin to bin,
			// several σ across an assessment window.
			trapPerBin = 0.02 + 0.06*rng.Float64()
			if rng.Intn(2) == 0 {
				trapPerBin = -trapPerBin
			}
		} else {
			trapKind = trapLRD
			for _, m := range append(append([]string{}, ServerMetrics()...), InstanceMetrics()...) {
				scale := (2 + 2*rng.Float64()) * sc.baseFor(m, idx, 0, 0).Noise()
				trapAdd[m] = NewLongRange(0, scale, rng.Int63())
			}
		}
	}
	applyTrap := func(gen Gen, metric string) Gen {
		switch trapKind {
		case trapTrend:
			return NewTrending(gen, trapPerBin*gen.Noise(), changeBin-3*p.WindowBins)
		case trapLRD:
			// One shared overlay per metric: every entity of the case
			// sees the same drift values, like a real common cause.
			return &Overlay{Base: gen, Add: trapAdd[metric]}
		}
		return gen
	}

	// Effect geometry shared across this change's KPIs (one root cause,
	// synchronized onset).
	effectStart := changeBin + 1 + rng.Intn(5)
	ramp := rng.Float64() < p.RampFraction
	rampBins := 0
	if ramp {
		rampBins = 20 + rng.Intn(21)
	}

	// Which metrics does the injected software-change effect touch?
	// Real changes move a subset of KPIs; pick ~half. One root cause
	// produces one magnitude (in SNR units) per metric, shared by all
	// treated entities. Ramps are scaled up with their duration so
	// that the slope stays operations-visible (≈ ≥ 0.6 noise units per
	// bin), matching the pronounced ramps of Fig. 2.
	rampScale := 1.0
	if rampBins > 10 {
		rampScale = float64(rampBins) / 10
	}
	effectSNR := map[string]float64{}
	if withEffect {
		metrics := append(append([]string{}, ServerMetrics()...), InstanceMetrics()...)
		for _, m := range metrics {
			if rng.Float64() < 0.5 {
				effectSNR[m] = snr(p, rng) * rampScale
			}
		}
		// Guarantee at least one affected metric.
		if len(effectSNR) == 0 {
			effectSNR[metrics[rng.Intn(len(metrics))]] = snr(p, rng) * rampScale
		}
	}

	// Per-(service,metric) base parameters shared by all entities of
	// the service — the load-balancing similarity DiD relies on
	// (§3.2.4). Baseline contamination: a historical effect in some
	// cases.
	contaminate := rng.Float64() < 0.3

	// Server-scope KPIs.
	for si, server := range servers {
		treatedSrv := si < nTreated
		for _, metric := range ServerMetrics() {
			key := topo.KPIKey{Scope: topo.ScopeServer, Entity: server, Metric: metric}
			gen := sc.baseFor(metric, idx, si, rng.Int63())
			gen = contaminatedMaybe(gen, contaminate, sc.HistoryBins, rng)
			gen = applyEffects(gen, treatedSrv, effectSNR[metric], effectStart, rampBins, confounderAt, confounderRaw[metric])
			gen = applyTrap(gen, metric)
			series := timeseries.New(sc.Start, sc.Step, Render(gen, total))
			sc.Source.Put(key, series)
			if treatedSrv {
				cs.Truth[key] = truthFor(effectSNR[metric] != 0, effectStart, rampBins, confounderAt)
			}
		}
	}

	// Instance-scope KPIs, and accumulate service aggregates.
	svcSum := map[string][]float64{}
	for si, server := range servers {
		treatedInst := si < nTreated
		for _, metric := range InstanceMetrics() {
			key := topo.KPIKey{Scope: topo.ScopeInstance, Entity: topo.InstanceID(svc, server), Metric: metric}
			gen := sc.baseFor(metric, idx, si, rng.Int63())
			gen = contaminatedMaybe(gen, contaminate, sc.HistoryBins, rng)
			gen = applyEffects(gen, treatedInst, effectSNR[metric], effectStart, rampBins, confounderAt, confounderRaw[metric])
			gen = applyTrap(gen, metric)
			vals := Render(gen, total)
			sc.Source.Put(key, timeseries.New(sc.Start, sc.Step, vals))
			if treatedInst {
				cs.Truth[key] = truthFor(effectSNR[metric] != 0, effectStart, rampBins, confounderAt)
			}
			acc := svcSum[metric]
			if acc == nil {
				acc = make([]float64, total)
				svcSum[metric] = acc
			}
			for b, v := range vals {
				acc[b] += v / float64(len(servers))
			}
		}
	}

	// Changed-service aggregates (mean over instances). FUNNEL assesses
	// the changed service's aggregate through its tinstances (§3.2.4),
	// so the aggregate is labelled changed whenever any instance-level
	// effect exists — the aggregate genuinely moved, however diluted.
	for _, metric := range InstanceMetrics() {
		key := topo.KPIKey{Scope: topo.ScopeService, Entity: svc, Metric: metric}
		sc.Source.Put(key, timeseries.New(sc.Start, sc.Step, svcSum[metric]))
		cs.Truth[key] = truthFor(effectSNR[metric] != 0, effectStart, rampBins, confounderAt)
	}

	// Affected-service aggregates: they follow the changed service's
	// fate with propagation on response-delay-like metrics only.
	for _, aff := range affected {
		for _, metric := range InstanceMetrics() {
			key := topo.KPIKey{Scope: topo.ScopeService, Entity: aff, Metric: metric}
			gen := sc.baseFor(metric, idx, 100+len(key.Entity), rng.Int63())
			propagated := withEffect && effectSNR[metric] != 0 && metric == MetricRespDelay
			if propagated {
				mag := effectSNR[metric] * gen.Noise()
				gen = &WithEffects{Base: gen, Effects: []Effect{{StartBin: effectStart, Magnitude: mag, RampBins: rampBins}}}
			}
			// The confounder is scoped to the changed service's
			// machines; affected services do not see it.
			sc.Source.Put(key, timeseries.New(sc.Start, sc.Step, Render(gen, total)))
			cs.Truth[key] = truthFor(propagated, effectStart, rampBins, -1)
		}
	}
	return cs, nil
}

// baseFor builds the base generator of a metric; level parameters vary
// per case and per entity slot, classes are fixed per metric.
func (sc *Scenario) baseFor(metric string, caseIdx, slot int, seed int64) Gen {
	switch metric {
	case MetricCtxSwitch:
		return NewVariable(5000+float64(caseIdx*37+slot*11), 0.3, seed)
	case MetricMemUtil:
		return NewStationary(55+float64((caseIdx+slot)%20), 0.4, seed)
	case MetricPageViews:
		return NewSeasonal(1000+float64(caseIdx*13), 380, 25, seed)
	case MetricRespDelay:
		return NewVariable(120+float64(slot*3), 0.25, seed)
	case MetricQueueLen:
		return NewStationary(40+float64(caseIdx%10), 1.2, seed)
	default:
		return NewStationary(10, 1, seed)
	}
}

// snr draws an effect magnitude multiplier in [MinSNR, MaxSNR] with a
// random sign.
func snr(p Params, rng *rand.Rand) float64 {
	m := p.MinSNR + rng.Float64()*(p.MaxSNR-p.MinSNR)
	if rng.Intn(2) == 0 {
		m = -m
	}
	return m
}

// applyEffects wires the software-change effect (treated entities only,
// magnitude in SNR units shared across the change) and the common-shock
// confounder (all entities) onto a base generator.
func applyEffects(gen Gen, treated bool, effectSNR float64, effectStart, rampBins, confounderAt int, confounderRaw float64) Gen {
	var effects []Effect
	if treated && effectSNR != 0 {
		effects = append(effects, Effect{StartBin: effectStart, Magnitude: effectSNR * gen.Noise(), RampBins: rampBins})
	}
	if confounderAt >= 0 {
		effects = append(effects, Effect{StartBin: confounderAt, Magnitude: confounderRaw})
	}
	if len(effects) == 0 {
		return gen
	}
	return &WithEffects{Base: gen, Effects: effects}
}

// contaminatedMaybe injects a historical level shift into the baseline
// (the contamination of §1 that the 30-day control dilutes).
func contaminatedMaybe(gen Gen, contaminate bool, historyBins int, rng *rand.Rand) Gen {
	if !contaminate || historyBins < 2*MinutesPerDay {
		return gen
	}
	at := historyBins/4 + rng.Intn(historyBins/2)
	return &WithEffects{Base: gen, Effects: []Effect{{StartBin: at, Magnitude: (rng.Float64()*6 - 3) * gen.Noise()}}}
}

// truthFor records the label for a treated KPI.
func truthFor(hasEffect bool, effectStart, rampBins, confounderAt int) Truth {
	t := Truth{Changed: hasEffect, ConfounderAt: confounderAt}
	if hasEffect {
		t.StartBin = effectStart
		if rampBins > 0 {
			t.Kind = detect.RampUp // direction refined by the detector
		} else {
			t.Kind = detect.LevelShiftUp
		}
	}
	return t
}
