// Package funnel is the public API of this FUNNEL reproduction — an
// automated tool for rapid and robust impact assessment of software
// changes in large Internet-based services (Zhang et al., CoNEXT 2015).
//
// The package re-exports what the examples compose, plus every type
// those signatures name:
//
//   - the assessment pipeline (Assessor, NewAssessor): impact-set
//     identification, improved-SST change detection, and
//     Difference-in-Differences cause determination; NewAssessorWith
//     and Stages swap a stage; Streamer is the deployed streaming form;
//   - the IKA SST scorer and the persistence-rule change detector,
//     usable standalone on any 1-minute-binned series, threshold
//     calibration, and the detector registry (Detectors,
//     LookupDetector);
//   - the DiD estimator and its BSTS alternative;
//   - the monitoring substrate: KPI store, TCP push subscription
//     protocol, and per-server agents;
//   - the service/server/instance topology and the software change;
//   - the synthetic corpus and case-study generators, the KPI-type
//     classifier, and the telemetry collector.
//
// See examples/quickstart for the fastest path to a working detector
// and examples/darklaunch for a full dark-launch assessment.
package funnel

import (
	"repro/internal/bsts"
	"repro/internal/changelog"
	"repro/internal/detect"
	"repro/internal/did"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sst"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/topo"
	"repro/internal/workload"
)

// ---- Pipeline ----

// Assessor runs the full FUNNEL pipeline (Fig. 3 of the paper).
type Assessor = funnel.Assessor

// Config tunes the pipeline; the zero value takes the paper defaults.
type Config = funnel.Config

// Assessment is the per-KPI verdict inside an assessor's report.
type Assessment = funnel.Assessment

// The Verdict values a flagged KPI carries.
const (
	ChangedByOther    = funnel.ChangedByOther
	ChangedBySoftware = funnel.ChangedBySoftware
)

// SeriesSource is the assessor's one read contract: windows of KPI
// series by key through RangeInto, with the full Series as the fallback
// for a window that cannot reproduce it. *Store and a Scenario's Source
// implement it.
type SeriesSource = funnel.SeriesSource

// NewAssessor builds a pipeline over a series source and topology.
func NewAssessor(source SeriesSource, tp *Topology, cfg Config) (*Assessor, error) {
	return funnel.NewAssessor(source, tp, cfg)
}

// Stages replaces the pipeline's detection stage (a Scorer, e.g. a
// Detectors entry) or cause stage (an Estimate, e.g. EstimateBSTS); a
// nil field keeps the deployed one.
type Stages = funnel.Stages

// NewAssessorWith builds a pipeline whose stages st replaces.
func NewAssessorWith(source SeriesSource, tp *Topology, cfg Config, st Stages) (*Assessor, error) {
	return funnel.NewAssessorWith(source, tp, cfg, st)
}

// DetectionDelay measures the wall-clock delay of an assessment against
// a known change start (Fig. 5's metric).
func DetectionDelay(a Assessment, trueStart int) (int, bool) {
	return funnel.DetectionDelay(a, trueStart)
}

// Streamer is the deployed form of the pipeline (§5): it follows the
// store's bin feed, accepts change registrations, and emits reports as
// observation windows complete.
type Streamer = funnel.Streamer

// StreamConfig tunes the Streamer's poll cadence, never its verdicts;
// the zero value takes the defaults.
type StreamConfig = funnel.StreamConfig

// NewStreamer builds the streaming assessor over a store and topology.
var NewStreamer = funnel.NewStreamer

// ---- Scorers and detection ----

// SSTConfig is the shared SST geometry (ω, δ, γ, ρ, η, k) plus the
// robustness options.
type SSTConfig = sst.Config

// Scorer is a pointwise change scorer over a series.
type Scorer = sst.Scorer

// IKASST is the Implicit-Krylov-Approximation SST FUNNEL deploys.
type IKASST = sst.IKA

// NewIKASST builds the IKA-accelerated robust scorer.
func NewIKASST(cfg SSTConfig) *IKASST { return sst.NewIKA(cfg) }

// ScoreSeries evaluates a scorer over a whole series (NaN where the
// window does not fit).
func ScoreSeries(s Scorer, x []float64) []float64 { return sst.ScoreSeries(s, x) }

// Detector is the pluggable change-detector contract: a pointwise
// scorer that identifies itself for registry lookup. SST variants,
// CUSUM, MRLS, WoW and E-divisive all implement it; see Detectors for
// the roster and README's "Choosing a detector".
type Detector = detect.Detector

// DetectorEntry is one registered detector: its name and default
// constructor.
type DetectorEntry = detect.Entry

// Detectors returns the registered detector roster sorted by name.
func Detectors() []DetectorEntry { return detect.Detectors() }

// LookupDetector resolves a registry name like "cusum" or "edivisive".
func LookupDetector(name string) (DetectorEntry, error) { return detect.LookupDetector(name) }

// Gate applies a threshold plus the 7-minute persistence rule to a
// scorer, turning pointwise scores into declared changes.
type Gate = detect.Gate

// NewDetector pairs a scorer with a threshold under the default
// persistence rule.
func NewDetector(s Scorer, threshold float64) *Gate { return detect.New(s, threshold) }

// CalibrateThreshold derives a detection threshold from change-free
// reference series.
func CalibrateThreshold(s Scorer, clean [][]float64, q, margin float64) (float64, error) {
	return detect.Calibrate(s, clean, q, margin)
}

// ---- DiD ----

// DiDResult is the Difference-in-Differences estimate (α, standard
// error, t-statistic).
type DiDResult = did.Result

// EstimateDiD runs the estimator on four group samples.
func EstimateDiD(treatedPre, treatedPost, controlPre, controlPost []float64) (DiDResult, error) {
	return did.Estimate(treatedPre, treatedPost, controlPre, controlPost)
}

// EstimateBSTS is the Bayesian structural time-series cause stage, a
// Stages.Estimate alternative to EstimateDiD with the same result shape.
var EstimateBSTS = bsts.Estimate

// ---- Topology, changes, series ----

// Topology registers services, servers, instances and service
// relationships.
type Topology = topo.Topology

// KPIKey identifies one KPI series (scope + entity + metric).
type KPIKey = topo.KPIKey

// The KPI scopes (server / instance / service).
const (
	ScopeServer   = topo.ScopeServer
	ScopeInstance = topo.ScopeInstance
	ScopeService  = topo.ScopeService
)

// NewTopology returns an empty topology.
func NewTopology() *Topology { return topo.NewTopology() }

// Change is one software change (upgrade or configuration change).
type Change = changelog.Change

// The change types: an upgrade or a configuration change.
const (
	Upgrade      = changelog.Upgrade
	ConfigChange = changelog.Config
)

// Series is a regularly sampled KPI time series (1-minute bins by
// default).
type Series = timeseries.Series

// ---- Monitoring substrate ----

// Store is the concurrent in-memory KPI store.
type Store = monitor.Store

// Measurement is one KPI sample.
type Measurement = monitor.Measurement

// MonitorServer pushes store measurements to TCP subscribers.
type MonitorServer = monitor.Server

// MonitorClient receives pushed measurements.
type MonitorClient = monitor.Client

// Agent simulates a per-server monitoring agent on a virtual 1-minute
// clock.
type Agent = monitor.Agent

// NewStore and NewAgent construct the monitoring pieces.
var (
	NewStore = monitor.NewStore
	NewAgent = monitor.NewAgent
)

// NewMonitorServer returns a push server over store.
func NewMonitorServer(store *Store) *MonitorServer { return monitor.NewServer(store) }

// DialMonitor connects to a push server and subscribes to the given key
// prefixes (none = everything).
func DialMonitor(addr string, prefixes ...string) (*MonitorClient, error) {
	return monitor.Dial(addr, prefixes...)
}

// ---- Workload generation ----

// Scenario is a synthetic evaluation corpus with ground truth.
type Scenario = workload.Scenario

// ScenarioParams sizes a scenario.
type ScenarioParams = workload.Params

// GenerateScenario builds a reproducible corpus.
func GenerateScenario(p ScenarioParams) (*Scenario, error) { return workload.Generate(p) }

// DefaultScenarioParams mirrors the paper's evaluation shape at reduced
// scale.
func DefaultScenarioParams() ScenarioParams { return workload.DefaultParams() }

// GenerateRedisCase and GenerateAdClicksCase build the Fig. 6 and
// Fig. 7 case studies.
var (
	GenerateRedisCase    = workload.GenerateRedis
	GenerateAdClicksCase = workload.GenerateAdClicks
)

// KPIType is the seasonal/stationary/variable KPI character.
type KPIType = stats.KPIType

// ClassifyKPI labels a series by its character.
func ClassifyKPI(xs []float64) KPIType {
	return stats.ClassifyKPI(xs, stats.DefaultClassifierConfig())
}

// ---- Telemetry ----

// Collector aggregates pipeline counters, per-stage latency histograms
// and recent assessment traces; every method is a no-op on a nil
// collector, so telemetry is strictly opt-in. Wire one through
// Config.Obs (and Store.SetCollector for monitor-layer health) and
// serve Collector.Handler() for /metrics, /debug/pprof/* and
// /traces/<change-id>.
type Collector = obs.Collector

// NewCollector returns a ready collector with process-health gauges.
var NewCollector = obs.NewCollector

// PipelineTrace is the per-assessment pipeline trace attached to
// Report.Trace when the assessor runs with a collector.
type PipelineTrace = obs.Trace
