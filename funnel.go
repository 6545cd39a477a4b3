// Package funnel is the public API of this FUNNEL reproduction — an
// automated tool for rapid and robust impact assessment of software
// changes in large Internet-based services (Zhang et al., CoNEXT 2015).
//
// The package re-exports the pieces a downstream user composes:
//
//   - the assessment pipeline (Assessor): impact-set identification,
//     improved-SST change detection, and Difference-in-Differences
//     cause determination — plus its deployed streaming form (Streamer);
//   - the SST scorer family (classic, robust, IKA-accelerated) and the
//     persistence-rule change detector, usable standalone on any
//     1-minute-binned series;
//   - the monitoring substrate: KPI store, TCP push subscription
//     protocol, and per-server agents;
//   - the service/server/instance topology model and software-change
//     log;
//   - the baselines (CUSUM, MRLS), synthetic workload generators and
//     evaluation harness that regenerate the paper's tables and
//     figures.
//
// See examples/quickstart for the fastest path to a working detector
// and examples/darklaunch for a full dark-launch assessment.
package funnel

import (
	"repro/internal/baselines"
	"repro/internal/bsts"
	"repro/internal/changelog"
	"repro/internal/detect"
	"repro/internal/did"
	"repro/internal/edivisive"
	"repro/internal/eval"
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

// Report is the outcome of assessing one software change.
type Report = funnel.Report

// Assessment is the per-KPI verdict inside a Report.
type Assessment = funnel.Assessment

// Verdict is FUNNEL's conclusion for one KPI.
type Verdict = funnel.Verdict

// Verdict values.
const (
	NoChange          = funnel.NoChange
	ChangedByOther    = funnel.ChangedByOther
	ChangedBySoftware = funnel.ChangedBySoftware
)

// ControlKind says which control group the DiD stage used.
type ControlKind = funnel.ControlKind

// ControlKind values.
const (
	ControlNone       = funnel.ControlNone
	ControlConcurrent = funnel.ControlConcurrent
	ControlHistorical = funnel.ControlHistorical
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

// StreamConfig tunes the Streamer's poll cadence and feed bound, never
// its verdicts; the zero value takes the defaults.
type StreamConfig = funnel.StreamConfig

// NewStreamer builds the streaming assessor over a store and topology.
var NewStreamer = funnel.NewStreamer

// AssessResult pairs a change with its report in batch assessment.
type AssessResult = funnel.AssessResult

// FlaggedAcross collects software-caused assessments across a batch.
var FlaggedAcross = funnel.FlaggedAcross

// ---- Scorers and detection ----

// SSTConfig is the shared SST geometry (ω, δ, γ, ρ, η, k) plus the
// robustness options.
type SSTConfig = sst.Config

// Scorer is a pointwise change scorer over a series.
type Scorer = sst.Scorer

// ClassicSST is the original SVD-based SST.
type ClassicSST = sst.Classic

// RobustSST is the paper's robustness-improved SST with exact
// decompositions.
type RobustSST = sst.Robust

// IKASST is the Implicit-Krylov-Approximation SST FUNNEL deploys.
type IKASST = sst.IKA

// NewClassicSST builds a classic scorer.
func NewClassicSST(cfg SSTConfig) *ClassicSST { return sst.NewClassic(cfg) }

// NewRobustSST builds the exact robust scorer.
func NewRobustSST(cfg SSTConfig) *RobustSST { return sst.NewRobust(cfg) }

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
var Detectors = detect.Detectors

// LookupDetector resolves a registry name like "cusum" or "edivisive".
var LookupDetector = detect.LookupDetector

// EDivisive is the E-divisive means energy-statistic detector with
// permutation significance testing.
type EDivisive = edivisive.EDivisive

// NewEDivisive returns the CI-sized default E-divisive scorer.
func NewEDivisive() *EDivisive { return edivisive.New() }

// Gate applies a threshold plus the 7-minute persistence rule to a
// scorer, turning pointwise scores into declared changes.
type Gate = detect.Gate

// Detection is one declared KPI change.
type Detection = detect.Detection

// ChangeKind classifies a change (level shift / ramp, up / down).
type ChangeKind = detect.Kind

// ChangeKind values.
const (
	KindUnknown        = detect.Unknown
	KindLevelShiftUp   = detect.LevelShiftUp
	KindLevelShiftDown = detect.LevelShiftDown
	KindRampUp         = detect.RampUp
	KindRampDown       = detect.RampDown
)

// NewDetector pairs a scorer with a threshold under the default
// persistence rule.
func NewDetector(s Scorer, threshold float64) *Gate { return detect.New(s, threshold) }

// CalibrateThreshold derives a detection threshold from change-free
// reference series.
func CalibrateThreshold(s Scorer, clean [][]float64, q, margin float64) (float64, error) {
	return detect.Calibrate(s, clean, q, margin)
}

// ---- Baselines ----

// CUSUM is the MERCURY-style bootstrap CUSUM baseline.
type CUSUM = baselines.CUSUM

// MRLS is the PRISM-style multiscale robust local subspace baseline.
type MRLS = baselines.MRLS

// NewCUSUM returns the paper-configured CUSUM baseline (W = 60).
func NewCUSUM() *CUSUM { return baselines.NewCUSUM() }

// NewMRLS returns the paper-configured MRLS baseline (W = 32).
func NewMRLS() *MRLS { return baselines.NewMRLS() }

// WoW is the week-over-week baseline (Chen et al. 2013, cited in §6).
type WoW = baselines.WoW

// NewWoW returns the default week-over-week scorer.
func NewWoW() *WoW { return baselines.NewWoW() }

// PCA is the multivariate subspace anomaly baseline (Lakhina et al.
// 2005, cited in §6); it scores cross-KPI vectors, not single series.
type PCA = baselines.PCA

// NewPCA returns the default PCA detector.
func NewPCA() *PCA { return baselines.NewPCA() }

// ---- DiD ----

// DiDResult is the Difference-in-Differences estimate (α, standard
// error, t-statistic).
type DiDResult = did.Result

// EstimateDiD runs the estimator on four group samples.
func EstimateDiD(treatedPre, treatedPost, controlPre, controlPost []float64) (DiDResult, error) {
	return did.Estimate(treatedPre, treatedPost, controlPre, controlPost)
}

// NormalizeDiDGroups makes the four group samples scale-free while
// preserving α's meaning.
func NormalizeDiDGroups(tp, tq, cp, cq []float64) (ntp, ntq, ncp, ncq []float64) {
	return did.NormalizeGroups(tp, tq, cp, cq)
}

// TrendCheck is the outcome of a parallel-trends placebo diagnostic.
type TrendCheck = did.TrendCheck

// CheckParallelTrends runs the DiD placebo test on two pre-change
// periods of aligned treated/control series.
var CheckParallelTrends = did.ParallelTrends

// EstimateDiDRegression fits Eq. 15's linear model by least squares;
// its α coincides with EstimateDiD's on the 2×2 design.
var EstimateDiDRegression = did.EstimateRegression

// EstimateBSTS is the Bayesian structural time-series cause stage, a
// Stages.Estimate alternative to EstimateDiD with the same result shape.
var EstimateBSTS = bsts.Estimate

// ---- Topology, changes, series ----

// Topology registers services, servers, instances and service
// relationships.
type Topology = topo.Topology

// ImpactSet is the treated/control split §3.1 derives for a change.
type ImpactSet = topo.ImpactSet

// KPIKey identifies one KPI series (scope + entity + metric).
type KPIKey = topo.KPIKey

// Scope is the KPI scope (server / instance / service).
type Scope = topo.Scope

// Scope values.
const (
	ScopeServer   = topo.ScopeServer
	ScopeInstance = topo.ScopeInstance
	ScopeService  = topo.ScopeService
)

// NewTopology returns an empty topology.
func NewTopology() *Topology { return topo.NewTopology() }

// Change is one software change (upgrade or configuration change).
type Change = changelog.Change

// ChangeLog is the append-only record of software changes.
type ChangeLog = changelog.Log

// ChangeType distinguishes upgrades from configuration changes.
type ChangeType = changelog.Type

// ChangeType values.
const (
	Upgrade      = changelog.Upgrade
	ConfigChange = changelog.Config
)

// NewChangeLog returns an empty change log.
func NewChangeLog() *ChangeLog { return changelog.NewLog() }

// CombineChanges merges concurrent/consecutive changes of one service
// into a single combined change (§2.1's straw-man treatment).
var CombineChanges = changelog.Combine

// Series is a regularly sampled KPI time series (1-minute bins by
// default).
type Series = timeseries.Series

// NewSeries wraps values into a series.
var NewSeries = timeseries.New

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

// NewStore, NewMonitorServer, DialMonitor, NewAgent and
// ReadStoreSnapshot construct and restore the monitoring pieces
// (Store.WriteSnapshot is the counterpart dump).
var (
	NewStore          = monitor.NewStore
	NewMonitorServer  = monitor.NewServer
	DialMonitor       = monitor.Dial
	NewAgent          = monitor.NewAgent
	ReadStoreSnapshot = monitor.ReadSnapshot
)

// ---- Workload generation and evaluation ----

// Scenario is a synthetic evaluation corpus with ground truth.
type Scenario = workload.Scenario

// ScenarioParams sizes a scenario.
type ScenarioParams = workload.Params

// GenerateScenario, DefaultScenarioParams and the case-study generators
// build reproducible corpora.
var (
	GenerateScenario      = workload.Generate
	DefaultScenarioParams = workload.DefaultParams
	GenerateRedisCase     = workload.GenerateRedis
	GenerateAdClicksCase  = workload.GenerateAdClicks
)

// KPIType is the seasonal/stationary/variable KPI character.
type KPIType = stats.KPIType

// KPIType values.
const (
	Seasonal   = stats.Seasonal
	Stationary = stats.Stationary
	Variable   = stats.Variable
)

// ClassifyKPI labels a series by its character.
func ClassifyKPI(xs []float64) KPIType {
	return stats.ClassifyKPI(xs, stats.DefaultClassifierConfig())
}

// EvalMethod, EvalResult and RunEvaluation drive the paper-style
// evaluation (Table 1, Fig. 5).
type (
	// EvalMethod is an assessment method under evaluation.
	EvalMethod = eval.Method
	// EvalResult aggregates per-type confusion matrices and delays.
	EvalResult = eval.Result
	// Confusion is a weighted confusion matrix with the paper's
	// Precision/Recall/TNR/Accuracy accessors.
	Confusion = eval.Confusion
)

// RunEvaluation evaluates methods on a scenario.
var RunEvaluation = eval.Run

// Trace is the portable JSON corpus format; ExportTrace/LoadTrace and
// Trace.Build move corpora across the process boundary.
type Trace = workload.Trace

// Trace helpers.
var (
	ExportTrace = workload.ExportTrace
	LoadTrace   = workload.LoadTrace
	WriteTrace  = workload.WriteTrace
)

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
// Report.Trace when the assessor runs with a collector. (The Trace name
// is taken by the workload corpus format above.)
type PipelineTrace = obs.Trace

// KPITrace is one KPI's stage-by-stage record inside a PipelineTrace.
type KPITrace = obs.KPITrace

// StageHistogram is a lock-free bounded-bucket latency histogram.
type StageHistogram = obs.Histogram
