// Package funnel implements the FUNNEL assessment pipeline of Fig. 3:
// for a software change it identifies the impact set (§3.1), detects
// KPI behavior changes with the improved, IKA-accelerated SST
// (§3.2.1–§3.2.3), and determines whether each detected change was
// caused by the software change using Difference-in-Differences against
// the dark-launch control group (§3.2.4) or against same-time-of-day
// historical measurements when no concurrent control exists (§3.2.5).
package funnel

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/changelog"
	"repro/internal/detect"
	"repro/internal/did"
	"repro/internal/obs"
	"repro/internal/sst"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// SeriesSource supplies KPI series by key; monitor.Store and
// workload.MapSource both satisfy it. An assessment reads windows through
// RangeInto, and a key's full Series only where a window alone cannot
// reproduce the full series' answer.
type SeriesSource interface {
	// Series returns the key's full series from the epoch, and whether
	// the key exists.
	Series(key topo.KPIKey) (*timeseries.Series, bool)
	// Start returns the source's epoch (bin 0 of every full series).
	Start() time.Time
	// Step returns the bin width.
	Step() time.Duration
	// RangeInto copies the key's bins covering [from, to), clamped to
	// the stored span, into dst (reusing its capacity). It returns the
	// window values, the window's start time, and whether the clamped
	// window is non-empty.
	RangeInto(key topo.KPIKey, from, to time.Time, dst []float64) ([]float64, time.Time, bool)
}

// ArrivalSource is the optional second face of a SeriesSource that
// tracks when each KPI's most recent measurement arrived at this node
// (monitor.Store implements it). When the assessor's source provides
// it and a collector is configured, every verdict is stamped with its
// bin-to-verdict latency — verdict emission time minus the assessed
// KPI's arrival watermark — the deployment-facing half of the paper's
// "within minutes" claim. Offline sources (workload.MapSource, replay
// corpora) simply do not implement it and pay nothing.
type ArrivalSource interface {
	ArrivalWatermark(key topo.KPIKey) (time.Time, bool)
}

// Config tunes the assessor. Zero fields take the documented defaults.
type Config struct {
	// SST configures the change scorer; zero value gives the paper's
	// ω = 9, η = 3, k = 5 with normalization and the robustness filter
	// enabled. Its spans also size the assessment window around the
	// change.
	SST sst.Config
	// DetectorThreshold is the change-score threshold (default 1.6).
	// Calibrate with detect.Calibrate for production use.
	DetectorThreshold float64
	// Persistence is the minimum run length in bins (default 7, §4.1).
	Persistence int
	// AlphaThreshold is the |α| DiD decision threshold on normalized
	// KPIs (default 1.0). §3.2.4 suggests "a small value like 0.5" for
	// change-sensitive services in the KPI's own units; our samples are
	// robustly normalized, so the unit is one baseline-MAD and 1.0 is
	// the comparable operating point.
	AlphaThreshold float64
	// AlphaOverrides sets per-service |α| thresholds: §3.2.4 sets "a
	// small value like 0.5" for change-sensitive services
	// (advertisement, online shopping) and larger values elsewhere.
	// The key is the service owning the assessed KPI (the changed
	// service for its servers/instances/aggregate, the affected
	// service for propagated aggregates).
	AlphaOverrides map[string]float64
	// MinTStat additionally requires |α/SE(α)| to reach this value
	// before a change is attributed (default 4). Eq. 15's explicit
	// purpose is "to obtain the standard errors and significance
	// levels for the DiD estimator"; without it, the ≈0.4-σ estimation
	// noise of 30-bin periods leaks borderline attributions.
	MinTStat float64
	// DiDWindow is the pre/post period length ω for the DiD estimator
	// in bins (default 30).
	DiDWindow int
	// HistoryDays is how many historical days build the seasonal
	// control group (default 30, §3.2.5).
	HistoryDays int
	// WindowBins is the assessment half-window around the change; KPI
	// changes are searched within ±WindowBins of the change (default
	// 60 — the operators consider 1 h enough, §4.1).
	WindowBins int
	// ServerMetrics and InstanceMetrics name the KPIs to collect at
	// each scope. Empty means every metric the source has is out of
	// scope — callers must say what to monitor.
	ServerMetrics, InstanceMetrics []string
	// GapPolicy selects how missing bins inside the assessment window
	// are treated when the feed is healthy enough to assess at all:
	// GapInterpolate (default) fills them linearly, GapMask
	// additionally suppresses every change score whose window overlaps
	// an interpolated bin, so a detection can never be declared out of
	// invented data.
	GapPolicy GapPolicy
	// StaleBins is the staleness horizon: when the assessment window
	// is missing at least this many trailing bins (the feed stopped
	// mid-window), the KPI is Inconclusive regardless of the overall
	// gap fraction (default 15). It also bounds how long the
	// Streamer waits for a stalled probe series once the rest of the
	// store has reached the ready bin.
	StaleBins int
	// AssessWorkers bounds how many KPIs of one impact set are assessed
	// concurrently inside a single Assess call. Zero means GOMAXPROCS;
	// 1 forces the serial path. Reports are deterministic regardless of
	// the setting: assessments keep impact-set order, and per-KPI traces
	// are merged after all workers finish.
	AssessWorkers int
	// SkipDiD disables cause determination: every detected change is
	// attributed to the software change. This reproduces the "Improved
	// SST" row of Table 1.
	SkipDiD bool
	// VerifyParallelTrends additionally runs the DiD placebo test on
	// the pre-change periods and sets Assessment.TrendWarning when the
	// parallel-trends assumption looks violated (baseline
	// contamination, pre-existing drift). The verdict is unchanged —
	// the warning tells the operations team to double-check manually.
	VerifyParallelTrends bool
	// Obs, when set, collects per-stage counters and latency
	// histograms (one clock read per stage per KPI, and one around each
	// SST sweep for the per-window figure) and attaches a
	// per-assessment trace to each Report. Nil (the default) disables
	// all instrumentation. Either way the pipeline never reads it back:
	// every other Report field is the same with and without a collector.
	Obs *obs.Collector
}

// DefaultDetectorThreshold is the zero-value detection threshold. It
// suits robustly-normalized scores with the 7-bin persistence rule;
// production deployments calibrate per corpus with detect.Calibrate.
const DefaultDetectorThreshold = 1.6

// maxGapFraction (MaxGapFraction in the docs) bounds the missing share
// of the ±WindowBins window: a gappier KPI is Inconclusive, never flagged.
const maxGapFraction = 0.25

// withDefaults resolves the zero-value conventions.
func (c Config) withDefaults() Config {
	if c.DetectorThreshold == 0 {
		c.DetectorThreshold = DefaultDetectorThreshold
	}
	if c.Persistence <= 0 {
		c.Persistence = detect.DefaultPersistence
	}
	if c.AlphaThreshold == 0 {
		c.AlphaThreshold = 1.0
	}
	if c.MinTStat == 0 {
		c.MinTStat = 4
	}
	if c.DiDWindow <= 0 {
		c.DiDWindow = 30
	}
	if c.HistoryDays <= 0 {
		c.HistoryDays = 30
	}
	if c.WindowBins <= 0 {
		c.WindowBins = 60
	}
	if c.StaleBins <= 0 {
		c.StaleBins = 15
	}
	zero := sst.Config{}
	if c.SST == zero {
		c.SST = sst.Config{Normalize: true, RobustFilter: true}
	}
	return c
}

// Verdict is FUNNEL's conclusion about one KPI of the impact set.
type Verdict int

const (
	// NoChange means no persistent behavior change was detected.
	NoChange Verdict = iota
	// ChangedByOther means a change was detected but DiD attributed it
	// to factors other than the software change (seasonality, common
	// shocks, ...).
	ChangedByOther
	// ChangedBySoftware means a change was detected and DiD attributed
	// it to the software change.
	ChangedBySoftware
	// Inconclusive means the KPI feed was too gappy or stale inside the
	// assessment window to support any verdict: the measurements needed
	// to tell "no change" from "change" never arrived. The gap fraction
	// is reported so the operations team can find the broken feed; an
	// interrupted feed must never be mistaken for a software-caused
	// regression (or a healthy no-change).
	Inconclusive
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case NoChange:
		return "no-change"
	case ChangedByOther:
		return "changed-by-other"
	case ChangedBySoftware:
		return "changed-by-software"
	case Inconclusive:
		return "inconclusive"
	default:
		return "unknown"
	}
}

// GapPolicy selects how missing bins are treated during detection.
type GapPolicy int

const (
	// GapInterpolate fills missing bins linearly before scoring (the
	// pre-existing behavior, suited to short sporadic dropouts).
	GapInterpolate GapPolicy = iota
	// GapMask fills missing bins for the scorer's benefit but masks
	// every change score whose SST window overlaps a filled bin, so
	// runs cannot be declared out of interpolated data. Suited to
	// bursty outages where interpolation would fake a level shift.
	GapMask
)

// Assessment is the per-KPI outcome delivered to the operations team
// (step 12 of Fig. 3).
type Assessment struct {
	Key     topo.KPIKey
	Verdict Verdict
	// Detection is the underlying detection (meaningful unless
	// NoChange); bin indices are absolute positions in the KPI series.
	Detection detect.Detection
	// Alpha is the DiD impact estimator (0 when DiD did not run).
	Alpha float64
	// TStat is α/SE(α), the DiD significance statistic (0 when DiD
	// did not run; ±Inf when the standard error vanishes).
	TStat float64
	// ControlKind records which control group DiD used.
	ControlKind ControlKind
	// TrendWarning is set (only when Config.VerifyParallelTrends is
	// on) when the DiD placebo test found the treated and control
	// groups drifting apart *before* the change, weakening the causal
	// read of Alpha.
	TrendWarning bool
	// GapFraction is the fraction of the assessment window whose bins
	// never arrived (0 for a healthy feed). It is always populated so
	// reports can show feed health, and it explains an Inconclusive
	// verdict.
	GapFraction float64
	// ControlSimilarity is the Pearson correlation between the treated
	// series and the control average over the pre-change period, when a
	// concurrent control was used (0 otherwise). §3.2.4's first
	// observation — load-balanced instances move together — predicts
	// values near 1; a low value warns that this control group is a
	// poor counterfactual.
	ControlSimilarity float64
	// Err records a per-KPI processing problem (missing series, no
	// control); such KPIs are delivered for manual inspection.
	Err error
}

// ControlKind says where the DiD control group came from. The zero
// value means DiD did not run (no detection, SkipDiD, or error).
type ControlKind int

const (
	// ControlConcurrent: cservers/cinstances under Dark Launching.
	ControlConcurrent ControlKind = iota + 1
	// ControlHistorical: same time-of-day windows of prior days.
	ControlHistorical
)

// String names the control kind.
func (c ControlKind) String() string {
	switch c {
	case ControlConcurrent:
		return "concurrent"
	case ControlHistorical:
		return "historical"
	default:
		return "none"
	}
}

// Report is the result of assessing one software change.
type Report struct {
	Change      changelog.Change
	Set         *topo.ImpactSet
	ChangeBin   int
	Assessments []Assessment
	// Trace is the per-KPI stage record of this assessment; nil
	// unless the assessor was configured with a collector.
	Trace *obs.Trace
}

// Flagged returns the assessments attributed to the software change.
func (r *Report) Flagged() []Assessment {
	var out []Assessment
	for _, a := range r.Assessments {
		if a.Verdict == ChangedBySoftware {
			out = append(out, a)
		}
	}
	return out
}

// Assessor runs the FUNNEL pipeline against a series source and a
// topology.
type Assessor struct {
	cfg    Config
	source SeriesSource
	topo   *topo.Topology
	scorer *sst.SlidingScorer
	det    *detect.Gate
	obs    *obs.Collector
	// estimate is the cause stage run on the normalized treated/control
	// windows; every stage returns did.Result, so the attribution rule
	// is stage-agnostic.
	estimate func(tp, tq, cp, cq []float64) (did.Result, error)
	// scores, when non-nil, is consulted before the SST sweep with the
	// exact raw segment about to be scored; a hit replaces the sweep
	// with pre-computed scores. The streaming assessor (stream.go)
	// installs its incremental score states here; the batch path leaves
	// it nil and pays one nil check.
	scores scoreCache
	fp     footprint // what an assessment reads around a change
	// fetchBufs recycles windowed-fetch buffers across Assess calls.
	fetchBufs sync.Pool
}

// scoreCache supplies pre-computed SST score series for an assessment
// window. cachedScores returns the scores for the window starting at
// absolute store bin absLo of key — aligned with segment, NaN at
// unscorable positions, and safe for the caller to mutate — or nil when
// no bit-identical pre-scored window exists (the caller then runs the
// batch sweep; correctness never depends on a hit).
type scoreCache interface {
	cachedScores(key topo.KPIKey, absLo int, segment []float64) []float64
}

// Stages replaces the assessor's detection or cause stage; a nil field
// keeps the deployed one. The bake-off and the CLI's -detector and
// -causality flags use it to run the arena's alternatives through the
// same impact set, persistence rule and attribution rule.
type Stages struct {
	// Scorer replaces the deployed sliding IKA SST. It is swept one
	// ScoreAt per position, inside the window Config.SST's spans size.
	// DetectorThreshold's 1.6 default is tuned to normalized SST scores,
	// so set a calibrated threshold (detect.Calibrate) with it.
	Scorer sst.Scorer
	// Estimate replaces classical DiD (did.Estimate), for example with
	// the Bayesian structural time-series stage (bsts.Estimate).
	Estimate func(tp, tq, cp, cq []float64) (did.Result, error)
}

// NewAssessor builds the deployed assessor. It returns an error when
// the SST configuration is invalid.
func NewAssessor(source SeriesSource, tp *topo.Topology, cfg Config) (*Assessor, error) {
	return NewAssessorWith(source, tp, cfg, Stages{})
}

// NewAssessorWith builds an assessor whose detection or cause stage is
// replaced by st's non-nil fields.
func NewAssessorWith(source SeriesSource, tp *topo.Topology, cfg Config, st Stages) (*Assessor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.SST.Validate(); err != nil {
		return nil, err
	}
	// The deployed scorer is the incremental sliding sweep, which
	// maintains the Hankel Gram operators across consecutive window
	// positions instead of rebuilding them and scores every window cold,
	// so its scores are per-window IKA's to 1e-9 — the paper's algorithm
	// is what the accuracy tables measure. The gate below reads a score
	// only through `score >= DetectorThreshold` (and the peak of the
	// scores that pass) inside a run it declares, so the sweep is told
	// that threshold as its Floor and the gate's run rule: it answers
	// every position whose Eq. 11 multiplier is already under the
	// threshold, and every candidate no declarable run can reach, by a
	// bound instead of an eigen-solve.
	var scorer *sst.SlidingScorer
	if st.Scorer == nil {
		scorer = sst.NewSliding(sst.NewIKA(cfg.SST))
	} else {
		scorer = sst.NewSliding(st.Scorer)
	}
	if st.Estimate == nil {
		st.Estimate = did.Estimate
	}
	det := detect.New(scorer, cfg.DetectorThreshold)
	det.Persistence = cfg.Persistence
	// §4.1's rule requires 7 minutes of change evidence, not 7
	// gap-free windows: on bursty KPIs the score wobbles through a
	// transition, so the run tolerates short sub-threshold stretches.
	det.MaxGap = 5
	if st.Scorer == nil {
		scorer.Floor = cfg.DetectorThreshold
		scorer.MinRun, scorer.RunLink = det.RunRule()
	}
	if col := cfg.Obs; col != nil {
		det.OnRun = func(declared bool) {
			if declared {
				col.Add(obs.CtrRunsDeclared, 1)
			} else {
				col.Add(obs.CtrRunsDiscarded, 1)
			}
		}
	}
	return &Assessor{cfg: cfg, source: source, topo: tp, scorer: scorer, det: det, obs: cfg.Obs, estimate: st.Estimate,
		fp: newFootprint(&cfg, source.Step())}, nil
}

// stamp records a stage duration in the collector's histogram and on
// the per-KPI trace. No-op without a collector, so callers can stamp
// unconditionally with the (zero) start obtained from obs.Now.
func (a *Assessor) stamp(kt *obs.KPITrace, stage string, start time.Time) {
	if a.obs == nil {
		return
	}
	d := time.Since(start)
	a.obs.Observe(stage, d)
	kt.AddStage(stage, d)
}

// Config returns the resolved configuration.
func (a *Assessor) Config() Config { return a.cfg }

// errNoKPIs is the error for a change whose impact set holds no KPI
// the configuration names.
func errNoKPIs(id string) error {
	return fmt.Errorf("funnel: impact set of %s has no KPIs — configure ServerMetrics/InstanceMetrics", id)
}

// Assess runs the full pipeline for one software change. With a
// collector configured, every stage is counted and timed, and the
// report carries (and the collector stores) a per-KPI trace.
func (a *Assessor) Assess(change changelog.Change) (*Report, error) {
	t0 := a.obs.Now()
	set, err := a.topo.IdentifyImpactSet(change.Service, change.Servers)
	a.obs.ObserveSince(obs.StageImpactSet, t0)
	if err != nil {
		return nil, err
	}
	keys := set.TreatedKPIs(a.cfg.ServerMetrics, a.cfg.InstanceMetrics)
	if len(keys) == 0 {
		return nil, errNoKPIs(change.ID)
	}
	report := &Report{Change: change, Set: set}
	var tr *obs.Trace
	if a.obs != nil {
		tr = &obs.Trace{ChangeID: change.ID, Service: change.Service, At: change.At}
	}

	// Fan the impact set over a bounded worker pool. Every per-KPI
	// result lands in its key's slot, so the report is byte-identical to
	// the serial order no matter how the workers interleave; control
	// averages are memoized per assessment so concurrent KPIs sharing a
	// control group compute it once.
	n := len(keys)
	// Series are read through the two depths (near, deep) of a shared
	// fetcher that decodes only the window each reader needs, once per KPI,
	// into pooled buffers. Reports carry indices and scalars, never fetched
	// values, so the buffers recycle as soon as this assessment returns.
	fx := newWinFetcher(a.source, change.At, &a.fp, &a.fetchBufs)
	defer fx.release()
	assessments := make([]Assessment, n)
	bins := make([]int, n)
	var kts []*obs.KPITrace
	if tr != nil {
		kts = make([]*obs.KPITrace, n)
	}
	run := func(i int) {
		var kt *obs.KPITrace
		if tr != nil {
			kt = &obs.KPITrace{Key: keys[i].String()}
			kts[i] = kt
		}
		assessments[i], bins[i] = a.assessKPI(change, set, keys[i], kt, fx)
	}
	workers := a.cfg.AssessWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range keys {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	report.Assessments = assessments
	// Merge post-barrier in impact-set order: the change bin replicates
	// the serial loop's last-valid-write, and the trace gains KPIs in
	// the same order the serial path appended them.
	for i := range keys {
		if bins[i] >= 0 {
			report.ChangeBin = bins[i]
		}
		if tr != nil {
			tr.Add(kts[i])
		}
	}
	if tr != nil {
		// Bin-to-verdict: stamp each KPI verdict with how stale its
		// freshest evidence is at emission time. Gated on the trace so the
		// collector-less fast path stays allocation-free; sources with no
		// arrival tracking (offline corpora) skip it via the type check,
		// and keys with no watermark (e.g. service-scope aggregates, which
		// are computed rather than ingested) are skipped per key.
		if as, ok := a.source.(ArrivalSource); ok {
			verdictAt := time.Now()
			for i := range keys {
				arrival, ok := as.ArrivalWatermark(keys[i])
				if !ok {
					continue
				}
				lat := verdictAt.Sub(arrival)
				if lat < 0 {
					lat = 0
				}
				a.obs.Observe(obs.StageBinToVerdict, lat)
				kts[i].BinToVerdictNanos = int64(lat)
				if int64(lat) > tr.BinToVerdictNanos {
					tr.BinToVerdictNanos = int64(lat)
				}
			}
		}
		tr.Nanos = int64(time.Since(t0))
		report.Trace = tr
		a.obs.PutTrace(tr)
		a.obs.ObserveSince(obs.StageAssess, t0)
		a.obs.Add(obs.CtrChangesAssessed, 1)
		a.obs.Add(obs.CtrKPIsAssessed, int64(len(report.Assessments)))
		a.obs.Add(obs.CtrKPIsFlagged, int64(len(report.Flagged())))
		a.obs.Add(obs.CtrHistoryFetches, fx.deep.fetches.Load())
	}
	return report, nil
}

// assessKPI runs detection and determination for one KPI. bin is the
// change's bin index in the KPI's series timeline, or -1 when no series
// resolved (the same bin for every KPI of a change; the caller stores
// the last valid one on the report). kt, when non-nil, accumulates this
// KPI's stage trace; the caller attaches it to the change trace after
// all workers finish. fx's near depth is where the KPI and its
// concurrent control are read from, its deep depth where determine reads
// a historical control; each memoizes its group averages across the KPIs
// of one assessment. fx also translates window-relative bin indices back
// to full-series positions for everything the report carries.
func (a *Assessor) assessKPI(change changelog.Change, set *topo.ImpactSet, key topo.KPIKey, kt *obs.KPITrace, fx *winFetcher) (out Assessment, bin int) {
	out = Assessment{Key: key}
	bin = -1
	if kt != nil {
		defer func() {
			kt.Verdict = out.Verdict.String()
			kt.GapFraction = out.GapFraction
			if out.Verdict == ChangedByOther || out.Verdict == ChangedBySoftware {
				kt.Score = out.Detection.Peak
				kt.Kind = out.Detection.Kind.String()
				kt.Control = out.ControlKind.String()
				kt.Alpha = obs.Finite(out.Alpha)
				kt.TStat = obs.Finite(out.TStat)
			}
			if out.Err != nil {
				kt.Err = out.Err.Error()
			}
		}()
	}
	series, ok := a.treatedSeries(&fx.near, set, key)
	if !ok {
		out.Err = fmt.Errorf("funnel: no series for %v", key)
		return out, bin
	}
	// Everything below indexes into series' own timeline; off maps those
	// positions back to the full-series frame for report consumers.
	off := fx.offsetOf(series)
	// Gap accounting runs on the raw series, before interpolation: a
	// bin is missing when no measurement ever arrived for it. The
	// change bin is computed arithmetically so a feed severed before
	// the change still lands in the gap gate below instead of an
	// index-out-of-range error (which downstream would conservatively
	// flag — a false alarm born of a broken feed, the exact failure
	// the gate exists to prevent).
	gaps := gapBitmap(series)
	changeBin := int(change.At.Sub(series.Start) / series.Step)
	if changeBin < 0 {
		out.Err = fmt.Errorf("funnel: change time outside series for %v", key)
		return out, bin
	}
	bin = changeBin + off

	// Feed-health gate: a window with too many missing bins, or one
	// whose feed went stale mid-window, cannot support a verdict in
	// either direction.
	lo, hi := a.fp.gateWindow(changeBin)
	gapFrac, staleTail := gapStats(gaps, lo, hi)
	out.GapFraction = gapFrac
	if gapFrac > maxGapFraction || staleTail >= a.cfg.StaleBins {
		out.Verdict = Inconclusive
		out.Err = fmt.Errorf("funnel: feed for %v too gappy to assess: %.0f%% of the ±%d-bin window missing (stale tail %d bins)",
			key, gapFrac*100, a.cfg.WindowBins, staleTail)
		a.obs.Add(obs.CtrInconclusive, 1)
		return out, bin
	}
	if series.HasGaps() {
		series = series.Clone().FillGaps()
	}

	// Step 2 of Fig. 3: KPI change detection over the assessment
	// window around the change.
	detection, found := a.detectAround(series, gaps, changeBin, key, off, kt)
	if !found {
		return out, bin // step 3: no performance change
	}
	detection.Start += off
	detection.DeclaredAt += off
	detection.AvailableAt += off
	detection.End += off
	out.Detection = detection
	if a.cfg.SkipDiD {
		out.Verdict = ChangedBySoftware
		return out, bin
	}

	// Steps 4–11: determine the cause.
	det, err := a.determine(change, set, key, series, changeBin, kt, fx)
	out.Alpha = det.res.Alpha
	out.TStat = det.res.TStat
	out.ControlKind = det.kind
	out.TrendWarning = det.trendWarn
	out.ControlSimilarity = det.similarity
	if err != nil {
		// No usable control: deliver the detection for manual
		// inspection, flagged as software-caused (conservative).
		out.Err = err
		out.Verdict = ChangedBySoftware
		return out, bin
	}
	if det.causal {
		out.Verdict = ChangedBySoftware
	} else {
		out.Verdict = ChangedByOther
	}
	return out, bin
}

// treatedSeries resolves the series a KPI is assessed on, as read at
// depth d: the stored series; for a service-scope key the source lacks,
// the average of the service's instances; and for the changed service's
// own aggregate under Dark Launching, the tinstance average.
func (a *Assessor) treatedSeries(d *fetchDepth, set *topo.ImpactSet, key topo.KPIKey) (*timeseries.Series, bool) {
	series, ok := d.Series(key)
	if !ok && key.Scope == topo.ScopeService {
		// The paper's centralized database stores service KPIs as
		// aggregations of instance KPIs (§2.2); when the source lacks
		// the aggregate, compute it from the service's instances.
		if agg, err := d.groupAverage(a.topo.InstancesOf(key.Entity), key.Metric); err == nil {
			series, ok = agg, true
		}
	}
	if !ok {
		return nil, false
	}
	if key.Scope == topo.ScopeService && key.Entity == set.ChangedService && set.Dark() {
		// §3.2.4: for the changed service's aggregate, "determining the
		// relative performance of the tinstances is sufficient". Under
		// Dark Launching the aggregate dilutes the effect by the
		// untreated instances, so both detection and determination run
		// on the tinstance average instead.
		if treated, err := d.groupAverage(set.TInstances, key.Metric); err == nil {
			series = treated
		}
	}
	return series, true
}

// detectAround runs the detector on the change's detection segment
// (footprint.segment, clamped to the series) and returns the first
// detection whose run touches the post-change half, with indices
// translated to absolute series positions. The scoring pass and the
// persistence gating are timed as separate stages. key and off identify the window in the store's absolute
// frame for the streaming score cache; a hit skips the sweep entirely
// (the dominant cost of a verdict), a miss changes nothing.
func (a *Assessor) detectAround(series *timeseries.Series, gaps []bool, changeBin int, key topo.KPIKey, off int, kt *obs.KPITrace) (detect.Detection, bool) {
	lo, hi := a.fp.segment(changeBin)
	hi = min(hi, series.Len())
	if lo >= hi {
		return detect.Detection{}, false
	}
	segment := series.Values[lo:hi]
	ts := a.obs.Now()
	var scores []float64
	if a.scores != nil {
		if scores = a.scores.cachedScores(key, lo+off, segment); scores != nil {
			a.obs.Add(obs.CtrStreamCacheHits, 1)
		} else {
			a.obs.Add(obs.CtrStreamCacheMisses, 1)
		}
	}
	if scores == nil {
		tw := a.obs.Now()
		var solved, bounded int
		scores, solved, bounded = a.scorer.Sweep(segment)
		a.obs.ObserveSinceN(obs.StageSSTWindow, tw, solved+bounded)
		a.obs.Add(obs.CtrWindowsSolved, int64(solved))
		a.obs.Add(obs.CtrWindowsBounded, int64(bounded))
	}
	if a.cfg.GapPolicy == GapMask && len(gaps) >= hi {
		// Suppress scores whose SST window touches an interpolated bin:
		// NaN scores terminate persistence runs, so no detection can be
		// declared out of invented data. Position t's window reads
		// [t−PastSpan, t+FutureSpan−1]; MaskScores' past counts t itself.
		scores = detect.MaskScores(scores, gaps[lo:hi], a.fp.past+1, a.fp.fut)
	}
	a.stamp(kt, obs.StageSSTScore, ts)
	tp := a.obs.Now()
	dets := a.det.DetectScored(segment, scores)
	a.stamp(kt, obs.StagePersist, tp)
	for _, d := range dets {
		d.Start += lo
		d.DeclaredAt += lo
		d.AvailableAt += lo
		d.End += lo
		// Only changes that persist into the post-change period can be
		// change-induced; the KPI change may begin slightly before the
		// logged change time (clock skew, scorer lookahead).
		if d.End >= changeBin-2 {
			return d, true
		}
	}
	return detect.Detection{}, false
}

// gapBitmap marks which bins of a raw (unfilled) series carry no
// measurement.
func gapBitmap(s *timeseries.Series) []bool {
	out := make([]bool, s.Len())
	for i, v := range s.Values {
		out[i] = math.IsNaN(v)
	}
	return out
}

// gapStats measures feed health inside the gap gate window [lo, hi)
// (never empty) of a series' gap bitmap: frac is the fraction of window
// bins with no measurement (interior gaps plus any part of the window
// past the series end — a feed that died never delivers those bins),
// staleTail is the length of the consecutive missing run at the
// window's end (a feed that stopped mid-window and never came back).
func gapStats(gaps []bool, lo, hi int) (frac float64, staleTail int) {
	missing := 0
	n := len(gaps)
	for i := lo; i < hi; i++ {
		if i >= n || gaps[i] {
			missing++
		}
	}
	for i := hi - 1; i >= lo; i-- {
		if i >= n || gaps[i] {
			staleTail++
		} else {
			break
		}
	}
	return float64(missing) / float64(hi-lo), staleTail
}

// determination is the outcome of the Fig. 3 cause-determination
// subtree for one KPI.
type determination struct {
	causal     bool
	res        did.Result
	kind       ControlKind
	trendWarn  bool
	similarity float64
}

// determine applies the Fig. 3 decision tree for cause determination.
// Control-group selection and DiD estimation are timed as separate
// stages. series is the gap-filled treated series read at fx's near
// depth, which also supplies a concurrent control; only the historical
// arm reads the deep one.
func (a *Assessor) determine(change changelog.Change, set *topo.ImpactSet, key topo.KPIKey, series *timeseries.Series, changeBin int, kt *obs.KPITrace, fx *winFetcher) (determination, error) {
	w := a.cfg.DiDWindow
	if changeBin-w < 0 || changeBin+w > series.Len() {
		return determination{}, fmt.Errorf("funnel: DiD periods out of range for %v", key)
	}

	// Step 4: affected-service KPIs have no concurrent control; step 7:
	// neither do full launches. The *changed* service's aggregate is
	// special: §3.2.4 compares the tinstances (treated) against the
	// cinstances (control) for it, so under Dark Launching it does have
	// a concurrent control group.
	tc := a.obs.Now()
	controls := set.ControlKPIs(key)
	if key.Scope == topo.ScopeService && key.Entity == set.ChangedService && set.Dark() {
		// The caller already swapped in the tinstance average as the
		// treated series; the cinstances are its concurrent control.
		for _, in := range set.CInstances {
			controls = append(controls, topo.KPIKey{Scope: topo.ScopeInstance, Entity: in, Metric: key.Metric})
		}
	}
	if set.Dark() && len(controls) > 0 {
		// Steps 8–10: concurrent control group.
		out := determination{kind: ControlConcurrent}
		control, cerr := fx.near.controlAverage(controls)
		if cerr != nil {
			a.stamp(kt, obs.StageDiDControl, tc)
			return determination{}, cerr
		}
		tPre, tPost := series.Around(changeBin, w)
		cb, inRange := control.IndexOf(change.At)
		if !inRange || cb-w < 0 || cb+w > control.Len() {
			a.stamp(kt, obs.StageDiDControl, tc)
			return determination{}, fmt.Errorf("funnel: control series too short for %v", key)
		}
		cPre, cPost := control.Around(cb, w)
		// §3.2.4 observation 1: verify the load-balancing similarity
		// the DiD comparison rests on.
		out.similarity = stats.Correlation(tPre, cPre)
		a.stamp(kt, obs.StageDiDControl, tc)

		te := a.obs.Now()
		np, nq, ncp, ncq := did.NormalizeGroups(tPre, tPost, cPre, cPost)
		res, derr := a.estimate(np, nq, ncp, ncq)
		if derr != nil {
			a.stamp(kt, obs.StageDiDEstimate, te)
			return determination{similarity: out.similarity}, derr
		}
		if a.cfg.VerifyParallelTrends {
			// cb locates the change in the control's own timeline: when a
			// windowed fetch fell back to a full series on one side, the
			// two series' bin 0 differ, and equal indices would misalign.
			if chk, terr := did.ParallelTrendsAt(series, control, changeBin, cb, w, a.cfg.AlphaThreshold); terr == nil && !chk.Parallel {
				out.trendWarn = true
			}
		}
		out.res = res
		out.causal = a.causal(res, serviceOf(set, key))
		a.stamp(kt, obs.StageDiDEstimate, te)
		return out, nil
	}

	// Steps 5–6, 11: seasonal exclusion against historical windows.
	// Weekday-matched (weekly-lag) controls are preferred when a full
	// week of history exists: they cancel the day-of-week effect
	// exactly; the day-based pool is the fallback. This is the one
	// reader of the KPI's history: take the treated series again at that
	// depth, in its own timeline.
	hist, found := a.treatedSeries(&fx.deep, set, key)
	if !found {
		a.stamp(kt, obs.StageDiDControl, tc)
		return determination{}, fmt.Errorf("funnel: no history for %v", key)
	}
	if hist.HasGaps() {
		hist = hist.Clone().FillGaps()
	}
	series, changeBin = hist, int(change.At.Sub(hist.Start)/hist.Step)
	var cPre, cPost []float64
	ok := false
	if a.cfg.HistoryDays >= 7 {
		cPre, cPost, ok = did.HistoricalControlWeekly(series, changeBin, w, a.cfg.HistoryDays/7)
	}
	if !ok {
		cPre, cPost, ok = did.HistoricalControl(series, changeBin, w, a.cfg.HistoryDays)
	}
	a.stamp(kt, obs.StageDiDControl, tc)
	if !ok {
		return determination{}, fmt.Errorf("funnel: no historical control for %v", key)
	}
	te := a.obs.Now()
	tPre, tPost := series.Around(changeBin, w)
	np, nq, ncp, ncq := did.NormalizeGroups(tPre, tPost, cPre, cPost)
	res, derr := a.estimate(np, nq, ncp, ncq)
	if derr != nil {
		a.stamp(kt, obs.StageDiDEstimate, te)
		return determination{}, derr
	}
	out := determination{kind: ControlHistorical, res: res}
	if a.cfg.VerifyParallelTrends {
		if chk, terr := did.PlaceboSeasonal(series, changeBin, w, a.cfg.HistoryDays, a.cfg.AlphaThreshold); terr == nil && !chk.Parallel {
			out.trendWarn = true
		}
	}
	out.causal = a.causal(res, serviceOf(set, key))
	a.stamp(kt, obs.StageDiDEstimate, te)
	return out, nil
}

// serviceOf resolves which service's sensitivity governs a KPI: the
// entity itself for service-scope keys, the changed service otherwise.
func serviceOf(set *topo.ImpactSet, key topo.KPIKey) string {
	if key.Scope == topo.ScopeService {
		return key.Entity
	}
	return set.ChangedService
}

// causal applies the two-part attribution rule: the impact estimate
// must be material (|α| past the service's threshold) and
// statistically significant (|t| past MinTStat).
func (a *Assessor) causal(res did.Result, service string) bool {
	thr := a.cfg.AlphaThreshold
	if o, ok := a.cfg.AlphaOverrides[service]; ok && o > 0 {
		thr = o
	}
	return res.Causal(thr) && res.Significant(a.cfg.MinTStat)
}

// avgEntry is one memoized average; once guards the single computation.
type avgEntry struct {
	once sync.Once
	s    *timeseries.Series
	err  error
}

// groupAverage averages one metric across a set of instances.
func (d *fetchDepth) groupAverage(instances []string, metric string) (*timeseries.Series, error) {
	keys := make([]topo.KPIKey, 0, len(instances))
	for _, in := range instances {
		keys = append(keys, topo.KPIKey{Scope: topo.ScopeInstance, Entity: in, Metric: metric})
	}
	return d.controlAverage(keys)
}

// controlAverage pulls and averages the control-group series (§3.2.4
// uses the average of all control KPIs so hotspots wash out), memoized
// at this depth.
func (d *fetchDepth) controlAverage(keys []topo.KPIKey) (*timeseries.Series, error) {
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k.String())
		sb.WriteByte(0)
	}
	e, _ := d.avgs.LoadOrStore(sb.String(), &avgEntry{})
	entry := e.(*avgEntry)
	entry.once.Do(func() { entry.s, entry.err = d.averageSeries(keys, false) })
	return entry.s, entry.err
}

// averageSeries is the uncached align-and-average over whichever of the
// keys resolve to series: their windows at this depth, or with full set,
// the source's full series.
func (d *fetchDepth) averageSeries(keys []topo.KPIKey, full bool) (*timeseries.Series, error) {
	read := d.Series
	if full {
		read = d.f.src.Series
	}
	var series []*timeseries.Series
	for _, k := range keys {
		s, ok := read(k)
		if !ok {
			continue
		}
		if s.HasGaps() {
			s = s.Clone().FillGaps()
		}
		series = append(series, s)
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("funnel: no control series available")
	}
	aligned, err := timeseries.Align(series...)
	if err != nil {
		if !full {
			// Windowed members that share no span: one of them ended
			// before the window and fell back to its short full series.
			// Only the full series reproduce the full read's answer.
			return d.averageSeries(keys, true)
		}
		return nil, err
	}
	return timeseries.Average(aligned)
}

// DetectionDelay returns the wall-clock delay in bins between the true
// change start and the assessment's detection availability, for
// evaluation against labelled data (Fig. 5). ok is false when the
// assessment carries no detection.
func DetectionDelay(a Assessment, trueStart int) (int, bool) {
	if a.Verdict == NoChange {
		return 0, false
	}
	d := a.Detection.AvailableAt - trueStart
	if d < 0 {
		d = 0
	}
	return d, true
}
