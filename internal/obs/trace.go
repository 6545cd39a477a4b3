package obs

import (
	"math"
	"sync"
	"time"
)

// StageTiming is one stage of one KPI's journey through the funnel.
type StageTiming struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"ns"`
}

// KPITrace records one KPI's path through the assessment pipeline:
// the ordered stage timings, the detector score at decision time, the
// chosen control kind, the DiD estimate, and the final verdict.
type KPITrace struct {
	Key    string        `json:"key"`
	Stages []StageTiming `json:"stages,omitempty"`
	// Score is the detector's peak change score inside the declared
	// run (0 when nothing was detected).
	Score float64 `json:"score,omitempty"`
	// Kind is the change classification (level shift / ramp).
	Kind string `json:"kind,omitempty"`
	// Control names the DiD control group (concurrent / historical /
	// none).
	Control string `json:"control,omitempty"`
	// Alpha and TStat are the DiD impact estimate and its
	// significance (finite-sanitized for JSON).
	Alpha float64 `json:"alpha,omitempty"`
	TStat float64 `json:"t_stat,omitempty"`
	// Verdict is the final per-KPI conclusion.
	Verdict string `json:"verdict"`
	// GapFraction is the fraction of the assessment window with no
	// data (missing or stale bins); an inconclusive verdict records
	// here why the pipeline declined to decide.
	GapFraction float64 `json:"gap_fraction,omitempty"`
	// BinToVerdictNanos is this verdict's end-to-end data freshness:
	// emission time minus the node-local arrival time of the KPI's most
	// recent ingested bin. Zero when the series source tracks no
	// arrival watermarks (offline corpora, snapshot-restored series
	// before their first live append).
	BinToVerdictNanos int64 `json:"bin_to_verdict_ns,omitempty"`
	// Err records a per-KPI processing problem.
	Err string `json:"error,omitempty"`
}

// AddStage appends one stage timing; no-op on a nil trace.
func (k *KPITrace) AddStage(stage string, d time.Duration) {
	if k == nil {
		return
	}
	k.Stages = append(k.Stages, StageTiming{Stage: stage, Nanos: int64(d)})
}

// Trace is the ordered record of one change assessment: every KPI of
// the impact set with its stage timings and decision evidence.
type Trace struct {
	ChangeID string    `json:"change_id"`
	Service  string    `json:"service"`
	At       time.Time `json:"at"`
	Nanos    int64     `json:"total_ns"`
	// BinToVerdictNanos is the worst (largest) per-KPI bin-to-verdict
	// latency of this assessment — how stale the report's freshest
	// evidence is at emission time. Zero when no assessed KPI had an
	// arrival watermark.
	BinToVerdictNanos int64       `json:"bin_to_verdict_ns,omitempty"`
	KPIs              []*KPITrace `json:"kpis"`
}

// Add appends one KPI trace; no-op on a nil trace.
func (t *Trace) Add(k *KPITrace) {
	if t == nil || k == nil {
		return
	}
	t.KPIs = append(t.KPIs, k)
}

// Finite sanitizes a float for JSON encoding: NaN becomes 0 and ±Inf
// clamps to ±MaxFloat64 (encoding/json rejects non-finite values; a
// DiD t-statistic is ±Inf when the standard error vanishes).
func Finite(f float64) float64 {
	switch {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return math.MaxFloat64
	case math.IsInf(f, -1):
		return -math.MaxFloat64
	default:
		return f
	}
}

// TraceStore is a bounded, concurrency-safe ring of recent traces
// keyed by change ID. When full, the oldest trace is evicted.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*Trace
	order []string // oldest first
}

// NewTraceStore returns a store holding at most capacity traces
// (minimum 1).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{cap: capacity, byID: make(map[string]*Trace)}
}

// Put inserts or replaces the trace for its change ID.
func (s *TraceStore) Put(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.byID[t.ChangeID]; exists {
		s.byID[t.ChangeID] = t
		return
	}
	for len(s.order) >= s.cap {
		delete(s.byID, s.order[0])
		s.order = s.order[1:]
	}
	s.byID[t.ChangeID] = t
	s.order = append(s.order, t.ChangeID)
}

// Get returns the trace for a change ID.
func (s *TraceStore) Get(changeID string) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[changeID]
	return t, ok
}

// IDs returns the stored change IDs, oldest first.
func (s *TraceStore) IDs() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of stored traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
