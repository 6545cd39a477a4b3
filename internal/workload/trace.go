package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/changelog"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// Trace is the portable JSON form of a KPI corpus: the change log, the
// per-key series and (optionally) ground-truth labels. cmd/kpigen emits
// it; LoadTrace reads it back, so externally produced traces — real
// monitoring exports included — can be assessed by the pipeline.
type Trace struct {
	Kind    string        `json:"kind"`
	Start   time.Time     `json:"start"`
	StepSec int           `json:"step_seconds"`
	Changes []TraceChange `json:"changes"`
	Series  []TraceSeries `json:"series"`
	Truth   []TraceTruth  `json:"truth,omitempty"`
}

// TraceChange is one software change in wire form.
type TraceChange struct {
	ID      string    `json:"id"`
	Type    string    `json:"type"`
	Service string    `json:"service"`
	Servers []string  `json:"servers"`
	At      time.Time `json:"at"`
}

// TraceSeries is one KPI series in wire form.
type TraceSeries struct {
	Scope  string    `json:"scope"`
	Entity string    `json:"entity"`
	Metric string    `json:"metric"`
	Values []float64 `json:"values"`
}

// TraceTruth is one ground-truth label in wire form.
type TraceTruth struct {
	ChangeID string `json:"change_id"`
	Key      string `json:"kpi"`
	Changed  bool   `json:"changed_by_software"`
	StartBin int    `json:"start_bin,omitempty"`
}

// SourceTrace renders a change log and every series of a source in wire
// form, series in key order, so one source always encodes to the same
// bytes.
func SourceTrace(kind string, log *changelog.Log, src *MapSource) *Trace {
	t := &Trace{Kind: kind, Start: src.Start(), StepSec: int(src.Step().Seconds())}
	for _, c := range log.All() {
		t.Changes = append(t.Changes, TraceChange{
			ID: c.ID, Type: c.Type.String(), Service: c.Service, Servers: c.Servers, At: c.At,
		})
	}
	for _, key := range src.Keys() {
		s, _ := src.Series(key)
		t.Series = append(t.Series, TraceSeries{
			Scope: key.Scope.String(), Entity: key.Entity, Metric: key.Metric, Values: s.Values,
		})
	}
	return t
}

// ExportTrace renders a scenario in wire form, its truth labels in
// (change, key) order.
func ExportTrace(sc *Scenario) *Trace {
	t := SourceTrace("scenario", sc.Log, sc.Source)
	for _, cs := range sc.Cases {
		from := len(t.Truth)
		for key, tr := range cs.Truth {
			t.Truth = append(t.Truth, TraceTruth{
				ChangeID: cs.Change.ID, Key: key.String(), Changed: tr.Changed, StartBin: tr.StartBin,
			})
		}
		labels := t.Truth[from:]
		sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	}
	return t
}

// WriteTrace encodes a trace as JSON.
func WriteTrace(w io.Writer, t *Trace) error {
	return json.NewEncoder(w).Encode(t)
}

// LoadTrace decodes a trace from JSON.
func LoadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	if t.StepSec <= 0 {
		return nil, fmt.Errorf("workload: trace has nonpositive step %d", t.StepSec)
	}
	return &t, nil
}

// parseScope maps the wire scope names back to topo scopes.
func parseScope(s string) (topo.Scope, error) {
	switch s {
	case "server":
		return topo.ScopeServer, nil
	case "instance":
		return topo.ScopeInstance, nil
	case "service":
		return topo.ScopeService, nil
	default:
		return 0, fmt.Errorf("workload: unknown scope %q", s)
	}
}

// Build reconstructs the assessable pieces from a trace: the series
// source, a topology inferred from the keys (instances register their
// service/server pair; bare servers and services are registered too),
// and the change log. Truth labels are returned keyed by change then
// KPI for evaluation use.
func (t *Trace) Build() (*MapSource, *topo.Topology, *changelog.Log, map[string]map[topo.KPIKey]Truth, error) {
	step := time.Duration(t.StepSec) * time.Second
	source := NewMapSource(t.Start, step)
	tp := topo.NewTopology()

	for _, ts := range t.Series {
		scope, err := parseScope(ts.Scope)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		key := topo.KPIKey{Scope: scope, Entity: ts.Entity, Metric: ts.Metric}
		source.Put(key, timeseries.New(t.Start, step, ts.Values))
		switch scope {
		case topo.ScopeServer:
			tp.AddServer(ts.Entity)
		case topo.ScopeService:
			tp.AddService(ts.Entity)
		case topo.ScopeInstance:
			if svc, srv, ok := splitInstanceID(ts.Entity); ok {
				tp.Deploy(svc, srv)
			}
		}
	}

	log := changelog.NewLog()
	for _, c := range t.Changes {
		typ := changelog.Upgrade
		if c.Type == "config" {
			typ = changelog.Config
		}
		// Ensure every treated server hosts the service even when the
		// trace carries no instance series for it.
		tp.AddService(c.Service)
		for _, srv := range c.Servers {
			tp.Deploy(c.Service, srv)
		}
		if err := log.Append(changelog.Change{
			ID: c.ID, Type: typ, Service: c.Service, Servers: c.Servers, At: c.At,
		}); err != nil {
			return nil, nil, nil, nil, err
		}
	}

	truth := make(map[string]map[topo.KPIKey]Truth)
	for _, tt := range t.Truth {
		key, err := parseKPIKey(tt.Key)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if truth[tt.ChangeID] == nil {
			truth[tt.ChangeID] = make(map[topo.KPIKey]Truth)
		}
		truth[tt.ChangeID][key] = Truth{Changed: tt.Changed, StartBin: tt.StartBin, ConfounderAt: -1}
	}
	return source, tp, log, truth, nil
}

// splitInstanceID inverts topo.InstanceID.
func splitInstanceID(id string) (service, server string, ok bool) {
	i := strings.LastIndex(id, "@")
	if i <= 0 || i == len(id)-1 {
		return "", "", false
	}
	return id[:i], id[i+1:], true
}

// parseKPIKey inverts topo.KPIKey.String (scope/entity/metric; the
// entity may itself contain "@" but not "/").
func parseKPIKey(s string) (topo.KPIKey, error) {
	parts := strings.SplitN(s, "/", 3)
	if len(parts) != 3 {
		return topo.KPIKey{}, fmt.Errorf("workload: bad KPI key %q", s)
	}
	scope, err := parseScope(parts[0])
	if err != nil {
		return topo.KPIKey{}, err
	}
	return topo.KPIKey{Scope: scope, Entity: parts[1], Metric: parts[2]}, nil
}
