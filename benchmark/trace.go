package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into the program: a layer
// boundary seen from outside. Parent is the index of the enclosing span
// (−1 for a root) and Op groups the spans of one operation (a bin, a
// change, a recovery).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// The harness drives every workload from one goroutine, so the tracer
// needs no lock. A disabled tracer costs one branch per call, which is
// how the untraced rounds of a traced run are measured next to the
// traced ones.
type tracer struct {
	enabled bool
	t0      time.Time
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (−1 when disabled).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil || !t.enabled {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span behind handle.
func (t *tracer) end(handle int) {
	if handle < 0 {
		return
	}
	t.spans[handle].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanDurations returns the durations (milliseconds) of every closed
// span with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans dumps the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
