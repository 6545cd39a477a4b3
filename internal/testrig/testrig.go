// Package testrig holds the comparisons the verdict and recovery tests
// of several packages share: a report against its reference, field by
// field, and a store against another, bin by bin. It is test
// infrastructure, like internal/faultfs and internal/faultnet, and
// imports neither funnel nor anything that imports it, so funnel's own
// tests can use it.
package testrig

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro/internal/monitor"
)

// ReportDiff lists how got differs from want, one line per differing
// assessment; both are *funnel.Report. The change, impact set, change
// bin and each Assessment compare through their %+v text, which prints
// every field — one added later too — a float as its shortest
// round-trip form (bit for bit, any NaN equal to any NaN) and an error
// as its message. Trace is left out: its timings are wall-clock. With
// peak, a detection peak within 1e-9 relative counts as equal.
func ReportDiff(got, want any, peak bool) []string {
	g, w := reflect.Indirect(reflect.ValueOf(got)), reflect.Indirect(reflect.ValueOf(want))
	head := func(r reflect.Value) string {
		return fmt.Sprintf("%+v %+v %d", r.FieldByName("Change"), r.FieldByName("Set"), r.FieldByName("ChangeBin").Int())
	}
	var out []string
	if gh, wh := head(g), head(w); gh != wh {
		out = append(out, fmt.Sprintf("got %s, want %s", gh, wh))
	}
	gas, was := g.FieldByName("Assessments"), w.FieldByName("Assessments")
	if gas.Len() != was.Len() {
		return append(out, fmt.Sprintf("%d assessments, want %d", gas.Len(), was.Len()))
	}
	for i := range was.Len() {
		ga, wa := reflect.New(gas.Type().Elem()).Elem(), was.Index(i)
		ga.Set(gas.Index(i))
		if peak {
			gp, wp := ga.FieldByName("Detection").FieldByName("Peak"), wa.FieldByName("Detection").FieldByName("Peak")
			if math.Abs(gp.Float()-wp.Float()) <= 1e-9*math.Abs(wp.Float()) {
				gp.SetFloat(wp.Float())
			}
		}
		if gs, ws := fmt.Sprintf("%+v", ga), fmt.Sprintf("%+v", wa); gs != ws {
			out = append(out, fmt.Sprintf("%v: got %s, want %s", wa.FieldByName("Key"), gs, ws))
		}
	}
	return out
}

// StoreDiff names how got's contents differ from want's, "" when they
// do not: the epoch, the sizes Stats reports — chunks, their encoded
// bytes, tail bins, tombstones — and every series' bins, bit for bit.
func StoreDiff(got, want *monitor.Store) string {
	gs, ws := got.Stats(), want.Stats()
	if !gs.Start.Equal(ws.Start) {
		return fmt.Sprintf("epoch %v, want %v", gs.Start, ws.Start)
	}
	if gs.Start = ws.Start; gs != ws {
		return fmt.Sprintf("stats %+v, want %+v", gs, ws)
	}
	keys := want.Keys()
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	for _, k := range keys {
		g, gok := got.Series(k)
		w, _ := want.Series(k)
		if !gok {
			return fmt.Sprintf("%v: no series", k)
		}
		if !g.Start.Equal(w.Start) || len(g.Values) != len(w.Values) {
			return fmt.Sprintf("%v: %d bins from %v, want %d from %v", k, len(g.Values), g.Start, len(w.Values), w.Start)
		}
		for i, v := range w.Values {
			if math.Float64bits(g.Values[i]) != math.Float64bits(v) {
				return fmt.Sprintf("%v: bin %d is %v, want %v", k, i, g.Values[i], v)
			}
		}
	}
	return ""
}
