// Command kpigen emits synthetic KPI scenarios as JSON (the
// workload.Trace wire format) for use outside this repository —
// plotting, cross-language comparisons, regression fixtures. Traces
// round-trip: workload.LoadTrace + Trace.Build reconstruct an
// assessable source/topology/changelog from the file.
//
//	kpigen -changes 4 -history 2 -seed 1 -o scenario.json
//	kpigen -case redis -o redis.json
//	kpigen -case adclicks -o ads.json
//
// With -load it instead becomes a fleet-scale load generator: it dials
// a funnelserve ingest port and publishes -servers × -kpis synthetic
// series over -bins one-minute bins through a monitor.RobustPublisher
// (packed batch frames, a replay ring of four bins), then prints the
// achieved throughput and how many measurements the ring dropped:
//
//	kpigen -load 127.0.0.1:7101 -servers 200 -kpis 10 -bins 120
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/changelog"
	"repro/internal/monitor"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	var (
		kind    = flag.String("case", "scenario", `what to emit: "scenario", "redis" or "adclicks"`)
		changes = flag.Int("changes", 4, "scenario: number of software changes")
		history = flag.Int("history", 2, "days of history per series")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("o", "-", `output file ("-" = stdout)`)

		load    = flag.String("load", "", "ingest address to publish a synthetic fleet to instead of writing a trace (empty = off)")
		servers = flag.Int("servers", 100, "load: number of servers in the synthetic fleet")
		kpis    = flag.Int("kpis", 10, "load: KPIs per server")
		bins    = flag.Int("bins", 60, "load: one-minute bins to publish per KPI")
		epoch   = flag.String("epoch", "", "load: timestamp of the first bin (RFC3339; default now − bins)")
	)
	flag.Parse()

	if *load != "" {
		start := time.Now().UTC().Truncate(time.Minute).Add(-time.Duration(*bins) * time.Minute)
		if *epoch != "" {
			t, err := time.Parse(time.RFC3339, *epoch)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kpigen: bad -epoch:", err)
				os.Exit(2)
			}
			start = t
		}
		if err := runLoad(*load, *servers, *kpis, *bins, *seed, start); err != nil {
			fmt.Fprintln(os.Stderr, "kpigen:", err)
			os.Exit(1)
		}
		return
	}

	trace, err := build(*kind, *changes, *history, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpigen:", err)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kpigen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteTrace(w, trace); err != nil {
		fmt.Fprintln(os.Stderr, "kpigen:", err)
		os.Exit(1)
	}
}

// build assembles the requested trace.
func build(kind string, changes, history int, seed int64) (*workload.Trace, error) {
	switch kind {
	case "scenario":
		p := workload.DefaultParams()
		p.Changes = changes
		p.HistoryDays = history
		p.Seed = seed
		sc, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		return workload.ExportTrace(sc), nil
	case "redis":
		rc, err := workload.GenerateRedis(workload.RedisParams{
			Seed: seed, ClassA: 8, ClassB: 8, HistoryDays: history,
			ShiftFraction: 0.4, ChangeMinuteOfDay: 700, UnaffectedPerClassAB: 102,
		})
		if err != nil {
			return nil, err
		}
		return caseTrace("redis", rc.Start, rc.Change, rc.Source), nil
	case "adclicks":
		ac, err := workload.GenerateAdClicks(workload.AdParams{
			Seed: seed, HistoryDays: history + 4, ChangeMinuteOfDay: 600,
			DropFraction: 0.3, FixAfterMinutes: 90, Instances: 8,
		})
		if err != nil {
			return nil, err
		}
		return caseTrace("adclicks", ac.Start, ac.Change, ac.Source), nil
	default:
		return nil, fmt.Errorf("unknown case %q", kind)
	}
}

// runLoad publishes a synthetic fleet to an ingest endpoint through a
// reconnecting batch publisher, then reports throughput. Values are a
// deterministic diurnal curve plus a per-series phase shift, so two
// runs with the same parameters publish identical measurements — a
// crash-recovery drill can compare stores across restarts.
func runLoad(addr string, servers, kpis, bins int, seed int64, start time.Time) error {
	pub, err := monitor.DialRobustPublisher(addr, monitor.PublisherConfig{
		ReplayCapacity: 4 * servers * kpis,
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	total := 0
	for bin := 0; bin < bins; bin++ {
		t := start.Add(time.Duration(bin) * time.Minute)
		for s := 0; s < servers; s++ {
			for k := 0; k < kpis; k++ {
				key := topo.KPIKey{
					Scope:  topo.ScopeServer,
					Entity: fmt.Sprintf("srv-%d", s),
					Metric: fmt.Sprintf("load.kpi-%d", k),
				}
				phase := float64(seed) + float64(s*kpis+k)
				v := 50 + 10*math.Sin(2*math.Pi*(float64(bin)+phase)/1440)
				if err := pub.Publish(monitor.Measurement{Key: key, T: t, V: v}); err != nil {
					return err
				}
				total++
			}
		}
		if err := pub.Flush(); err != nil {
			return err
		}
	}
	if err := pub.Close(); err != nil {
		return err
	}
	elapsed := time.Since(t0)
	fmt.Printf("kpigen: published %d measurements (%d servers × %d KPIs × %d bins) in %v — %.0f meas/s, %d reconnects, %d dropped\n",
		total, servers, kpis, bins, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), pub.Reconnects(), pub.Dropped())
	return nil
}

// caseTrace wraps one case study's change and source into a trace.
func caseTrace(kind string, start time.Time, change changelog.Change, src *workload.MapSource) *workload.Trace {
	t := &workload.Trace{Kind: kind, Start: start, StepSec: 60}
	t.Changes = append(t.Changes, workload.TraceChange{
		ID: change.ID, Type: change.Type.String(), Service: change.Service,
		Servers: change.Servers, At: change.At,
	})
	for _, key := range src.Keys() {
		s, _ := src.Series(key)
		t.Series = append(t.Series, workload.TraceSeries{
			Scope: key.Scope.String(), Entity: key.Entity, Metric: key.Metric, Values: s.Values,
		})
	}
	return t
}
