// Command funneltop is a live terminal dashboard over a running
// funnelserve's telemetry surface. It polls /metrics/history (the
// daemon's self-scrape ring) and /traces, and renders an operator view:
// ingest rate, store shard balance, WAL churn, the streaming
// assessor's backlog and p99 bin-to-verdict trajectory, per-stage
// latency quantiles as sparklines, and the most recent verdicts with
// their end-to-end bin-to-verdict latency.
//
//	funneltop -addr 127.0.0.1:7104
//	funneltop -addr 127.0.0.1:7104 -once        # one frame, no ANSI clear
//	funneltop -addr 127.0.0.1:7104 -frames 10   # ten frames, then exit
//
// The dashboard needs nothing beyond the daemon's own -debug endpoint;
// there is no agent to install and no state kept between frames.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7104", "funnelserve -debug address to poll")
		interval = flag.Duration("interval", 2*time.Second, "poll and redraw cadence")
		once     = flag.Bool("once", false, "render a single frame and exit (no screen clear)")
		frames   = flag.Int("frames", 0, "exit after this many frames (0 = run until interrupted)")
	)
	flag.Parse()

	base := "http://" + *addr
	for n := 0; ; n++ {
		snap, err := poll(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "funneltop:", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear
		}
		render(os.Stdout, *addr, snap)
		if *once || (*frames > 0 && n+1 >= *frames) {
			return
		}
		time.Sleep(*interval)
	}
}

// snapshot is one poll of the daemon's telemetry surface.
type snapshot struct {
	hist   obs.HistoryDump
	traces []*obs.Trace // most recent last, at most maxTraces
}

const maxTraces = 5

// poll fetches the history ring and the tail of the trace store.
func poll(base string) (*snapshot, error) {
	s := &snapshot{}
	if err := getJSON(base+"/metrics/history", &s.hist); err != nil {
		return nil, err
	}
	var ids []string
	if err := getJSON(base+"/traces", &ids); err != nil {
		return nil, err
	}
	if len(ids) > maxTraces {
		ids = ids[len(ids)-maxTraces:]
	}
	for _, id := range ids {
		var tr obs.Trace
		if err := getJSON(base+"/traces/"+id, &tr); err != nil {
			continue // trace may have been evicted between the two requests
		}
		s.traces = append(s.traces, &tr)
	}
	return s, nil
}

// getJSON fetches one URL and decodes its JSON body.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("GET %s: %v", url, err)
	}
	return nil
}

// render draws one frame. It is a pure function of the snapshot so the
// dashboard is testable without a terminal.
func render(w io.Writer, addr string, s *snapshot) {
	h := &s.hist
	fmt.Fprintf(w, "funneltop — %s — %s up %s  goroutines %.0f  heap %s\n",
		addr, time.Now().Format("15:04:05"),
		(time.Duration(last(h.Series["uptime_seconds"])) * time.Second).Truncate(time.Second),
		last(h.Series["runtime.goroutines"]),
		formatBytes(last(h.Series["runtime.heap_bytes"])))
	fmt.Fprintf(w, "history: %d samples @ %gs\n\n", len(h.Times), h.StepSeconds)

	// Ingest panel: per-second rate trajectory plus lifetime total.
	rates := h.Rates[obs.CtrIngested]
	fmt.Fprintf(w, "ingest   %s %8.0f/s  total %.0f  batches %.0f  key resolves %.0f lookups %.0f  rejects %.0f\n",
		sparkline(rates, 30), last(rates),
		last(h.Series[obs.CtrIngested]),
		last(h.Series[obs.CtrBatchFrames]),
		last(h.Series[obs.CtrIngestKeyResolves]),
		last(h.Series[obs.CtrIngestKeyLookups]),
		last(h.Series[obs.CtrFrameRejects]))
	fmt.Fprintf(w, "conns    active %.0f  subs %.0f  reconnects %.0f  drops %.0f\n",
		last(h.Series[obs.CtrConnsActive]),
		last(h.Series[obs.CtrSubsActive]),
		last(h.Series[obs.CtrReconnects]),
		last(h.Series[obs.CtrConnDrops]))

	// Shard balance: the per-shard series-count gauges, if registered.
	if shards := shardSeries(h, "monitor.shard_series"); len(shards) > 0 {
		lo, hi, total := shardSpread(shards)
		fmt.Fprintf(w, "shards   %d stripes  series/shard min %d max %d  total %d %s\n",
			len(shards), lo, hi, total, balanceNote(lo, hi))
	}

	// Chunked-store compression: sealed chunks and how far below the
	// flat []float64 footprint the resident bytes sit.
	if comp := last(h.Series["monitor.store_compressed_bytes"]); comp > 0 {
		raw := last(h.Series["monitor.store_raw_bytes"])
		note := ""
		if raw > 0 {
			note = fmt.Sprintf("  ratio %.1f×", raw/comp)
		}
		fmt.Fprintf(w, "store    %s resident (flat %s)  chunks %.0f%s\n",
			formatBytes(comp), formatBytes(raw),
			last(h.Series["monitor.store_chunks"]), note)
	}

	// WAL churn, present only for persistent stores.
	if wb := last(h.Series["monitor.wal_bytes"]); wb > 0 || len(h.Series[obs.CtrWALAppends]) > 0 {
		fmt.Fprintf(w, "wal      %s on disk  appends %.0f  syncs %.0f  compactions %.0f  rotations %.0f\n",
			formatBytes(wb),
			last(h.Series[obs.CtrWALAppends]),
			last(h.Series[obs.CtrWALSyncs]),
			last(h.Series[obs.CtrCompactions]),
			last(h.Series[obs.GaugeWALRotations]))
	}

	// Disk health: persist state, quarantined chunks and degraded reads
	// — the operator's first stop when a verdict comes back degraded.
	if line := diskHealthLine(h); line != "" {
		fmt.Fprintf(w, "disk     %s\n", line)
	}

	// Streaming assessment, present only when a streamer is attached:
	// backlog pressure (queue depth and sheds), the score-state
	// population, cache economics, and the freshness SLO itself — the
	// p99 bin-to-verdict trajectory.
	for _, line := range streamPanel(h) {
		fmt.Fprintf(w, "%s\n", line)
	}

	// Scoring economy, present once a sweep ran: how many window
	// positions the Eq. 11 bound answered against how many were
	// eigen-solved, and how many series were read at history depth.
	if line := scoringLine(h); line != "" {
		fmt.Fprintf(w, "%s\n", line)
	}

	// Stage latency panel: p99 trajectory as a sparkline, current
	// p50/p99, and the cumulative observation count.
	fmt.Fprintf(w, "\n%-16s %-32s %10s %10s %8s\n", "stage", "p99 trend", "p50", "p99", "count")
	for _, stage := range []string{
		obs.StageImpactSet, obs.StageSSTWindow, obs.StageSSTScore,
		obs.StageDiDControl, obs.StageDiDEstimate, obs.StagePersist,
		obs.StageAssess, obs.StageBinToVerdict,
	} {
		st, ok := h.Stages[stage]
		if !ok || len(st.Count) == 0 || st.Count[len(st.Count)-1] == 0 {
			continue
		}
		p99s := make([]float64, len(st.P99us))
		for i, v := range st.P99us {
			p99s[i] = float64(v)
		}
		n := len(st.Count) - 1
		fmt.Fprintf(w, "%-16s %-32s %10s %10s %8d\n", stage,
			sparkline(p99s, 30),
			formatMicros(st.P50us[n]), formatMicros(st.P99us[n]), st.Count[n])
	}

	// Recent verdicts with their end-to-end freshness.
	fmt.Fprintf(w, "\nrecent verdicts (newest last)\n")
	if len(s.traces) == 0 {
		fmt.Fprintf(w, "  none yet\n")
	}
	for _, tr := range s.traces {
		flagged := 0
		for _, k := range tr.KPIs {
			if k.Verdict == "changed-by-software" {
				flagged++
			}
		}
		b2v := "b2v n/a"
		if tr.BinToVerdictNanos > 0 {
			b2v = "b2v " + time.Duration(tr.BinToVerdictNanos).Truncate(time.Millisecond).String()
		}
		fmt.Fprintf(w, "  %-12s %-14s %2d/%2d flagged  %s  assess %s\n",
			tr.ChangeID, tr.Service, flagged, len(tr.KPIs), b2v,
			time.Duration(tr.Nanos).Truncate(time.Microsecond))
	}
}

// last returns the final element of a series, 0 when empty.
func last(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// sparkline renders the tail of a series as a fixed-width bar string,
// scaled to the window's own maximum. An empty series renders as
// dashes so panel columns stay aligned.
func sparkline(s []float64, width int) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	if len(s) > width {
		s = s[len(s)-width:]
	}
	var max float64
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	out := make([]rune, 0, width)
	for i := 0; i < width-len(s); i++ {
		out = append(out, '·')
	}
	for _, v := range s {
		if max <= 0 || v <= 0 {
			out = append(out, levels[0])
			continue
		}
		idx := int(v / max * float64(len(levels)-1))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		out = append(out, levels[idx])
	}
	return string(out)
}

// shardSeries collects the latest value of every labeled per-shard
// gauge with the given base name, keyed by shard index.
func shardSeries(h *obs.HistoryDump, base string) map[int]int64 {
	out := map[int]int64{}
	for name, series := range h.Series {
		idx, ok := shardIndex(name, base)
		if !ok {
			continue
		}
		out[idx] = int64(last(series))
	}
	return out
}

// shardIndex parses `base{shard="N"}` registry names.
func shardIndex(name, base string) (int, bool) {
	rest, ok := strings.CutPrefix(name, base+`{shard="`)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, `"}`)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return n, true
}

// shardSpread reduces the per-shard map to min, max and total.
func shardSpread(shards map[int]int64) (lo, hi, total int64) {
	keys := make([]int, 0, len(shards))
	for k := range shards {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	lo = shards[keys[0]]
	for _, k := range keys {
		v := shards[k]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		total += v
	}
	return lo, hi, total
}

// balanceNote flags a visibly skewed shard distribution.
func balanceNote(lo, hi int64) string {
	if hi > 0 && lo*4 < hi {
		return "(skewed)"
	}
	return "(balanced)"
}

// formatMicros renders a microsecond quantile as a human duration.
func formatMicros(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).String()
}

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// streamPanel renders the streaming-assessment panel, or nil when the
// collector carries no streamer telemetry (pull-mode daemon). The
// first line is backlog and cache state; the second, present once any
// verdict has been stamped, is the p99 bin-to-verdict sparkline — the
// SLO the streaming mode exists to hold down.
func streamPanel(h *obs.HistoryDump) []string {
	queueSeries, attached := h.Series[obs.GaugeStreamQueue]
	advances := last(h.Series[obs.CtrStreamAdvances])
	if !attached && advances == 0 {
		return nil
	}
	hits := last(h.Series[obs.CtrStreamCacheHits])
	misses := last(h.Series[obs.CtrStreamCacheMisses])
	hitRate := "n/a"
	if hits+misses > 0 {
		hitRate = fmt.Sprintf("%.0f%%", 100*hits/(hits+misses))
	}
	shedNote := ""
	if sheds := last(h.Series[obs.CtrStreamSheds]); sheds > 0 {
		shedNote = fmt.Sprintf("  SHEDS %.0f", sheds)
	}
	lines := []string{fmt.Sprintf(
		"stream   queue %s %3.0f  tracked %.0f  pending %.0f  advances %.0f  reads tail %.0f full %.0f  cache-hit %s  invalidations %.0f%s",
		sparkline(queueSeries, 12), last(queueSeries),
		last(h.Series[obs.GaugeStreamTracked]),
		last(h.Series[obs.GaugeStreamPending]),
		advances,
		last(h.Series[obs.CtrStreamTailReads]),
		last(h.Series[obs.CtrStreamFullReads]),
		hitRate,
		last(h.Series[obs.CtrStreamInvalidations]), shedNote)}
	if st, ok := h.Stages[obs.StageBinToVerdict]; ok && len(st.Count) > 0 && st.Count[len(st.Count)-1] > 0 {
		p99s := make([]float64, len(st.P99us))
		for i, v := range st.P99us {
			p99s[i] = float64(v)
		}
		n := len(st.Count) - 1
		lines = append(lines, fmt.Sprintf("         b2v p99 %s %s  verdicts %d",
			sparkline(p99s, 30), formatMicros(st.P99us[n]), st.Count[n]))
	}
	return lines
}

// scoringLine renders the scoring-economy line, or "" before any SST
// window was scored.
func scoringLine(h *obs.HistoryDump) string {
	bounded := last(h.Series[obs.CtrWindowsBounded])
	solved := last(h.Series[obs.CtrWindowsSolved])
	if bounded+solved == 0 {
		return ""
	}
	return fmt.Sprintf("scoring  windows %.0f  bounded %.0f (%.0f%%)  solved %.0f  history fetches %.0f",
		bounded+solved, bounded, 100*bounded/(bounded+solved), solved,
		last(h.Series[obs.CtrHistoryFetches]))
}

// diskHealthLine renders the disk-health panel body, or "" when the
// collector exposes no persistence telemetry (in-memory store with no
// quarantines).
func diskHealthLine(h *obs.HistoryDump) string {
	stateSeries, persistent := h.Series["monitor.persist_state"]
	quarantined := last(h.Series["monitor.quarantined_chunks"])
	if !persistent && quarantined == 0 {
		return ""
	}
	state := "HEALTHY"
	switch last(stateSeries) {
	case 1:
		state = "DEGRADED (re-arm pending)"
	case 2:
		state = "FAILED (memory-only)"
	}
	line := state
	if errs := last(h.Series["monitor.disk_errors"]); errs > 0 {
		line += fmt.Sprintf("  errors %.0f  re-arms %.0f", errs, last(h.Series["monitor.wal_rearms"]))
	}
	if quarantined > 0 {
		line += fmt.Sprintf("  QUARANTINED CHUNKS %.0f  degraded reads %.0f",
			quarantined, last(h.Series["monitor.degraded_reads"]))
	}
	if ms := last(h.Series[obs.CtrRecoveryMillis]); ms > 0 {
		line += fmt.Sprintf("  recovery took %.0f ms", ms)
	}
	// More than one generation at open: the store died at least twice
	// without a compaction in between.
	if gens := last(h.Series[obs.CtrRecoveryGenerations]); gens > 0 {
		line += fmt.Sprintf("  replayed %s of log in %.0f generations",
			formatBytes(last(h.Series[obs.CtrRecoveryLogBytes])), gens)
	}
	return line
}
