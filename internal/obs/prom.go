package obs

import (
	"expvar"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (format version 0.0.4), standard library
// only. The same registry that renders the /metrics JSON renders here:
// expvar.Int counters become funnel_<name>_total, gauges (expvar.Func
// values and the known up/down counters) become funnel_<name>, and the
// per-stage latency histograms become one
// funnel_stage_duration_seconds family with a stage label and the
// cumulative _bucket/_sum/_count series Prometheus expects. Registry
// names built with LabeledName carry their label block through
// verbatim (values are escaped at construction time).

// LabeledName builds a registry variable name carrying Prometheus-style
// labels: LabeledName("monitor.shard_series", "shard", "3") yields
// `monitor.shard_series{shard="3"}`. The JSON metrics document treats
// the result as an opaque key; WritePrometheus splits it back into
// metric name and label block. Label values are escaped per the
// Prometheus text format (backslash, double quote, newline); label
// keys are sanitized to the allowed character set. Arguments after
// base alternate key, value; a trailing odd argument is ignored.
func LabeledName(base string, pairs ...string) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelKey(pairs[i]))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sanitizeMetricName maps a registry name onto the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*: dots and any other outlawed
// runes become underscores. Callers prefix "funnel_", so the result
// never starts with a digit.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelKey maps a string onto the label name grammar
// [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelKey(key string) string {
	var b strings.Builder
	b.Grow(len(key) + 1)
	for i, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the text format: backslash
// to \\, double quote to \", newline to \n.
func escapeLabelValue(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the text format: backslash to
// \\, newline to \n.
func escapeHelp(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promGaugeNames marks the expvar.Int registry entries that are
// up/down gauges rather than monotone counters (expvar.Func entries
// are always gauges).
var promGaugeNames = map[string]bool{
	CtrConnsActive:         true,
	CtrSubsActive:          true,
	CtrRecoveryGenerations: true, // set once, by the open
	CtrRecoveryLogBytes:    true,
}

// promHelp carries HELP strings for the best-known registry bases;
// everything else falls back to a generic line.
var promHelp = map[string]string{
	CtrIngested:            "Measurements appended to the KPI store.",
	CtrPushes:              "Measurements delivered to subscribers.",
	CtrPushDrops:           "Measurements lost on slow subscribers.",
	CtrConnsActive:         "Currently open monitor network connections.",
	CtrSubsActive:          "Live store subscriptions.",
	CtrBatchFrames:         "Id batch (0x05) ingest frames applied.",
	CtrIngestKeyResolves:   "Series lookups by ingest key handle tables (first sight or after a prune).",
	CtrIngestKeyLookups:    "Key defines read by the ingest socket (one per key a connection names).",
	CtrWALAppends:          "Measurements appended to the write-ahead log.",
	CtrWALKeyDefines:       "Write-ahead log entries that define a series key (first measurement per log generation).",
	CtrCompactions:         "WAL compactions (snapshot dump + log truncation).",
	GaugeWALLogBytes:       "Record bytes in the live log generation.",
	GaugeWALRotations:      "Log generations started by a compaction or a durability re-arm.",
	GaugeSnapshotBytes:     "Bytes of the installed snapshot; the log compacts once it grows as large.",
	CtrRecoveryMillis:      "Milliseconds the store spent in crash recovery before it could take its first bin.",
	CtrRecoveryGenerations: "Log generations the last open found and replayed (more than one: it died before compacting).",
	CtrRecoveryLogBytes:    "Bytes of log records the last open replayed.",
	CtrChangesAssessed:     "Completed change assessments.",
	CtrWindowsBounded:      "SST window positions answered by an upper bound no declarable run reads (under the threshold, or in a candidate cluster short of the persistence rule).",
	CtrWindowsSolved:       "SST window positions whose every eigen-solve ran.",
	CtrHistoryFetches:      "Series decoded at the deep (HistoryDays) depth for a historical control.",
	CtrStreamTailReads:     "Streaming advances that read only the bins past the consumed prefix.",
	CtrStreamFullReads:     "Streaming advances that re-read and verified the whole window.",
	CtrKPIsFlagged:         "KPI changes attributed to software changes.",
	CtrRunsDiscarded:       "Score runs the persistence rule discarded, runs over the sweep's bounds included.",
	CtrDiskErrors:          "Disk I/O failures observed by the persister.",
	CtrWALRearms:           "Durability re-arms after transient disk faults.",
	CtrPersistErrors:       "Persist-state transitions out of healthy.",
}

// helpFor resolves the HELP string for a registry base name.
func helpFor(base string) string {
	if h, ok := promHelp[base]; ok {
		return h
	}
	return "FUNNEL collector variable " + base + "."
}

// splitLabeledName splits a registry name into its base and the label
// block LabeledName attached ("" when the name carries none).
func splitLabeledName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// formatPromFloat renders a sample value; integral values print
// without an exponent so counters stay human-readable.
func formatPromFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// numericValue extracts a float64 from an expvar.Func result.
func numericValue(v any) (float64, bool) {
	switch n := v.(type) {
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case float64:
		return n, true
	default:
		return 0, false
	}
}

// promStageFamily is the shared histogram family name for the
// per-stage latency histograms.
const promStageFamily = "funnel_stage_duration_seconds"

// WritePrometheus renders every collector variable in the Prometheus
// text exposition format. Counters, gauges and histograms are grouped
// per metric family with HELP and TYPE lines; histogram buckets are
// cumulative with upper bounds in seconds and a terminal +Inf bucket.
// A nil collector writes nothing (an empty, valid exposition).
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	var b strings.Builder
	type stageSnap struct {
		stage string
		snap  HistogramSnapshot
	}
	var stages []stageSnap
	lastFamily := ""
	// expvar.Map.Do iterates in sorted key order, so label variants of
	// one base are contiguous and each family header is written once.
	c.vars.Do(func(kv expvar.KeyValue) {
		base, labels := splitLabeledName(kv.Key)
		var value float64
		var counter bool
		switch v := kv.Value.(type) {
		case *expvar.Int:
			value = float64(v.Value())
			counter = !promGaugeNames[base]
		case expvar.Func:
			f, ok := numericValue(v.Value())
			if !ok {
				return
			}
			value = f
		case *Histogram:
			stages = append(stages, stageSnap{
				stage: strings.TrimPrefix(kv.Key, "stage."),
				snap:  v.Snapshot(),
			})
			return
		default:
			return
		}
		family := "funnel_" + sanitizeMetricName(base)
		typ := "gauge"
		if counter {
			family += "_total"
			typ = "counter"
		}
		if family != lastFamily {
			fmt.Fprintf(&b, "# HELP %s %s\n", family, escapeHelp(helpFor(base)))
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, typ)
			lastFamily = family
		}
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(&b, "%s%s %s\n", family, labels, formatPromFloat(value))
	})
	if len(stages) > 0 {
		fmt.Fprintf(&b, "# HELP %s Latency of FUNNEL pipeline stages (bin_to_verdict is verdict emission minus last bin arrival).\n", promStageFamily)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", promStageFamily)
		for _, s := range stages {
			stage := escapeLabelValue(s.stage)
			var cum int64
			for i := 0; i < histBuckets; i++ {
				cum += s.snap.Buckets[i]
				le := strconv.FormatFloat(bucketUpper(i).Seconds(), 'g', -1, 64)
				fmt.Fprintf(&b, "%s_bucket{stage=%q,le=%q} %d\n", promStageFamily, stage, le, cum)
			}
			fmt.Fprintf(&b, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", promStageFamily, stage, s.snap.Count)
			fmt.Fprintf(&b, "%s_sum{stage=%q} %s\n", promStageFamily, stage,
				strconv.FormatFloat(time.Duration(s.snap.SumNanos).Seconds(), 'g', -1, 64))
			fmt.Fprintf(&b, "%s_count{stage=%q} %d\n", promStageFamily, stage, s.snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
