package obs

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// validatePromText is a strict-enough parser for the Prometheus text
// exposition format 0.0.4: every non-comment line must be
// name[{labels}] value, names and label keys must match the grammar,
// label values must be properly quoted/escaped, and every sample must
// belong to a family announced by a preceding TYPE line.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{} // family → type
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if !validPromName(parts[2]) {
				t.Fatalf("line %d: bad metric name %q", ln+1, parts[2])
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: bad type %q", ln+1, parts[3])
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !validPromName(name) {
			t.Fatalf("line %d: bad sample name %q", ln+1, name)
		}
		if strings.HasPrefix(rest, "{") {
			end := parsePromLabels(t, ln+1, rest)
			rest = rest[end:]
		}
		rest = strings.TrimPrefix(rest, " ")
		if strings.ContainsAny(rest, " ") {
			// timestamps are legal in the format but we never emit them
			t.Fatalf("line %d: unexpected extra fields in %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(rest, 64); err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, rest, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
	}
}

// validPromName checks the metric-name grammar.
func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':'
		digit := r >= '0' && r <= '9'
		if !letter && !(digit && i > 0) {
			return false
		}
	}
	return true
}

// parsePromLabels validates one {k="v",...} block and returns its
// length in bytes (including both braces).
func parsePromLabels(t *testing.T, line int, s string) int {
	t.Helper()
	i := 1 // past '{'
	for {
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		key := s[start:i]
		if key == "" || !validPromName(key) || strings.Contains(key, ":") {
			t.Fatalf("line %d: bad label key %q", line, key)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			t.Fatalf("line %d: label value not quoted", line)
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				if i+1 >= len(s) {
					t.Fatalf("line %d: dangling escape", line)
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					t.Fatalf("line %d: bad escape \\%c", line, s[i+1])
				}
				i++
			}
			if s[i] == '\n' {
				t.Fatalf("line %d: raw newline in label value", line)
			}
			i++
		}
		if i >= len(s) {
			t.Fatalf("line %d: unterminated label value", line)
		}
		i++ // closing '"'
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return i + 1
		}
		t.Fatalf("line %d: malformed label block %q", line, s)
	}
}

// goldenCollector builds a deterministic collector: the runtime gauges
// are overwritten with fixed values and every variable kind the writer
// distinguishes is exercised (counters, the known gauges, labeled
// gauges, a label value needing escaping, and two stage histograms).
func goldenCollector() *Collector {
	c := NewCollector()
	c.SetGaugeFunc("runtime.goroutines", func() int64 { return 8 })
	c.SetGaugeFunc("runtime.heap_bytes", func() int64 { return 1 << 20 })
	c.SetGaugeFunc("runtime.gc_cycles", func() int64 { return 3 })
	c.SetGaugeFunc("uptime_seconds", func() int64 { return 42 })
	c.Add(CtrIngested, 1234)
	c.Add(CtrIngestKeyResolves, 56)
	c.Add(CtrIngestKeyLookups, 9)
	c.Add(CtrConnsActive, 3)
	c.Add(CtrConnsActive, -1)
	c.Add(CtrChangesAssessed, 7)
	c.Add(CtrRecoveryMillis, 82)
	c.Add(CtrRecoveryGenerations, 3)
	c.Add(CtrRecoveryLogBytes, 30<<20)
	c.Add(CtrWindowsBounded, 1060)
	c.Add(CtrWindowsSolved, 150)
	c.Add(CtrHistoryFetches, 4)
	c.Add(CtrStreamTailReads, 4809)
	c.Add(CtrStreamFullReads, 12)
	c.SetGaugeFunc(GaugeWALLogBytes, func() int64 { return 5 << 20 })
	c.SetGaugeFunc(GaugeWALRotations, func() int64 { return 2 })
	c.SetGaugeFunc(LabeledName("monitor.shard_series", "shard", "0"), func() int64 { return 11 })
	c.SetGaugeFunc(LabeledName("monitor.shard_series", "shard", "1"), func() int64 { return 13 })
	c.SetGaugeFunc(LabeledName("monitor.client_reconnects", "addr", `10.0.0.1:7102"\weird`, "id", "1"),
		func() int64 { return 2 })
	c.Observe(StageSSTWindow, 400*time.Microsecond)
	c.Observe(StageSSTWindow, 300*time.Millisecond)
	c.Observe(StageBinToVerdict, 83*time.Second)
	return c
}

// TestPrometheusGolden pins the full exposition byte-for-byte (rewrite
// with -update) and validates it against the format grammar.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	validatePromText(t, buf.String())
	path := filepath.Join("testdata", "metrics.prom.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Prometheus -update`)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusHistogramShape checks the cumulative-bucket contract on
// a known distribution: monotone buckets, +Inf equals _count, _sum in
// seconds.
func TestPrometheusHistogramShape(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.Observe(StageAssess, time.Duration(i+1)*time.Millisecond)
	}
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	validatePromText(t, buf.String())
	var prev, inf, count int64 = -1, -1, -1
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, promStageFamily) || !strings.Contains(line, `stage="assess"`) {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case strings.Contains(line, `le="+Inf"`):
			inf, _ = strconv.ParseInt(fields[1], 10, 64)
		case strings.HasPrefix(line, promStageFamily+"_bucket"):
			v, _ := strconv.ParseInt(fields[1], 10, 64)
			if v < prev {
				t.Fatalf("bucket counts not cumulative: %d after %d in %q", v, prev, line)
			}
			prev = v
		case strings.HasPrefix(line, promStageFamily+"_sum"):
			sum, _ = strconv.ParseFloat(fields[1], 64)
		case strings.HasPrefix(line, promStageFamily+"_count"):
			count, _ = strconv.ParseInt(fields[1], 10, 64)
		}
	}
	if count != 10 || inf != 10 {
		t.Fatalf("count = %d, +Inf bucket = %d, want 10", count, inf)
	}
	if want := 0.055; sum < want-1e-9 || sum > want+1e-9 {
		t.Fatalf("sum = %v s, want %v s", sum, want)
	}
}

// FuzzPromEscaping feeds arbitrary label values and variable names
// through LabeledName + WritePrometheus and requires the output to
// still parse — escaping must hold for every input.
func FuzzPromEscaping(f *testing.F) {
	f.Add("10.0.0.1:7102", "shard")
	f.Add(`quote " backslash \ newline`+"\n", "0")
	f.Add("", "")
	f.Add("{}", "le")
	f.Fuzz(func(t *testing.T, value, key string) {
		c := NewCollector()
		c.SetGaugeFunc(LabeledName("fuzz.gauge", key, value, "id", "1"), func() int64 { return 1 })
		c.Add("fuzz.counter."+strings.Map(func(r rune) rune {
			if r == '\n' || r == '{' || r == '}' {
				return '_'
			}
			return r
		}, value), 1)
		var buf bytes.Buffer
		if err := c.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		validatePromText(t, buf.String())
	})
}

// TestLabeledName pins the registry-name convention WritePrometheus
// parses back.
func TestLabeledName(t *testing.T) {
	got := LabeledName("monitor.shard_series", "shard", "3")
	if want := `monitor.shard_series{shard="3"}`; got != want {
		t.Fatalf("LabeledName = %q, want %q", got, want)
	}
	got = LabeledName("x", "9key", `a"b\c`+"\n")
	if want := `x{_9key="a\"b\\c\n"}`; got != want {
		t.Fatalf("LabeledName escape = %q, want %q", got, want)
	}
	base, labels := splitLabeledName(got)
	if base != "x" || labels != `_9key="a\"b\\c\n"` {
		t.Fatalf("splitLabeledName = %q, %q", base, labels)
	}
	if base, labels := splitLabeledName("plain.name"); base != "plain.name" || labels != "" {
		t.Fatalf("splitLabeledName(plain) = %q, %q", base, labels)
	}
}

// TestPrometheusHTTP exercises the ?format=prom branch of the debug
// handler end to end.
func TestPrometheusHTTP(t *testing.T) {
	c := goldenCollector()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	validatePromText(t, string(body))
	if !strings.Contains(string(body), "funnel_monitor_ingested_total 1234") {
		t.Fatalf("exposition missing the ingest counter:\n%s", body)
	}
}
