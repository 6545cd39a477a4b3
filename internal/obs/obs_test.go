package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Add(CtrIngested, 5)
	c.Observe(StageAssess, time.Millisecond)
	c.Observe(StageBinToVerdict, time.Second)
	c.ObserveSince(StageAssess, c.Now())
	c.PutTrace(&Trace{ChangeID: "x"})
	c.SetGaugeFunc("some.gauge", func() int64 { return 7 })
	c.DeleteVar("some.gauge")
	c.SetLogger(NewLogger(io.Discard, 0, false))
	c.StartHistory(time.Millisecond, time.Second)
	c.StopHistory()
	if got := c.Counter(CtrIngested); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
	if c.Stage(StageAssess) != nil {
		t.Fatal("nil collector should expose no stage histogram")
	}
	if !c.Now().IsZero() {
		t.Fatal("nil collector Now() should be zero")
	}
	if l := c.Logger("daemon"); l == nil || l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nil collector Logger should be the disabled discard logger")
	}
	if err := c.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	var buf bytes.Buffer
	if err := c.WriteHistory(&buf); err != nil {
		t.Fatalf("nil WriteHistory: %v", err)
	}
	var dump HistoryDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("nil WriteHistory output is not JSON: %v", err)
	}
	if d := c.HistoryDump(); len(d.Times) != 0 {
		t.Fatalf("nil HistoryDump has %d samples", len(d.Times))
	}
}

// TestNilCollectorHotPathAllocs pins the no-telemetry contract the
// per-window benchmark relies on: the nil-receiver methods on the
// ingest/assess hot path allocate nothing.
func TestNilCollectorHotPathAllocs(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(CtrIngested, 1)
		c.Observe(StageBinToVerdict, time.Second)
		c.ObserveSince(StageAssess, c.Now())
		c.Logger("ingest")
	})
	if allocs != 0 {
		t.Fatalf("nil-collector hot path allocates %.1f per run, want 0", allocs)
	}
}

func TestCountersAndStages(t *testing.T) {
	c := NewCollector()
	c.Add(CtrIngested, 3)
	c.Add(CtrIngested, 2)
	if got := c.Counter(CtrIngested); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := c.Counter("never.touched"); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
	c.Observe(StageSSTWindow, 400*time.Microsecond)
	c.Observe(StageSSTWindow, 500*time.Microsecond)
	h := c.Stage(StageSSTWindow)
	if got := h.Count(); got != 2 {
		t.Fatalf("stage count = %d, want 2", got)
	}
	if sum := time.Duration(h.sum.Load()); sum != 900*time.Microsecond {
		t.Fatalf("sum = %v", sum)
	}
	if h.Max() != 500*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
}

// TestObserveNWeightsTheMean: a batch of n items recorded at once counts
// n, adds exactly its total, and files all n under the mean's bucket.
func TestObserveNWeightsTheMean(t *testing.T) {
	h := NewHistogram()
	h.ObserveN(1210*time.Microsecond, 121) // one sweep: 121 windows, 10 µs each
	h.ObserveN(time.Second, 0)             // nothing scored: nothing recorded
	h.Observe(300 * time.Microsecond)
	if sum := time.Duration(h.sum.Load()); h.Count() != 122 || sum != 1510*time.Microsecond {
		t.Fatalf("count %d sum %v, want 122 and 1.51ms", h.Count(), sum)
	}
	if h.Max() != 300*time.Microsecond {
		t.Fatalf("max = %v, want the single 300µs observation, not the sweep total", h.Max())
	}
	if q := h.Quantile(0.9); q != 16*time.Microsecond {
		t.Fatalf("p90 = %v, want the 16µs bucket holding the 10µs means", q)
	}
	var c *Collector
	c.ObserveSinceN(StageSSTWindow, time.Now(), 5) // nil-safe
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond) // bucket le 128µs
	}
	h.Observe(10 * time.Millisecond)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 128*time.Microsecond {
		t.Fatalf("p50 = %v, want 128µs", q)
	}
	if q := h.Quantile(1.0); q < 10*time.Millisecond {
		t.Fatalf("p100 = %v, want ≥ 10ms", q)
	}
	// Negative durations clamp rather than corrupt.
	h.Observe(-time.Second)
	if h.sum.Load() < 0 {
		t.Fatal("negative observation corrupted the sum")
	}
	// The rendering must be valid JSON.
	var doc map[string]any
	if err := json.Unmarshal([]byte(h.String()), &doc); err != nil {
		t.Fatalf("histogram JSON invalid: %v\n%s", err, h.String())
	}
	if doc["count"].(float64) != 101 {
		t.Fatalf("rendered count = %v", doc["count"])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestMetricsJSONIsValid(t *testing.T) {
	c := NewCollector()
	c.Add(CtrPushes, 7)
	c.Observe(StageDiDEstimate, time.Millisecond)
	var b strings.Builder
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, b.String())
	}
	if string(doc[CtrPushes]) != "7" {
		t.Fatalf("%s = %s", CtrPushes, doc[CtrPushes])
	}
	if _, ok := doc["stage."+StageDiDEstimate]; !ok {
		t.Fatal("stage histogram missing from metrics")
	}
	if _, ok := doc["runtime.goroutines"]; !ok {
		t.Fatal("runtime gauges missing from metrics")
	}
}

func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(2)
	s.Put(&Trace{ChangeID: "a"})
	s.Put(&Trace{ChangeID: "b"})
	s.Put(&Trace{ChangeID: "c"})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "b" || ids[1] != "c" {
		t.Fatalf("ids = %v", ids)
	}
	// Replacing an existing ID must not evict.
	s.Put(&Trace{ChangeID: "b", Service: "svc"})
	if got, _ := s.Get("b"); got.Service != "svc" {
		t.Fatal("replacement not stored")
	}
	if s.Len() != 2 {
		t.Fatalf("len after replace = %d", s.Len())
	}
}

func TestFinite(t *testing.T) {
	if Finite(math.NaN()) != 0 {
		t.Fatal("NaN should map to 0")
	}
	if Finite(math.Inf(1)) != math.MaxFloat64 || Finite(math.Inf(-1)) != -math.MaxFloat64 {
		t.Fatal("Inf should clamp")
	}
	if Finite(1.5) != 1.5 {
		t.Fatal("finite values must pass through")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	c := NewCollector()
	c.Add(CtrIngested, 9)
	tr := &Trace{ChangeID: "chg-1", Service: "svc"}
	kt := &KPITrace{Key: "server/srv-1/cpu", Verdict: "changed-by-software", Alpha: 2.5}
	kt.AddStage(StageSSTScore, 3*time.Millisecond)
	tr.Add(kt)
	c.PutTrace(tr)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, `"monitor.ingested": 9`) {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/traces"); code != 200 || !strings.Contains(body, "chg-1") {
		t.Fatalf("/traces = %d %q", code, body)
	}
	code, body := get("/traces/chg-1")
	if code != 200 {
		t.Fatalf("/traces/chg-1 = %d", code)
	}
	var got Trace
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	want := []StageTiming{{Stage: StageSSTScore, Nanos: int64(3 * time.Millisecond)}}
	if len(got.KPIs) != 1 || !reflect.DeepEqual(got.KPIs[0].Stages, want) {
		t.Fatalf("trace round-trip = %+v", got)
	}
	if code, _ := get("/traces/unknown"); code != 404 {
		t.Fatalf("unknown trace = %d, want 404", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline = %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", code, body)
	}
}
