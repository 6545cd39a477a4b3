package obs

import (
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential latency buckets: bucket 0
// holds sub-microsecond observations, bucket i holds durations in
// [2^(i−1), 2^i) µs, and the last bucket absorbs everything from
// ~17 s up. The bounds are fixed so two histograms (or two runs) are
// always comparable and memory per stage is constant.
const histBuckets = 26

// Histogram is a lock-free bounded-bucket latency histogram. The zero
// value is not ready; use NewHistogram. It implements expvar.Var, so a
// collector publishes it directly into the metrics JSON.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.record(ns, ns, 1)
}

// ObserveN records n observations that together took total, each at
// their mean: count grows by n and sum by exactly total, while max and
// the bucket see total/n. It is how a batched stage (one timed sweep
// over n windows) keeps a per-item histogram without a clock read per
// item. n ≤ 0 records nothing.
func (h *Histogram) ObserveN(total time.Duration, n int) {
	if n <= 0 {
		return
	}
	ns := int64(total)
	if ns < 0 {
		ns = 0
	}
	h.record(ns, ns/int64(n), int64(n))
}

// record adds n observations of each nanoseconds summing to sum.
func (h *Histogram) record(sum, each, n int64) {
	h.count.Add(n)
	h.sum.Add(sum)
	for {
		old := h.max.Load()
		if each <= old || h.max.CompareAndSwap(old, each) {
			break
		}
	}
	idx := bits.Len64(uint64(each / int64(time.Microsecond)))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of
// the bucket where the cumulative count crosses q·count — an upper
// estimate within one power of two, which is what capacity planning
// needs from a bounded histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state (all
// durations in nanoseconds), taken for renderers that walk the buckets
// — the Prometheus exposition and the metrics history ring. Field reads
// are individually atomic; observations landing mid-copy can skew count
// against sum by at most the in-flight observations, which is the usual
// scrape-consistency contract.
type HistogramSnapshot struct {
	Count    int64
	SumNanos int64
	MaxNanos int64
	Buckets  [histBuckets]int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile of the snapshot, mirroring
// Histogram.Quantile (bucket upper bound where the cumulative count
// crosses q·count; 0 when empty).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// String renders the histogram as stable JSON (expvar.Var). Bucket
// keys are the upper bounds in microseconds; empty buckets are
// omitted.
func (h *Histogram) String() string {
	var b strings.Builder
	b.WriteString(`{"count":`)
	b.WriteString(strconv.FormatInt(h.count.Load(), 10))
	b.WriteString(`,"sum_us":`)
	b.WriteString(strconv.FormatInt(h.sum.Load()/int64(time.Microsecond), 10))
	b.WriteString(`,"avg_us":`)
	b.WriteString(strconv.FormatInt(int64(h.Mean()/time.Microsecond), 10))
	b.WriteString(`,"max_us":`)
	b.WriteString(strconv.FormatInt(h.max.Load()/int64(time.Microsecond), 10))
	b.WriteString(`,"p50_us":`)
	b.WriteString(strconv.FormatInt(int64(h.Quantile(0.50)/time.Microsecond), 10))
	b.WriteString(`,"p90_us":`)
	b.WriteString(strconv.FormatInt(int64(h.Quantile(0.90)/time.Microsecond), 10))
	b.WriteString(`,"p99_us":`)
	b.WriteString(strconv.FormatInt(int64(h.Quantile(0.99)/time.Microsecond), 10))
	b.WriteString(`,"buckets_le_us":{`)
	first := true
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteByte('"')
		b.WriteString(strconv.FormatInt(int64(bucketUpper(i)/time.Microsecond), 10))
		b.WriteString(`":`)
		b.WriteString(strconv.FormatInt(n, 10))
	}
	b.WriteString("}}")
	return b.String()
}
