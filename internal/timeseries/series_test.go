package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)

func mkSeries(n int, f func(i int) float64) *Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	return New(t0, DefaultStep, v)
}

func TestNewPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nonpositive step should panic")
		}
	}()
	New(t0, 0, nil)
}

func TestLenEndTimeAt(t *testing.T) {
	s := mkSeries(10, func(i int) float64 { return float64(i) })
	if s.Len() != 10 {
		t.Fatal("Len")
	}
	if !s.End().Equal(t0.Add(10 * time.Minute)) {
		t.Fatalf("End = %v", s.End())
	}
	if !s.TimeAt(3).Equal(t0.Add(3 * time.Minute)) {
		t.Fatalf("TimeAt = %v", s.TimeAt(3))
	}
}

func TestIndexOf(t *testing.T) {
	s := mkSeries(5, func(i int) float64 { return 0 })
	if i, ok := s.IndexOf(t0.Add(2*time.Minute + 30*time.Second)); !ok || i != 2 {
		t.Fatalf("IndexOf mid-bin = %d,%v", i, ok)
	}
	if _, ok := s.IndexOf(t0.Add(-time.Second)); ok {
		t.Fatal("before start should be !ok")
	}
	if _, ok := s.IndexOf(t0.Add(5 * time.Minute)); ok {
		t.Fatal("at end should be !ok")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := mkSeries(3, func(i int) float64 { return float64(i) })
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestSliceWindowAround(t *testing.T) {
	s := mkSeries(10, func(i int) float64 { return float64(i) })
	sub := s.Slice(2, 5)
	if sub.Len() != 3 || sub.Values[0] != 2 || !sub.Start.Equal(t0.Add(2*time.Minute)) {
		t.Fatalf("Slice = %+v", sub)
	}
	w := s.Window(6, 3)
	if len(w) != 3 || w[0] != 3 || w[2] != 5 {
		t.Fatalf("Window = %v", w)
	}
	pre, post := s.Around(5, 2)
	if pre[0] != 3 || pre[1] != 4 || post[0] != 5 || post[1] != 6 {
		t.Fatalf("Around = %v %v", pre, post)
	}
}

func TestAroundPanics(t *testing.T) {
	s := mkSeries(5, func(i int) float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete window should panic")
		}
	}()
	s.Around(1, 3)
}

func TestSamePeriodDaysAgo(t *testing.T) {
	// Two days of minutes; value = absolute bin index.
	s := mkSeries(2*1440+100, func(i int) float64 { return float64(i) })
	tIdx := 1440 + 50
	pre, post, ok := s.SamePeriodDaysAgo(tIdx, 5, 1)
	if !ok {
		t.Fatal("historical window should exist")
	}
	if pre[0] != 45 || post[0] != 50 {
		t.Fatalf("historical windows wrong: pre[0]=%v post[0]=%v", pre[0], post[0])
	}
	if _, _, ok := s.SamePeriodDaysAgo(100, 5, 1); ok {
		t.Fatal("window before series start should be !ok")
	}
}

func TestFillGapsInterior(t *testing.T) {
	s := New(t0, time.Minute, []float64{1, math.NaN(), math.NaN(), 4})
	s.FillGaps()
	want := []float64{1, 2, 3, 4}
	for i, w := range want {
		if math.Abs(s.Values[i]-w) > 1e-12 {
			t.Fatalf("FillGaps = %v", s.Values)
		}
	}
}

func TestFillGapsEdges(t *testing.T) {
	s := New(t0, time.Minute, []float64{math.NaN(), 5, math.NaN()})
	s.FillGaps()
	if s.Values[0] != 5 || s.Values[2] != 5 {
		t.Fatalf("edge fill = %v", s.Values)
	}
	empty := New(t0, time.Minute, []float64{math.NaN(), math.NaN()})
	empty.FillGaps()
	if empty.Values[0] != 0 || empty.Values[1] != 0 {
		t.Fatal("all-NaN series should zero-fill")
	}
}

// TestFillThroughPrefixStable grows a gappy series one bin at a time,
// filling it with FillThrough from the previous call's last valid bin:
// every stage must equal FillGaps over the same prefix, bit for bit, up
// to its last valid bin.
func TestFillThroughPrefixStable(t *testing.T) {
	nan := math.NaN()
	raw := []float64{nan, nan, 3, nan, 7.25, 8, nan, nan, nan, 1.5, nan, 0.1, nan}
	grown := make([]float64, 0, len(raw))
	done := -1
	for n := 1; n <= len(raw); n++ {
		grown = append(grown, raw[n-1])
		done = FillThrough(grown, done)
		want := New(t0, time.Minute, append([]float64(nil), raw[:n]...)).FillGaps().Values
		if done == -1 {
			if n > 2 {
				t.Fatalf("prefix %d: no valid bin found", n)
			}
			continue
		}
		for i := 0; i <= done; i++ {
			if math.Float64bits(grown[i]) != math.Float64bits(want[i]) {
				t.Fatalf("prefix %d bin %d: FillThrough %v, FillGaps %v", n, i, grown[i], want[i])
			}
		}
	}
	if done != len(raw)-2 {
		t.Fatalf("last valid bin %d, want %d", done, len(raw)-2)
	}
}

func TestHasGaps(t *testing.T) {
	if !New(t0, time.Minute, []float64{1, math.NaN()}).HasGaps() {
		t.Fatal("gap not detected")
	}
	if New(t0, time.Minute, []float64{1, 2}).HasGaps() {
		t.Fatal("false gap")
	}
}

func TestAlign(t *testing.T) {
	a := New(t0, time.Minute, []float64{0, 1, 2, 3, 4})
	b := New(t0.Add(2*time.Minute), time.Minute, []float64{12, 13, 14, 15})
	out, err := Align(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Len() != 3 || out[0].Values[0] != 2 || out[1].Values[0] != 12 {
		t.Fatalf("Align = %v %v", out[0].Values, out[1].Values)
	}
	if !out[0].Start.Equal(t0.Add(2 * time.Minute)) {
		t.Fatal("aligned start wrong")
	}
}

func TestAlignErrors(t *testing.T) {
	a := New(t0, time.Minute, []float64{1, 2})
	if _, err := Align(a, New(t0, time.Second, []float64{1})); err == nil {
		t.Fatal("step mismatch should error")
	}
	if _, err := Align(a, New(t0.Add(30*time.Second), time.Minute, []float64{1})); err == nil {
		t.Fatal("bin misalignment should error")
	}
	if _, err := Align(a, New(t0.Add(time.Hour), time.Minute, []float64{1})); err == nil {
		t.Fatal("disjoint span should error")
	}
	if out, err := Align(); err != nil || out != nil {
		t.Fatal("Align() of nothing should be nil, nil")
	}
}

func TestAverage(t *testing.T) {
	a := New(t0, time.Minute, []float64{1, 2, math.NaN()})
	b := New(t0, time.Minute, []float64{3, math.NaN(), math.NaN()})
	avg, err := Average([]*Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Values[0] != 2 || avg.Values[1] != 2 || !math.IsNaN(avg.Values[2]) {
		t.Fatalf("Average = %v", avg.Values)
	}
	if _, err := Average(nil); err == nil {
		t.Fatal("empty average should error")
	}
	if _, err := Average([]*Series{a, New(t0, time.Minute, []float64{1})}); err == nil {
		t.Fatal("misaligned average should error")
	}
}

// Property: FillGaps leaves a finite series of the same n bins for any
// pattern of gaps. Its events used to go through Bin, deleted with no
// non-test reader; the name is kept.
func TestBinFillGapsProperty(t *testing.T) {
	f := func(offsets []uint16, values []float64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.NaN()
		}
		for i := range offsets {
			v := 0.0
			if i < len(values) {
				v = values[i]
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			if b := int(offsets[i]) / 60; b < n {
				vals[b] = v
			}
		}
		s := New(t0, time.Minute, vals).FillGaps()
		if s.Len() != n {
			return false
		}
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice/Window/TimeAt agree — the window of w bins ending at
// index e equals the slice [e−w, e) values.
func TestWindowSliceAgreementProperty(t *testing.T) {
	f := func(raw []float64, eRaw, wRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := New(t0, time.Minute, raw)
		e := int(eRaw)%len(raw) + 1
		w := int(wRaw)%e + 1
		win := s.Window(e, w)
		sub := s.Slice(e-w, e)
		if len(win) != sub.Len() {
			return false
		}
		for i := range win {
			same := win[i] == sub.Values[i] || (math.IsNaN(win[i]) && math.IsNaN(sub.Values[i]))
			if !same {
				return false
			}
		}
		return sub.Start.Equal(s.TimeAt(e - w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
