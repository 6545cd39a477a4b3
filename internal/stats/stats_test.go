package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Population variance is 4; sample variance is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := Stddev(xs); !almostEq(got, math.Sqrt(want), 1e-12) {
		t.Fatalf("Stddev = %v", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of single sample should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Max(xs) != 7 {
		t.Fatalf("Max = %v", Max(xs))
	}
	if !math.IsNaN(Max(nil)) {
		t.Fatal("Max of empty should be NaN")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4}
	Median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestMedianIntoMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]float64, 0, 64)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		if a, b := Median(xs), MedianInto(xs, buf); a != b {
			t.Fatalf("MedianInto = %v, Median = %v", b, a)
		}
	}
}

func TestMADKnown(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	// median = 2, |dev| = {1,1,0,0,2,4,7}, median of dev = 1.
	if got := MAD(xs); got != 1 {
		t.Fatalf("MAD = %v, want 1", got)
	}
}

func TestMedianMADConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		med, mad := MedianMAD(xs)
		if med != Median(xs) || mad != MAD(xs) {
			t.Fatalf("MedianMAD inconsistent with Median/MAD")
		}
	}
}

func TestMADRobustToOutlier(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98}
	contaminated := append(append([]float64{}, base...), 1e6)
	if MAD(contaminated) > 10*MAD(base)+1 {
		t.Fatalf("MAD blew up under a single outlier: %v vs %v", MAD(contaminated), MAD(base))
	}
	if Stddev(contaminated) < 1000 {
		t.Fatal("sanity: stddev should blow up under the outlier")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("out-of-range quantiles should be NaN")
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfect period-4 signal: ACF at lag 4 should be near 1.
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 4)
	}
	if acf := Autocorrelation(xs, 4); acf < 0.95 {
		t.Fatalf("ACF at period lag = %v, want ≈1", acf)
	}
	if acf := Autocorrelation(xs, 2); acf > -0.9 {
		t.Fatalf("ACF at half period = %v, want ≈−1", acf)
	}
	if Autocorrelation(xs, 0) != 0 || Autocorrelation(xs, len(xs)) != 0 {
		t.Fatal("out-of-range lags should return 0")
	}
	if Autocorrelation([]float64{1, 1, 1}, 1) != 0 {
		t.Fatal("constant series should return 0")
	}
}

func TestCCDF(t *testing.T) {
	pts := CCDF([]float64{1, 2, 2, 3})
	want := []CCDFPoint{{1, 1}, {2, 0.75}, {3, 0.25}}
	if len(pts) != len(want) {
		t.Fatalf("CCDF = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CCDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if CCDF(nil) != nil {
		t.Fatal("CCDF(nil) should be nil")
	}
}

func TestCCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	pts := CCDF(xs)
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X || pts[i].P >= pts[i-1].P {
			t.Fatalf("CCDF not strictly monotone at %d: %v %v", i, pts[i-1], pts[i])
		}
	}
	if pts[0].P != 1 {
		t.Fatalf("CCDF should start at P=1, got %v", pts[0].P)
	}
}

func TestSlope(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 3 + 0.7*float64(i)
	}
	if got := Slope(xs); !almostEq(got, 0.7, 1e-12) {
		t.Fatalf("Slope = %v, want 0.7", got)
	}
	if Slope([]float64{1}) != 0 || Slope([]float64{2, 2, 2}) != 0 {
		t.Fatal("degenerate slopes should be 0")
	}
}

// Property: the median minimizes the sum of absolute deviations, so for
// any sample the L1 cost at the median is no greater than at the mean.
func TestMedianMinimizesL1Property(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		l1 := func(c float64) float64 {
			var s float64
			for _, x := range xs {
				s += math.Abs(x - c)
			}
			return s
		}
		return l1(Median(xs)) <= l1(Mean(xs))+1e-6*(1+math.Abs(l1(Mean(xs))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bracketed by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		clamp := func(q float64) float64 {
			q = math.Abs(math.Mod(q, 1))
			return q
		}
		a, b := clamp(q1), clamp(q2)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		sort.Float64s(xs)
		return qa <= qb+1e-9 && qa >= xs[0]-1e-9 && qb <= xs[len(xs)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if Correlation(xs, []float64{3, 3, 3, 3, 3}) != 0 {
		t.Fatal("constant series should correlate 0")
	}
	if Correlation(xs, ys[:3]) != 0 {
		t.Fatal("length mismatch should return 0")
	}
	// Independent noise: near zero.
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	if c := Correlation(a, b); math.Abs(c) > 0.1 {
		t.Fatalf("independent correlation = %v", c)
	}
}

func TestMedianMADIntoMatchesMedianMAD(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	buf := make([]float64, 64)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		snapshot := append([]float64(nil), xs...)
		wantMed, wantMAD := MedianMAD(xs)
		med, mad := MedianMADInto(xs, buf)
		if med != wantMed || mad != wantMAD {
			t.Fatalf("trial %d: (%v,%v) != (%v,%v)", trial, med, mad, wantMed, wantMAD)
		}
		for i := range xs {
			if xs[i] != snapshot[i] {
				t.Fatalf("trial %d: input mutated at %d", trial, i)
			}
		}
	}
	// Nil and undersized buffers still work (by allocating).
	if med, mad := MedianMADInto([]float64{3, 1, 2}, nil); med != 2 || mad != 1 {
		t.Fatalf("nil buf: med=%v mad=%v", med, mad)
	}
	// Empty input mirrors MedianMAD.
	if med, _ := MedianMADInto(nil, buf); !math.IsNaN(med) {
		t.Fatalf("empty input: med=%v", med)
	}
}

func TestMedianMADIntoZeroAlloc(t *testing.T) {
	xs := make([]float64, 34)
	for i := range xs {
		xs[i] = float64((i * 7) % 13)
	}
	buf := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(100, func() {
		MedianMADInto(xs, buf)
	})
	if allocs != 0 {
		t.Fatalf("allocs/op = %v, want 0", allocs)
	}
}

func TestInsertionSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(64)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		insertionSort(xs)
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("trial %d: order differs at %d", trial, i)
			}
		}
	}
}
