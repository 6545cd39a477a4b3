// Package stats provides the robust statistics used throughout FUNNEL:
// medians, median absolute deviation (MAD), quantiles, autocorrelation,
// and the empirical CCDF used to report detection-delay distributions.
//
// FUNNEL (§3.2.2 of the paper) deliberately prefers the median/MAD pair
// over mean/standard deviation because the former stay stable in the
// presence of the outliers and baseline contamination that are common in
// production KPI streams.
package stats

import (
	"math"
	"sort"
)

// MADScale converts a MAD into a consistent estimator of the standard
// deviation for Gaussian data (1 / Φ⁻¹(3/4)).
const MADScale = 1.4826

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
// It returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the largest element of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it.
// It returns NaN if xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	return medianInPlace(tmp)
}

// MedianInto computes the median of xs using buf as scratch space,
// avoiding an allocation when buf has sufficient capacity. buf may be nil.
func MedianInto(xs, buf []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if cap(buf) < len(xs) {
		buf = make([]float64, len(xs))
	}
	buf = buf[:len(xs)]
	copy(buf, xs)
	return medianInPlace(buf)
}

// medianInPlace sorts tmp and returns its median. Small inputs — the
// sliding analysis windows the SST hot path feeds through here — use an
// insertion sort, which is both faster at these sizes and guaranteed
// allocation-free on every Go version.
func medianInPlace(tmp []float64) float64 {
	if len(tmp) <= 64 {
		insertionSort(tmp)
	} else {
		sort.Float64s(tmp)
	}
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// insertionSort orders xs ascending in place without allocating.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i
		for j > 0 && xs[j-1] > v {
			xs[j] = xs[j-1]
			j--
		}
		xs[j] = v
	}
}

// MAD returns the median absolute deviation of xs around its median:
// median(|x_i − median(x)|). It returns NaN if xs is empty.
// Multiply by MADScale to obtain a robust standard-deviation estimate.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return medianInPlace(dev)
}

// MedianMAD returns both the median and the MAD in one pass of scratch
// allocation; the pair is what FUNNEL's robustness filter (Eq. 11) needs
// at every point.
func MedianMAD(xs []float64) (median, mad float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	median = medianInPlace(tmp)
	for i, x := range xs {
		tmp[i] = math.Abs(x - median)
	}
	mad = medianInPlace(tmp)
	return median, mad
}

// MedianMADInto is MedianMAD computed with buf as scratch space,
// avoiding any allocation when buf has capacity for len(xs) elements.
// buf may be nil; xs is not modified. This is the form FUNNEL's
// zero-allocation score path uses at every sliding window.
func MedianMADInto(xs, buf []float64) (median, mad float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if cap(buf) < len(xs) {
		buf = make([]float64, len(xs))
	}
	buf = buf[:len(xs)]
	copy(buf, xs)
	median = medianInPlace(buf)
	for i, x := range xs {
		buf[i] = math.Abs(x - median)
	}
	mad = medianInPlace(buf)
	return median, mad
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns NaN on empty input
// or out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	return quantileSorted(tmp, q)
}

// quantileSorted computes the q-th quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Autocorrelation returns the sample autocorrelation of xs at the given
// lag. It returns 0 when the lag is out of range or the series has no
// variance.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// CCDFPoint is one point of an empirical complementary CDF.
type CCDFPoint struct {
	X float64 // value
	P float64 // fraction of samples strictly greater than or equal to X
}

// CCDF returns the empirical complementary cumulative distribution
// function of xs as a sequence of (value, P[X ≥ value]) points in
// ascending value order. Fig. 5 of the paper plots detection delays this
// way.
func CCDF(xs []float64) []CCDFPoint {
	if len(xs) == 0 {
		return nil
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := float64(len(tmp))
	pts := make([]CCDFPoint, 0, len(tmp))
	for i := 0; i < len(tmp); i++ {
		if i > 0 && tmp[i] == tmp[i-1] {
			continue
		}
		pts = append(pts, CCDFPoint{X: tmp[i], P: float64(len(tmp)-i) / n})
	}
	return pts
}

// Slope returns the least-squares slope of xs against its index
// (units: value per sample). FUNNEL uses this to distinguish ramps from
// level shifts once a change has been detected.
func Slope(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	// Index mean is (n−1)/2; use the closed form for Σ(i−ī)².
	im := float64(n-1) / 2
	xm := Mean(xs)
	var num, den float64
	for i, x := range xs {
		di := float64(i) - im
		num += di * (x - xm)
		den += di * di
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Correlation returns the Pearson correlation of two equal-length
// samples, or 0 when either has no variance. FUNNEL's dark-launch DiD
// rests on treated and control behaving alike before the change
// (§3.2.4's load-balancing observation); the pipeline can verify that
// premise by correlating the pre-change windows.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
