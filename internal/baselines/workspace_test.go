package baselines

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// baselineSeries builds the seasonal-plus-shift workload the equivalence
// and allocation tests sweep.
func baselineSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 50 + 8*math.Sin(2*math.Pi*float64(i)/48) + rng.NormFloat64()
		if i >= n/2 {
			x[i] += 6
		}
	}
	return x
}

// refMRLSScore replicates the pre-workspace MRLS implementation:
// freshly allocated normalization, trajectory matrices, IRLS state and
// SVD staging at every step. The pooled scorer must agree with it
// exactly — same arithmetic, different memory discipline.
func refMRLSScore(m *MRLS, x []float64, t int) float64 {
	w := m.Window
	if w < 16 {
		w = 16
	}
	window := x[t-w+1 : t+1]
	scales := m.Scales
	if len(scales) == 0 {
		scales = []int{1, 2, 4}
	}
	var best float64
	for _, s := range scales {
		if s < 1 {
			continue
		}
		var ds []float64
		if s <= 1 {
			ds = append([]float64(nil), window...)
		} else {
			for i := 0; i < len(window); i += s {
				j := i + s
				if j > len(window) {
					j = len(window)
				}
				ds = append(ds, stats.Mean(window[i:j]))
			}
		}
		if v := refMRLSScale(m, ds); v > best {
			best = v
		}
	}
	return best
}

func refMRLSScale(m *MRLS, window []float64) float64 {
	omega := len(window) / 4
	if omega < 2 {
		omega = 2
	}
	delta := len(window) - omega + 1
	if delta < m.Rank+2 {
		return 0
	}
	norm := normalizeRobust(window)
	traj := linalg.Hankel(norm, len(norm), omega, delta)
	hist := linalg.NewMatrix(omega, delta-1)
	for r := 0; r < omega; r++ {
		copy(hist.Data[r*(delta-1):(r+1)*(delta-1)], traj.Data[r*delta:r*delta+delta-1])
	}
	basis := refRobustSubspace(m, hist)
	if basis == nil {
		return 0
	}
	res := make([]float64, delta)
	col := make([]float64, omega)
	proj := make([]float64, omega)
	for c := 0; c < delta; c++ {
		for r := 0; r < omega; r++ {
			col[r] = traj.At(r, c)
		}
		copy(proj, col)
		for j := 0; j < basis.Cols; j++ {
			bj := basis.Col(j)
			linalg.Axpy(-linalg.Dot(bj, col), bj, proj)
		}
		res[c] = linalg.Norm2(proj)
	}
	return res[delta-1] / (stats.Median(res[:delta-1]) + 0.1)
}

func refRobustSubspace(m *MRLS, traj *linalg.Matrix) *linalg.Matrix {
	omega, delta := traj.Rows, traj.Cols
	rank := m.Rank
	if rank < 1 {
		rank = 3
	}
	if rank > omega {
		rank = omega
	}
	iters := m.Iterations
	if iters < 1 {
		iters = 100
	}
	tol := m.Tolerance
	if tol <= 0 {
		tol = 1e-7
	}
	eps := m.Epsilon
	if eps <= 0 {
		eps = 1e-6
	}
	weights := make([]float64, delta)
	for i := range weights {
		weights[i] = 1
	}
	weighted := linalg.NewMatrix(omega, delta)
	col := make([]float64, omega)
	proj := make([]float64, omega)
	var basis *linalg.Matrix
	for it := 0; it < iters; it++ {
		for c := 0; c < delta; c++ {
			wc := weights[c]
			for r := 0; r < omega; r++ {
				weighted.Data[r*delta+c] = traj.Data[r*delta+c] * wc
			}
		}
		svd := linalg.SVDWS(&linalg.SVDWorkspace{}, weighted)
		if svd.S[0] == 0 {
			return nil
		}
		basis = linalg.NewMatrix(omega, rank)
		for j := 0; j < rank; j++ {
			for r := 0; r < omega; r++ {
				basis.Data[r*rank+j] = svd.U.Data[r*svd.U.Cols+j]
			}
		}
		resids := make([]float64, delta)
		for c := 0; c < delta; c++ {
			for r := 0; r < omega; r++ {
				col[r] = traj.At(r, c)
			}
			copy(proj, col)
			for j := 0; j < rank; j++ {
				bj := basis.Col(j)
				linalg.Axpy(-linalg.Dot(bj, col), bj, proj)
			}
			resids[c] = linalg.Norm2(proj)
		}
		floor := math.Max(eps, 0.1*stats.Median(resids))
		var drift float64
		newW := make([]float64, delta)
		for c := 0; c < delta; c++ {
			newW[c] = 1 / math.Max(resids[c], floor)
		}
		wmax := stats.Max(newW)
		for c := range newW {
			newW[c] /= wmax
			if d := math.Abs(newW[c] - weights[c]); d > drift {
				drift = d
			}
			weights[c] = newW[c]
		}
		if drift < tol {
			break
		}
	}
	return basis
}

// The pooled-workspace rewrite must not move MRLS scores: every kernel
// substitution (MedianMADInto for normalizeRobust's MedianMAD, HankelInto
// for Hankel, SVDWS for SVD, strided column dots for Col extraction)
// preserves accumulation order, so equality is exact.
func TestMRLSMatchesReference(t *testing.T) {
	x := baselineSeries(160, 71)
	for _, m := range []*MRLS{
		NewMRLS(),
		{},
		{Window: 48, Scales: []int{1, 3}, Rank: 2, Iterations: 25},
	} {
		w := m.Window
		if w < 16 {
			w = 16
		}
		for tp := w - 1; tp < len(x); tp += 5 {
			got := m.ScoreAt(x, tp)
			want := refMRLSScore(m, x, tp)
			if got != want {
				t.Fatalf("W=%d: mrls score[%d] = %v, reference %v", m.Window, tp, got, want)
			}
		}
	}
}

// The IRLS loop used to allocate its basis, residual and weight vectors
// (plus full SVD staging) at every one of Scales × Iterations rounds —
// ~3k allocations and ~320 KB per scored point. Now everything lives in
// a pooled workspace and a steady-state score allocates nothing.
func TestMRLSScoreAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	x := baselineSeries(200, 72)
	m := NewMRLS()
	for tp := m.Window - 1; tp < len(x); tp++ {
		m.ScoreAt(x, tp) // warm the pooled workspace
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		m.ScoreAt(x, m.Window-1+i%(len(x)-m.Window+1))
		i++
	})
	if allocs != 0 {
		t.Errorf("mrls allocs/op = %v, want 0", allocs)
	}
}

// CUSUM's bootstrap never needed to recompute the window mean — a
// shuffle is a permutation — so its remaining per-score allocations are
// just the RNG and the shuffle buffer. Guard the count so a future edit
// doesn't reintroduce per-bootstrap allocation.
func TestCUSUMScoreAtAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation accounting")
	}
	x := baselineSeries(200, 73)
	c := NewCUSUM()
	for tp := c.Window - 1; tp < len(x); tp++ {
		c.ScoreAt(x, tp)
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		c.ScoreAt(x, c.Window-1+i%(len(x)-c.Window+1))
		i++
	})
	if allocs > 8 {
		t.Errorf("cusum allocs/op = %v, want ≤ 8", allocs)
	}
}

// One MRLS scorer hammered from many goroutines must produce the same
// scores as sequential evaluation — pooled workspaces may never be
// shared between two in-flight windows. Run with -race to prove it.
func TestMRLSConcurrentMatchesSequential(t *testing.T) {
	x := baselineSeries(140, 74)
	m := NewMRLS()
	lo := m.Window - 1
	want := make([]float64, len(x)-lo)
	for i := range want {
		want[i] = m.ScoreAt(x, lo+i)
	}
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for n := 0; n < 40; n++ {
				i := rng.Intn(len(want))
				if got := m.ScoreAt(x, lo+i); got != want[i] {
					errs <- i
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if i, ok := <-errs; ok {
		t.Fatalf("concurrent mrls score[%d] diverged from sequential", lo+i)
	}
}

// normalizeRobust returns a copy of xs shifted by its median and scaled
// by MADScale·MAD, falling back to the standard deviation, then to 1,
// when degenerate: the normalization the MRLS reference applies.
func normalizeRobust(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	med, mad := stats.MedianMAD(xs)
	scale := mad * stats.MADScale
	if scale == 0 {
		scale = stats.Stddev(xs)
	}
	if scale == 0 {
		scale = 1
	}
	for i, x := range xs {
		out[i] = (x - med) / scale
	}
	return out
}
