package sst

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// mixedSeries builds a series with structure, noise and a level shift —
// the workload the equivalence tests sweep.
func mixedSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 100 + 10*math.Sin(2*math.Pi*float64(i)/60) + rng.NormFloat64()
		if i >= n/2 {
			x[i] += 8
		}
	}
	return x
}

// configMatrix is the scorer option matrix the equivalence tests sweep.
func configMatrix() map[string]Config {
	return map[string]Config{
		"plain":           {},
		"normalize":       {Normalize: true},
		"filter":          {RobustFilter: true},
		"deployed":        {Normalize: true, RobustFilter: true},
		"future-smallest": {Normalize: true, RobustFilter: true, FutureSmallest: true},
		"omega5":          {Omega: 5, Normalize: true, RobustFilter: true},
	}
}

// denseIKAScore replicates the pre-workspace IKA implementation: dense
// Hankel trajectory matrices, GramOp closures and freshly allocated
// Lanczos/QL scratch at every step. The production scorer must agree
// with it exactly — same arithmetic, different memory discipline.
func denseIKAScore(cfg Config, x []float64, t int) float64 {
	w, tl := analysisWindow(x, t, cfg)
	b := pastMatrix(w, tl, cfg)
	a := futureMatrix(w, tl, cfg)

	// Future directions via dense-backed implicit products.
	start := make([]float64, a.Rows)
	ones := make([]float64, a.Cols)
	for i := range ones {
		ones[i] = 1
	}
	a.MulVecTo(start, ones)
	if linalg.Norm2(start) < 1e-12 {
		for i := range start {
			start[i] = 1 + float64(i)
		}
	}
	res, err := linalg.LanczosWS(&linalg.LanczosWorkspace{}, gramOp(a), start, cfg.K, true)
	if err != nil {
		return 0
	}
	vals, vecs, err := linalg.TridiagEigWS(&linalg.EigWorkspace{}, res.Alpha, res.Beta)
	if err != nil {
		return 0
	}
	eta := cfg.Eta
	if eta > res.K {
		eta = res.K
	}
	lambdas := make([]float64, 0, eta)
	betas := make([][]float64, 0, eta)
	for i := 0; i < eta; i++ {
		idx := i
		if cfg.FutureSmallest {
			idx = res.K - 1 - i
		}
		l := vals[idx]
		if l < 0 {
			l = 0
		}
		beta := res.Q.MulVec(vecs.Col(idx))
		linalg.Normalize(beta)
		lambdas = append(lambdas, l)
		betas = append(betas, beta)
	}
	if len(betas) == 0 {
		return 0
	}

	pastOp := gramOp(b)
	var num, den float64
	for i, beta := range betas {
		phi := denseDiscordance(cfg, pastOp, beta)
		num += lambdas[i] * phi
		den += lambdas[i]
	}
	var score float64
	if den > 0 {
		score = clamp01(num / den)
	}
	if cfg.RobustFilter {
		score *= robustMultiplier(w, tl, cfg.Omega)
	}
	return score
}

// gramOp is the dense operator C = B·Bᵀ, applied as B·(Bᵀ·v).
func gramOp(b *linalg.Matrix) linalg.MatVec {
	tmp := make([]float64, b.Cols)
	return func(dst, v []float64) {
		b.MulTVecTo(tmp, v)
		b.MulVecTo(dst, tmp)
	}
}

// denseDiscordance is the Eq. 13 solve of the pre-workspace path.
func denseDiscordance(cfg Config, pastOp linalg.MatVec, beta []float64) float64 {
	res, err := linalg.LanczosWS(&linalg.LanczosWorkspace{}, pastOp, beta, cfg.K, false)
	if err != nil {
		return 0
	}
	vals, vecs, err := linalg.TridiagEigWS(&linalg.EigWorkspace{}, res.Alpha, res.Beta)
	if err != nil {
		return 0
	}
	eta := cfg.Eta
	if eta > res.K {
		eta = res.K
	}
	var proj float64
	for j := 0; j < eta; j++ {
		x1 := vecs.At(0, j)
		if vals[j] <= 1e-12*math.Max(1, vals[0]) {
			continue
		}
		proj += x1 * x1
	}
	return clamp01(1 - proj)
}

// The headline tentpole guarantee: the implicit-operator, pooled-
// workspace IKA path scores every window exactly as the dense-Hankel
// path does, across the full option matrix.
func TestIKAMatchesDenseHankelPath(t *testing.T) {
	x := mixedSeries(260, 61)
	for name, cfg := range configMatrix() {
		s := NewIKA(cfg)
		rcfg := s.Config()
		for tp := rcfg.PastSpan(); tp+rcfg.FutureSpan() <= len(x); tp++ {
			got := s.ScoreAt(x, tp)
			want := denseIKAScore(rcfg, x, tp)
			if got != want && math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: score[%d] = %v, dense path %v (|Δ| = %v)",
					name, tp, got, want, math.Abs(got-want))
			}
		}
	}
}

// refClassicScore replicates Classic.ScoreAt with the pre-workspace
// window helpers (allocating analysisWindow / robustMultiplier).
func refClassicScore(cfg Config, x []float64, t int) float64 {
	w, tl := analysisWindow(x, t, cfg)
	b := pastMatrix(w, tl, cfg)
	ueta := linalg.TopLeftSingularVectors(b, cfg.Eta)
	a := futureMatrix(w, tl, cfg)
	beta := linalg.TopLeftSingularVectors(a, 1).Col(0)
	if linalg.Norm2(beta) == 0 {
		return 0
	}
	var proj float64
	for j := 0; j < ueta.Cols; j++ {
		d := linalg.Dot(ueta.Col(j), beta)
		proj += d * d
	}
	score := 1 - sqrtClamped(proj)
	if cfg.RobustFilter {
		score *= robustMultiplier(w, tl, cfg.Omega)
	}
	if !cfg.RobustFilter {
		score = clamp01(score)
	}
	return score
}

// refRobustScore replicates Robust.ScoreAt with the pre-workspace
// window helpers.
func refRobustScore(cfg Config, x []float64, t int) float64 {
	w, tl := analysisWindow(x, t, cfg)
	b := pastMatrix(w, tl, cfg)
	ueta := linalg.TopLeftSingularVectors(b, cfg.Eta)
	a := futureMatrix(w, tl, cfg)
	gram := a.Mul(a.T())
	vals, vecs, err := linalg.SymEigWS(&linalg.EigWorkspace{}, gram)
	if err != nil {
		return 0
	}
	lambdas, betas := selectFutureDirections(vals, vecs, cfg)
	score := weightedDiscordance(ueta, lambdas, betas)
	if cfg.RobustFilter {
		score *= robustMultiplier(w, tl, cfg.Omega)
	}
	return score
}

// The pooled-window refactor must not move Classic or Robust scores.
func TestClassicRobustMatchReferenceAcrossMatrix(t *testing.T) {
	x := mixedSeries(200, 62)
	for name, cfg := range configMatrix() {
		classic := NewClassic(cfg)
		robust := NewRobust(cfg)
		rcfg := classic.Config()
		for tp := rcfg.PastSpan(); tp+rcfg.FutureSpan() <= len(x); tp += 7 {
			if got, want := classic.ScoreAt(x, tp), refClassicScore(rcfg, x, tp); got != want {
				t.Fatalf("%s: classic score[%d] = %v, reference %v", name, tp, got, want)
			}
			if got, want := robust.ScoreAt(x, tp), refRobustScore(rcfg, x, tp); got != want {
				t.Fatalf("%s: robust score[%d] = %v, reference %v", name, tp, got, want)
			}
		}
	}
}

// The tentpole allocation guarantee: a steady-state IKA score performs
// zero heap allocations in every configuration.
func TestIKAScoreAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	x := mixedSeries(400, 63)
	for name, cfg := range configMatrix() {
		s := NewIKA(cfg)
		rcfg := s.Config()
		t0 := rcfg.PastSpan()
		span := len(x) - rcfg.FutureSpan() - t0
		for i := 0; i < span; i++ {
			s.ScoreAt(x, t0+i) // warm the pooled workspace
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			s.ScoreAt(x, t0+i%span)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: allocs/op = %v, want 0", name, allocs)
		}
	}
}

// One scorer hammered from many goroutines must produce the same scores
// as sequential evaluation — the pooled workspaces may never be shared
// between two in-flight windows. Run with -race to prove it.
func TestConcurrentScoreAtMatchesSequential(t *testing.T) {
	x := mixedSeries(300, 64)
	for _, tc := range []struct {
		name   string
		scorer Scorer
	}{
		{"ika", NewIKA(Config{Normalize: true, RobustFilter: true})},
		{"classic", NewClassic(Config{Normalize: true, RobustFilter: true})},
		{"robust", NewRobust(Config{Normalize: true, RobustFilter: true})},
	} {
		cfg := tc.scorer.Config()
		lo := cfg.PastSpan()
		hi := len(x) - cfg.FutureSpan() + 1
		want := make([]float64, hi-lo)
		for i := range want {
			want[i] = tc.scorer.ScoreAt(x, lo+i)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				for n := 0; n < 200; n++ {
					i := rng.Intn(hi - lo)
					if got := tc.scorer.ScoreAt(x, lo+i); got != want[i] {
						errs <- tc.name
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		if name, ok := <-errs; ok {
			t.Fatalf("%s: concurrent score diverged from sequential", name)
		}
	}
}

// The dense reference scorers were the last allocating SST paths
// (~40–50 allocs per window from trajectory matrices, SVD staging and
// column extraction); now every buffer is pooled, a steady-state score
// allocates nothing.
func TestClassicRobustScoreAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; alloc guarantee does not hold")
	}
	x := mixedSeries(400, 64)
	for name, cfg := range configMatrix() {
		for variant, s := range map[string]Scorer{
			"classic": NewClassic(cfg),
			"robust":  NewRobust(cfg),
		} {
			rcfg := s.Config()
			t0 := rcfg.PastSpan()
			span := len(x) - rcfg.FutureSpan() - t0
			for i := 0; i < span; i++ {
				s.ScoreAt(x, t0+i) // warm the pooled workspace
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				s.ScoreAt(x, t0+i%span)
				i++
			})
			if allocs != 0 {
				t.Errorf("%s/%s: allocs/op = %v, want 0", variant, name, allocs)
			}
		}
	}
}
