package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// refGramRows computes the raw Hankel Gram and row sums directly, with
// the same c-order accumulation as SlidingHankelGram.rebuild, so a
// freshly built operator must match it bit for bit.
func refGramRows(x []float64, end, omega, delta int) (gram, rows []float64) {
	lo := end - delta - omega + 1
	gram = make([]float64, omega*omega)
	rows = make([]float64, omega)
	for r := 0; r < omega; r++ {
		var rs float64
		for c := 0; c < delta; c++ {
			rs += x[lo+r+c]
		}
		rows[r] = rs
		for s := 0; s < omega; s++ {
			var acc float64
			for c := 0; c < delta; c++ {
				acc += x[lo+r+c] * x[lo+s+c]
			}
			gram[r*omega+s] = acc
		}
	}
	return gram, rows
}

func TestSlidingGramInitMatchesDirect(t *testing.T) {
	x := randSeries(200, 70)
	cases := []struct{ end, omega, delta int }{
		{20, 9, 9},
		{40, 5, 9},
		{60, 9, 5},
		{17, 9, 9}, // lo == 0 edge
		{3, 1, 3},
		{200, 15, 15},
	}
	var g SlidingHankelGram
	var dst Matrix
	for _, c := range cases {
		g.Init(x, c.end, c.omega, c.delta)
		if g.End() != c.end || g.omega != c.omega {
			t.Fatalf("case %+v: End=%d omega=%d", c, g.End(), g.omega)
		}
		wantG, wantR := refGramRows(x, c.end, c.omega, c.delta)
		g.GramInto(&dst, 0, 1)
		for i, v := range dst.Data {
			if v != wantG[i] {
				t.Fatalf("case %+v: gram[%d] = %v, want %v", c, i, v, wantG[i])
			}
		}
		rows := make([]float64, c.omega)
		g.RowSumsInto(rows, 0, 1)
		for i, v := range rows {
			if v != wantR[i] {
				t.Fatalf("case %+v: rows[%d] = %v, want %v", c, i, v, wantR[i])
			}
		}
	}
}

// closeRel fails unless |got−want| ≤ tol·max(1, |want|).
func closeRel(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	lim := tol * math.Max(1, math.Abs(want))
	if math.Abs(got-want) > lim {
		t.Fatalf("%s = %v, want %v (|Δ| = %g > %g)", what, got, want, math.Abs(got-want), lim)
	}
}

// Sliding across the whole series must track the direct computation —
// both at the default rebuild cadence and with rebuilds disabled, where
// only accumulated floating-point drift separates the two.
func TestSlidingGramSlideMatchesDirect(t *testing.T) {
	x := randSeries(700, 71)
	for _, refresh := range []int{0, -1} {
		omega, delta := 9, 9
		start := omega + delta - 1
		var g SlidingHankelGram
		g.RefreshEvery = refresh
		g.Init(x, start, omega, delta)
		var dst Matrix
		rows := make([]float64, omega)
		for end := start + 1; end <= len(x); end++ {
			g.Slide()
			if g.End() != end {
				t.Fatalf("refresh=%d: End = %d, want %d", refresh, g.End(), end)
			}
			wantG, wantR := refGramRows(x, end, omega, delta)
			g.GramInto(&dst, 0, 1)
			for i := range wantG {
				closeRel(t, dst.Data[i], wantG[i], 1e-9, "gram entry")
			}
			g.RowSumsInto(rows, 0, 1)
			for i := range wantR {
				closeRel(t, rows[i], wantR[i], 1e-9, "row sum")
			}
		}
	}
}

// The affine-correction identity must reproduce the Gram and row sums of
// the explicitly normalized window w = (x − med)·inv.
func TestSlidingGramNormalizedMatchesDirect(t *testing.T) {
	x := randSeries(300, 72)
	omega, delta := 9, 9
	start := omega + delta - 1
	var g SlidingHankelGram
	g.Init(x, start, omega, delta)
	var dst Matrix
	rows := make([]float64, omega)
	med, inv := 3.7, 0.42
	w := make([]float64, len(x))
	for i, v := range x {
		w[i] = (v - med) * inv
	}
	for end := start; end <= start+130; end++ {
		if end > start {
			g.Slide()
		}
		wantG, wantR := refGramRows(w, end, omega, delta)
		g.GramInto(&dst, med, inv)
		for i := range wantG {
			closeRel(t, dst.Data[i], wantG[i], 1e-9, "normalized gram entry")
		}
		g.RowSumsInto(rows, med, inv)
		for i := range wantR {
			closeRel(t, rows[i], wantR[i], 1e-9, "normalized row sum")
		}
	}
}

// The slid Gram matrix must behave as the same SymOp as the implicit
// HankelGram operator within drift tolerance.
func TestSlidingGramApplyMatchesHankelGram(t *testing.T) {
	x := randSeries(200, 73)
	omega, delta := 7, 9
	start := omega + delta - 1
	var g SlidingHankelGram
	g.Init(x, start, omega, delta)
	for i := 0; i < 50; i++ {
		g.Slide()
	}
	var dst Matrix
	g.GramInto(&dst, 0, 1)
	var h HankelGram
	h.Reset(x, g.End(), omega, delta)
	v := randSeries(omega, 74)
	got := make([]float64, omega)
	want := make([]float64, omega)
	dst.Apply(got, v)
	h.Apply(want, v)
	for i := range want {
		closeRel(t, got[i], want[i], 1e-9, "operator apply")
	}
}

// A KPI whose level dwarfs its spread is where the affine-correction
// identity cancels catastrophically without centering: the raw products
// sit at level², the normalized Gram at spread². Recentering near the
// level must keep the normalized readout at full precision, and sliding
// between recenters must not lose it.
func TestSlidingGramRecenterLargeOffset(t *testing.T) {
	noise := randSeries(300, 77)
	x := make([]float64, len(noise))
	const level = 4.2e7
	for i, v := range noise {
		x[i] = level + v // spread ~10 on a ~4e7 level
	}
	omega, delta := 9, 9
	start := omega + delta - 1
	var g SlidingHankelGram
	g.RefreshEvery = -1 // recentring is the only rebuild
	g.Init(x, start, omega, delta)
	med, inv := level+0.3, 0.1
	w := make([]float64, len(x))
	for i, v := range x {
		w[i] = (v - med) * inv
	}
	var dst Matrix
	for end := start; end <= start+200; end++ {
		if end > start {
			g.Slide()
		}
		if (end-start)%64 == 0 {
			g.Recenter(med)
		}
		wantG, _ := refGramRows(w, end, omega, delta)
		g.GramInto(&dst, med, inv)
		for i := range wantG {
			closeRel(t, dst.Data[i], wantG[i], 1e-9, "recentered gram entry")
		}
	}
}

func TestSlidingGramPanics(t *testing.T) {
	x := randSeries(30, 75)
	var g SlidingHankelGram
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("short series", func() { g.Init(x, 10, 9, 9) })
	g.Init(x, 30, 9, 9)
	mustPanic("slide past end", func() { g.Slide() })
}

// Steady-state sliding must not allocate: one slide plus both readouts.
func TestSlidingGramZeroAlloc(t *testing.T) {
	x := randSeries(4096, 76)
	omega, delta := 9, 9
	var g SlidingHankelGram
	g.Init(x, omega+delta-1, omega, delta)
	var dst Matrix
	rows := make([]float64, omega)
	g.GramInto(&dst, 0.5, 2) // warm dst
	allocs := testing.AllocsPerRun(200, func() {
		g.Slide()
		g.GramInto(&dst, 0.5, 2)
		g.RowSumsInto(rows, 0.5, 2)
	})
	if allocs != 0 {
		t.Fatalf("allocs/op = %v, want 0", allocs)
	}
}

// refSlidingGram is SlidingHankelGram as it kept the Gram before the lag
// rings: the whole ω×ω matrix, shifted up-left by one at every slide and
// extended by a new last column. The ring must read out what it read out,
// bit for bit.
type refSlidingGram struct {
	x            []float64
	end          int
	omega, delta int
	c            float64
	gram         []float64
	rows         []float64
	newcol       []float64
	slides       int
	RefreshEvery int
}

func (g *refSlidingGram) Init(x []float64, end, omega, delta int) {
	g.x, g.end, g.omega, g.delta = x, end, omega, delta
	g.c = 0
	g.gram = make([]float64, omega*omega)
	g.rows = make([]float64, omega)
	g.newcol = make([]float64, omega)
	g.rebuild()
}

func (g *refSlidingGram) Recenter(c float64) {
	g.c = c
	g.rebuild()
}

func (g *refSlidingGram) rebuild() {
	x, n, cc := g.x, g.omega, g.c
	lo := g.end - g.delta - n + 1
	for r := 0; r < n; r++ {
		baseR := lo + r
		var rs float64
		for c := 0; c < g.delta; c++ {
			rs += x[baseR+c] - cc
		}
		g.rows[r] = rs
		for s := r; s < n; s++ {
			baseS := lo + s
			var acc float64
			for c := 0; c < g.delta; c++ {
				acc += (x[baseR+c] - cc) * (x[baseS+c] - cc)
			}
			g.gram[r*n+s] = acc
			g.gram[s*n+r] = acc
		}
	}
	g.slides = 0
}

func (g *refSlidingGram) Slide() {
	g.end++
	every := g.RefreshEvery
	if every == 0 {
		every = slideRefreshEvery
	}
	if every > 0 && g.slides+1 >= every {
		g.rebuild()
		return
	}
	g.slides++
	x, n, cc := g.x, g.omega, g.c
	lo := g.end - 1 - g.delta - n + 1
	xr1 := x[lo+n-1] - cc
	xr2 := x[lo+n-1+g.delta] - cc
	for r := 0; r < n; r++ {
		g.newcol[r] = g.gram[r*n+n-1] - (x[lo+r]-cc)*xr1 + (x[lo+r+g.delta]-cc)*xr2
	}
	for r := 0; r < n-1; r++ {
		copy(g.gram[r*n:r*n+n-1], g.gram[(r+1)*n+1:(r+2)*n])
	}
	for r := 0; r < n; r++ {
		g.gram[r*n+n-1] = g.newcol[r]
		g.gram[(n-1)*n+r] = g.newcol[r]
	}
	last := g.rows[n-1] - xr1 + xr2
	copy(g.rows[:n-1], g.rows[1:n])
	g.rows[n-1] = last
}

func (g *refSlidingGram) GramInto(dst *Matrix, med, inv float64) {
	n := g.omega
	dst.Reshape(n, n)
	m := med - g.c
	if m == 0 && inv == 1 {
		copy(dst.Data, g.gram)
		return
	}
	i2 := inv * inv
	c2 := float64(g.delta) * m * m
	for r := 0; r < n; r++ {
		mr := g.rows[r]
		for s := r; s < n; s++ {
			v := (g.gram[r*n+s] - m*(mr+g.rows[s]) + c2) * i2
			dst.Data[r*n+s] = v
			dst.Data[s*n+r] = v
		}
	}
}

func (g *refSlidingGram) RowSumsInto(dst []float64, med, inv float64) {
	dm := float64(g.delta) * (med - g.c)
	for r := 0; r < g.omega; r++ {
		dst[r] = (g.rows[r] - dm) * inv
	}
}

// ringRefresh and ringOffsets are the rebuild cadences and series levels
// a ring schedule draws from: the default, never (Recenter only), a short
// and the sweep's cadence; a zero, a small and a large-offset level.
var (
	ringRefresh = [4]int{0, -1, 5, 64}
	ringOffsets = [3]float64{0, 50, 3.7e7}
)

// checkRingSchedule decodes a schedule — byte 0 picks ω, byte 1 δ (both
// in 2..10), byte 2 the rebuild cadence, byte 3 the level; each further
// byte is one sample, and a sample byte ≡ 3 (mod 16) recenters both
// operators on it when the window end reaches it — and holds every
// readout of the ring to the shift-based reference, bit for bit.
func checkRingSchedule(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	omega, delta := 2+int(data[0])%9, 2+int(data[1])%9
	refresh, offset := ringRefresh[data[2]%4], ringOffsets[data[3]%3]
	samples := data[4:]
	start := omega + delta - 1
	if len(samples) < start {
		return
	}
	x := make([]float64, len(samples))
	for i, b := range samples {
		x[i] = offset + (float64(b)-127.5)*0.1
	}
	var ring SlidingHankelGram
	var ref refSlidingGram
	ring.RefreshEvery, ref.RefreshEvery = refresh, refresh
	ring.Init(x, start, omega, delta)
	ref.Init(x, start, omega, delta)
	var got, want Matrix
	gotRows, wantRows := make([]float64, omega), make([]float64, omega)
	for end := start; ; end++ {
		if samples[end-1]%16 == 3 {
			ring.Recenter(x[end-1])
			ref.Recenter(x[end-1])
		}
		for _, aff := range [][2]float64{{0, 1}, {offset + 0.3, 0.42}} {
			ring.GramInto(&got, aff[0], aff[1])
			ref.GramInto(&want, aff[0], aff[1])
			ring.RowSumsInto(gotRows, aff[0], aff[1])
			ref.RowSumsInto(wantRows, aff[0], aff[1])
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("ω=%d δ=%d refresh=%d offset=%v end=%d affine %v: gram[%d] = %v, shift %v",
						omega, delta, refresh, offset, end, aff, i, got.Data[i], want.Data[i])
				}
			}
			for i := range wantRows {
				if math.Float64bits(gotRows[i]) != math.Float64bits(wantRows[i]) {
					t.Fatalf("ω=%d δ=%d refresh=%d offset=%v end=%d affine %v: rows[%d] = %v, shift %v",
						omega, delta, refresh, offset, end, aff, i, gotRows[i], wantRows[i])
				}
			}
		}
		if end == len(x) {
			return
		}
		ring.Slide()
		ref.Slide()
	}
}

// ringSchedules are 300 random schedules over every ω, δ, cadence and
// level, 60 to 259 samples long.
func ringSchedules() [][]byte {
	rng := rand.New(rand.NewSource(78))
	var out [][]byte
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+60+rng.Intn(200))
		rng.Read(data)
		out = append(out, data)
	}
	return out
}

// The lag rings read out exactly what shifting the matrix did, through
// slides, periodic rebuilds and recenters.
func TestSlidingGramRingMatchesShift(t *testing.T) {
	for _, data := range ringSchedules() {
		checkRingSchedule(t, data)
	}
}

func FuzzSlidingGram(f *testing.F) {
	for _, data := range ringSchedules() {
		f.Add(data)
	}
	f.Fuzz(checkRingSchedule)
}
