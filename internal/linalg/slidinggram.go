package linalg

import "fmt"

// slideRefreshEvery is the default number of incremental slides between
// full Gram rebuilds. Each slide applies a retire/add update whose
// floating-point error is O(ε·‖x‖²); rebuilding every few dozen slides
// keeps the accumulated drift orders of magnitude below the 1e-9
// equivalence budget the sst sweep tests enforce, while amortizing the
// O(ω²δ) rebuild down to O(ω²δ/64) per position.
const slideRefreshEvery = 64

// SlidingHankelGram maintains the dense Gram matrix G = H·Hᵀ (ω×ω) and
// the row sums R = H·1 of the Hankel trajectory matrix
// H = Hankel(x, end, ω, δ) as end advances one position at a time.
//
// Consecutive window positions share all but one lag vector, and the
// entries of G along each diagonal are shifted copies of the same
// sliding lag-product sequence: G[r][s] = S_{s−r}(lo+r) with
// S_d(a) = Σ_c x[a+c]·x[a+c+d]. The operator therefore stores each
// diagonal, not the matrix: a ring of the lag products S_d(a) indexed by
// window start a, and a ring of the row sums R(a). A slide advances the
// rings' head by one and writes one new value per lag, a single
// retire/add update of the newest one — O(ω) multiplications and no
// data movement instead of the O(ω²·δ) rebuild; GramInto and RowSumsInto
// read G and R through the head. Each ring is kept twice over (slot i
// and slot i+ω hold the same value), so a readout walks a contiguous
// run from the head with no index wrap. Every slideRefreshEvery slides
// the rings are rebuilt from scratch to wash out floating-point drift.
//
// The products of the centered samples y = x − c are maintained, where
// the center c (0 after Init, moved by Recenter) should track the local
// data level; GramInto and RowSumsInto apply the affine normalization
// w = (x − med)·inv on the way out, using the identity
//
//	Ĝ[r][s] = inv²·(G[r][s] − m·(R[r]+R[s]) + δ·m²),  m = med − c,
//
// so a per-position robust normalization (whose med/scale change at
// every position) never forces a rebuild. Centering matters for
// accuracy, not correctness: with c = 0 a KPI whose level is far above
// its spread makes the correction a difference of huge near-equal
// sums, and the cancellation can cost every digit the normalized Gram
// has. Keeping c within the spread of the data keeps all three terms
// of the identity at the spread's scale.
//
// The zero value is ready for use after Init. Buffers are retained
// across Init calls, so a pooled long-lived value performs no
// steady-state allocations.
type SlidingHankelGram struct {
	x            []float64
	end          int
	omega, delta int
	c            float64 // maintained sample offset (see Recenter)
	// lags holds ω rings of 2ω slots, one per lag d: the window start
	// lo+r, r < ω−d, is at slot head+r of ring d, which holds the
	// centered S_d(lo+r); slot i+ω repeats slot i.
	lags []float64
	// rows is the ring of centered row sums, R(lo+r) at slot head+r,
	// doubled like lags.
	rows   []float64
	head   int // ring slot of the window start lo, in [0, ω)
	slides int // incremental slides since the last rebuild
	// RefreshEvery overrides the rebuild cadence (0 = slideRefreshEvery,
	// negative = never rebuild; used by drift tests and by callers that
	// rebuild through Recenter on their own schedule).
	RefreshEvery int
}

// Init points the operator at Hankel(x, end, omega, delta) and builds
// the Gram and row sums from scratch.
func (g *SlidingHankelGram) Init(x []float64, end, omega, delta int) {
	lo := end - delta - omega + 1
	if lo < 0 || end > len(x) {
		panic(fmt.Sprintf("linalg: sliding hankel out of range: end=%d omega=%d delta=%d len=%d", end, omega, delta, len(x)))
	}
	g.x, g.end, g.omega, g.delta = x, end, omega, delta
	g.c = 0
	if cap(g.lags) < 2*omega*omega {
		g.lags = make([]float64, 2*omega*omega)
	}
	g.lags = g.lags[:2*omega*omega]
	if cap(g.rows) < 2*omega {
		g.rows = make([]float64, 2*omega)
	}
	g.rows = g.rows[:2*omega]
	g.rebuild()
}

// End returns the current window end (the Hankel geometry's end).
func (g *SlidingHankelGram) End() int { return g.end }

// SetSeries re-points the operator at x without touching the maintained
// products. x must agree bit-for-bit with the previously installed
// series on every bin at or before the current end — the intended use
// is a resumable sweep over a growing series, where each call sees a
// longer prefix of the same data (possibly in a reallocated buffer).
// Rebuilds and slides after the call read the same values they would
// have read from an ungrown series, so the maintained state stays
// exact.
func (g *SlidingHankelGram) SetSeries(x []float64) { g.x = x }

// Recenter moves the maintained sample offset to c and rebuilds. Callers
// tracking a drifting level (e.g. a per-position normalization median)
// call it periodically so the centered products stay at the spread's
// scale; pairing it with RefreshEvery < 0 makes Recenter the only
// rebuild cadence.
func (g *SlidingHankelGram) Recenter(c float64) {
	g.c = c
	g.rebuild()
}

// rebuild recomputes the centered lag products and row sums from the
// series, with the window start at slot 0. Subtracting a zero center is
// exact, so the uncentered results are bit-identical to a direct
// computation on x.
func (g *SlidingHankelGram) rebuild() {
	x, n, cc := g.x, g.omega, g.c
	lo := g.end - g.delta - n + 1
	for r := 0; r < n; r++ {
		baseR := lo + r
		var rs float64
		for c := 0; c < g.delta; c++ {
			rs += x[baseR+c] - cc
		}
		g.rows[r], g.rows[r+n] = rs, rs
		for s := r; s < n; s++ {
			baseS := lo + s
			var acc float64
			for c := 0; c < g.delta; c++ {
				acc += (x[baseR+c] - cc) * (x[baseS+c] - cc)
			}
			ring := g.lags[(s-r)*2*n:]
			ring[r], ring[r+n] = acc, acc
		}
	}
	g.head = 0
	g.slides = 0
}

// Slide advances the window end by one position. It panics when the
// series has no sample at the new end.
func (g *SlidingHankelGram) Slide() {
	if g.end >= len(g.x) {
		panic(fmt.Sprintf("linalg: sliding hankel slide past series end %d", g.end))
	}
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
	lo := g.end - 1 - g.delta - n + 1 // lo of the *previous* position
	h := g.head
	next := h + 1
	if next == n {
		next = 0
	}
	// Extend each diagonal by one lag product: lag d = ω−1−r gains
	// S_d(lo+1+r), which retires y[lo+r]·y[lo+ω−1] from its newest value
	// S_d(lo+r) and admits the product one δ later. It lands one slot
	// past that newest value: a slot ring d left unused (it held ω−d
	// starts) or, for d = 0, the retired start lo's.
	xr1 := x[lo+n-1] - cc
	xr2 := x[lo+n-1+g.delta] - cc
	for r := 0; r < n; r++ {
		ring := g.lags[(n-1-r)*2*n : (n-r)*2*n]
		v := ring[h+r] - (x[lo+r]-cc)*xr1 + (x[lo+r+g.delta]-cc)*xr2
		slot := next + r
		if slot >= n {
			slot -= n
		}
		ring[slot], ring[slot+n] = v, v
	}
	// The row sums gain R(lo+ω) in the slot R(lo) leaves.
	last := g.rows[h+n-1] - xr1 + xr2
	g.rows[h], g.rows[h+n] = last, last
	g.head = next
}

// GramInto writes the Gram matrix of the affinely transformed window
// w = (x − med)·inv into dst (reshaped to ω×ω). med = 0, inv = 1 copies
// the raw Gram.
func (g *SlidingHankelGram) GramInto(dst *Matrix, med, inv float64) {
	n := g.omega
	dst.Reshape(n, n)
	m := med - g.c
	rows := g.rows[g.head : g.head+n]
	raw := m == 0 && inv == 1
	i2 := inv * inv
	c2 := float64(g.delta) * m * m
	for r := 0; r < n; r++ {
		mr := rows[r]
		// G[r][s] = S_{s−r}(lo+r): slot head+r of ring s−r.
		at := g.head + r
		for s := r; s < n; s++ {
			v := g.lags[at]
			if !raw {
				v = (v - m*(mr+rows[s]) + c2) * i2
			}
			dst.Data[r*n+s] = v
			dst.Data[s*n+r] = v
			at += 2 * n
		}
	}
}

// RowSumsInto writes the row sums of the affinely transformed window
// into dst (length ω): (R[r] − δ·med)·inv. This is the H·1 Krylov start
// vector IKA uses, without materializing H or the normalized window.
func (g *SlidingHankelGram) RowSumsInto(dst []float64, med, inv float64) {
	dm := float64(g.delta) * (med - g.c)
	for r, v := range g.rows[g.head : g.head+g.omega] {
		dst[r] = (v - dm) * inv
	}
}
