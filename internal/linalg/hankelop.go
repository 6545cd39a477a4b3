package linalg

import "fmt"

// SymOp is an implicit symmetric linear operator: Apply writes A·v into
// dst. dst and v never alias. It is the interface form of MatVec; using
// an interface on the hot path lets a reusable struct operator be passed
// to LanczosWS without allocating a closure per call.
type SymOp interface {
	Apply(dst, v []float64)
}

// Apply lets a MatVec function value be used wherever a SymOp is
// expected. Converting a func value to an interface does not allocate.
func (f MatVec) Apply(dst, v []float64) { f(dst, v) }

// HankelGram is a reusable implicit Gram operator C = H·Hᵀ for the
// Hankel trajectory matrix H of a series slice (the matrix Hankel would
// materialize). Apply evaluates C·v directly from the series via sliding
// dot products, so the ω×δ trajectory matrix never exists in memory —
// the "matrix compression" remark of §3.2.3: Lanczos only ever touches
// C through matrix–vector products.
//
// The zero value is ready for use after Reset. Reset retains the scratch
// buffer across calls, so a long-lived HankelGram performs no steady-state
// allocations; Apply never allocates.
//
// Arithmetic note: Apply accumulates terms in exactly the order the
// dense path H·(Hᵀ·v) over Hankel(...) does (including skipping zero
// entries of v in the Hᵀ·v stage), so implicit and dense scores agree
// bit for bit — the equivalence the sst tests pin down.
type HankelGram struct {
	x            []float64
	lo           int // index in x of the first (oldest) window start
	omega, delta int
	tmp          []float64 // Hᵀ·v scratch, length delta
}

// Reset points the operator at the trajectory matrix of x whose δ
// windows of length ω end at position end−1 — the same geometry as
// Hankel(x, end, omega, delta). It panics on an out-of-range window and
// reuses the internal scratch when capacity allows.
func (h *HankelGram) Reset(x []float64, end, omega, delta int) {
	lo := end - delta - omega + 1
	if lo < 0 || end > len(x) {
		panic(fmt.Sprintf("linalg: hankel op out of range: end=%d omega=%d delta=%d len=%d", end, omega, delta, len(x)))
	}
	h.x, h.lo, h.omega, h.delta = x, lo, omega, delta
	if cap(h.tmp) < delta {
		h.tmp = make([]float64, delta)
	}
	h.tmp = h.tmp[:delta]
}

// Dims returns the operator's dimension ω (C is ω×ω).
func (h *HankelGram) Dims() int { return h.omega }

// Apply writes H·Hᵀ·v into dst (both length ω) without forming H:
// (Hᵀv)[c] and (H·t)[r] are sliding dot products against the series.
func (h *HankelGram) Apply(dst, v []float64) {
	x, lo := h.x, h.lo
	// tmp[c] = Σ_r x[lo+c+r]·v[r]  — column c of H is the window
	// starting at lo+c. Zero entries of v are skipped to mirror the
	// dense MulTVecTo term set exactly.
	for c := 0; c < h.delta; c++ {
		base := lo + c
		var s float64
		for r := 0; r < h.omega; r++ {
			if vr := v[r]; vr != 0 {
				s += x[base+r] * vr
			}
		}
		h.tmp[c] = s
	}
	// dst[r] = Σ_c x[lo+c+r]·tmp[c].
	for r := 0; r < h.omega; r++ {
		base := lo + r
		var s float64
		for c, tc := range h.tmp {
			s += x[base+c] * tc
		}
		dst[r] = s
	}
}

// RowSums writes H·1 — the row sums of the implicit trajectory matrix —
// into dst (length ω). IKA uses this as its deterministic Krylov start
// vector without materializing H or a ones vector.
func (h *HankelGram) RowSums(dst []float64) {
	x, lo := h.x, h.lo
	for r := 0; r < h.omega; r++ {
		base := lo + r
		var s float64
		for c := 0; c < h.delta; c++ {
			s += x[base+c]
		}
		dst[r] = s
	}
}
