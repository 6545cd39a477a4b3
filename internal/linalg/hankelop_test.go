package linalg

import (
	"math/rand"
	"testing"
)

// randSeries returns n pseudo-random points.
func randSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
	}
	return x
}

// The implicit operator must agree with the dense Hankel Gram path bit
// for bit: same sliding windows, same accumulation order.
func TestHankelGramMatchesDenseGram(t *testing.T) {
	x := randSeries(128, 1)
	cases := []struct{ end, omega, delta int }{
		{20, 9, 9},
		{40, 5, 9},
		{60, 9, 5},
		{128, 15, 15},
		{17, 9, 9}, // lo == 0 edge
		{3, 1, 3},
		{128, 1, 1},
	}
	for _, c := range cases {
		dense := GramOp(Hankel(x, c.end, c.omega, c.delta))
		var h HankelGram
		h.Reset(x, c.end, c.omega, c.delta)
		if h.omega != c.omega {
			t.Fatalf("omega = %d, want %d", h.omega, c.omega)
		}
		v := randSeries(c.omega, int64(c.end))
		v[0] = 0 // exercise the zero-skip path
		want := make([]float64, c.omega)
		got := make([]float64, c.omega)
		dense(want, v)
		h.Apply(got, v)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %+v: dst[%d] = %v, dense %v", c, i, got[i], want[i])
			}
		}
	}
}

// HankelOp is the closure form of the same operator.
func TestHankelOpMatchesDense(t *testing.T) {
	x := randSeries(64, 2)
	op := HankelOp(x, 34, 9, 9)
	dense := GramOp(Hankel(x, 34, 9, 9))
	v := randSeries(9, 3)
	got := make([]float64, 9)
	want := make([]float64, 9)
	op(got, v)
	dense(want, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dst[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
}

// RowSums must equal H·1 computed densely.
func TestHankelGramRowSums(t *testing.T) {
	x := randSeries(64, 4)
	hank := Hankel(x, 40, 9, 7)
	ones := make([]float64, 7)
	for i := range ones {
		ones[i] = 1
	}
	want := hank.MulVec(ones)
	var h HankelGram
	h.Reset(x, 40, 9, 7)
	got := make([]float64, 9)
	h.RowSums(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rowsum[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
}

// Reset must retarget a live operator, including to a smaller geometry,
// and reuse the scratch buffer.
func TestHankelGramReset(t *testing.T) {
	x := randSeries(128, 5)
	var h HankelGram
	h.Reset(x, 100, 15, 15)
	h.Reset(x, 30, 5, 7)
	dense := GramOp(Hankel(x, 30, 5, 7))
	v := randSeries(5, 6)
	got := make([]float64, 5)
	want := make([]float64, 5)
	h.Apply(got, v)
	dense(want, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after reset: dst[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
}

func TestHankelGramPanicsOutOfRange(t *testing.T) {
	x := randSeries(20, 7)
	for _, c := range []struct{ end, omega, delta int }{
		{10, 9, 9},   // lo < 0
		{21, 9, 9},   // end beyond series
		{20, 12, 12}, // windows longer than the available prefix
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset(%+v) should panic", c)
				}
			}()
			var h HankelGram
			h.Reset(x, c.end, c.omega, c.delta)
		}()
	}
}

// Steady-state Apply, RowSums and Reset must not allocate.
func TestHankelGramZeroAlloc(t *testing.T) {
	x := randSeries(64, 8)
	var h HankelGram
	h.Reset(x, 34, 9, 9)
	v := randSeries(9, 9)
	dst := make([]float64, 9)
	allocs := testing.AllocsPerRun(100, func() {
		h.Reset(x, 40, 9, 9)
		h.Apply(dst, v)
		h.RowSums(dst)
	})
	if allocs != 0 {
		t.Fatalf("allocs/op = %v, want 0", allocs)
	}
}
