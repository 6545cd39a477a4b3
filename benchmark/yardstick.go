package main

import (
	"math/rand"
	"sync"
	"time"
)

// The sandbox this benchmark runs in is two virtual CPUs of a shared
// host, and what its neighbours do moves every timing: throughput-bound
// code by up to a factor of two within a second, whole runs by a third
// over some minutes (README, "Spread and bounds"). No estimator inside a
// run removes a slow-down that lasts longer than the run, so the harness
// carries a yardstick: a fixed piece of work that is no part of the
// program under test — arithmetic, cache misses and streaming reads, on
// both CPUs at once — timed between the rounds of every timed region.
// The time metrics are reported relative to it: divided by the run's
// host-speed factor, which is 1 on a quiet host of the class the
// nominal values below were read on, and above 1 when the host is slow.
// A change to the program cannot move the yardstick; a slow quarter of
// an hour on the host moves both and cancels.
const (
	yardILPSteps   = 1 << 19 // iterations of the arithmetic kernel per CPU
	yardChaseSteps = 1 << 15 // dependent loads per CPU
	yardChaseLen   = 1 << 20 // int32 entries per chase table: 4 MiB, the size of one L2
	yardStreamLen  = 1 << 20 // float64 entries streamed: 8 MiB

	// Nominal nanoseconds per step of the three kernels: the quiet
	// quartile read on the 2-vCPU sandbox this benchmark was sized on.
	// They only fix the scale of the reported numbers.
	yardILPNominal    = 3.3
	yardChaseNominal  = 145.0
	yardStreamNominal = 1.4
)

// yardstick owns the tables the kernels walk.
type yardstick struct {
	chase  [2][]int32
	stream []float64
	start  int32
	sinkF  [2]float64
	sinkI  [2]int32
}

// newYardstick builds the tables: two single-cycle permutations (one
// per CPU) and a flat array.
func newYardstick() *yardstick {
	y := &yardstick{stream: make([]float64, yardStreamLen)}
	for k := range y.chase {
		p := make([]int32, yardChaseLen)
		idx := rand.New(rand.NewSource(int64(k + 1))).Perm(yardChaseLen)
		for i, at := range idx {
			p[at] = int32(idx[(i+1)%yardChaseLen])
		}
		y.chase[k] = p
	}
	for i := range y.stream {
		y.stream[i] = float64(i)
	}
	return y
}

// onBoth runs f(0) and f(1) on two goroutines and returns how long the
// slower one took.
func onBoth(f func(k int)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			f(k)
		}(k)
	}
	wg.Wait()
	return time.Since(t0)
}

// read times the three kernels once (about 8 ms together) and returns
// the host-speed factor of this moment: the mean of the three
// per-step times, each as a multiple of its nominal value.
func (y *yardstick) read() float64 {
	ilp := onBoth(func(k int) {
		a, b, c, d, e, f, g, h := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		for i := 0; i < yardILPSteps; i++ {
			a = a*0.999999 + 0.1
			b = b*0.999998 + 0.2
			c = c*0.999997 + 0.3
			d = d*0.999996 + 0.4
			e = e*0.999995 + 0.5
			f = f*0.999994 + 0.6
			g = g*0.999993 + 0.7
			h = h*0.999992 + 0.8
		}
		y.sinkF[k] = a + b + c + d + e + f + g + h
	})
	start := y.start % yardChaseLen
	y.start += 7919
	chase := onBoth(func(k int) {
		j, p := start, y.chase[k]
		for i := 0; i < yardChaseSteps; i++ {
			j = p[j]
		}
		y.sinkI[k] = j
	})
	t0 := time.Now()
	var s float64
	for _, v := range y.stream {
		s += v
	}
	y.sinkF[0] += s
	stream := time.Since(t0)
	return (float64(ilp.Nanoseconds())/yardILPSteps/yardILPNominal +
		float64(chase.Nanoseconds())/yardChaseSteps/yardChaseNominal +
		float64(stream.Nanoseconds())/yardStreamLen/yardStreamNominal) / 3
}

// hostFactor folds a region's yardstick readings into its host-speed
// factor: their quiet quartile, the same share the time metrics are
// taken over.
func hostFactor(readings []float64) float64 {
	if len(readings) == 0 {
		return 1
	}
	return percentile(readings, quietShare)
}
