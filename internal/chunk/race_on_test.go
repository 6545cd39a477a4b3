//go:build race

package chunk

// raceEnabled reports that this binary was built with -race. Under the
// race detector sync.Pool deliberately drops a fraction of Puts, so
// Encode's pooled-scratch allocation count cannot hold; the allocation
// test skips itself (the byte-identity and concurrency tests still run,
// which is what -race is for).
const raceEnabled = true
