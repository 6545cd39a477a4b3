//go:build race

package monitor

// raceEnabled reports that this binary was built with -race. Under the
// race detector sync.Pool deliberately drops a fraction of Puts, so
// allocation counts that rest on a pool cannot hold; those tests skip
// themselves.
const raceEnabled = true
