//go:build !race

package monitor

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
