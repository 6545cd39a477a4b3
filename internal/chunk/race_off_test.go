//go:build !race

package chunk

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
