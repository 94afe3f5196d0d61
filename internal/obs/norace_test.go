//go:build !race

package obs

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
