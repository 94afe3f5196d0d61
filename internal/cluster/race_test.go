//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
