// Quickstart: build one simulated machine, run the SPECjbb workload on four
// processors for a tenth of a simulated second, and read off the three
// measurements the library is organized around — throughput, the
// execution-mode breakdown, and the memory-system counters.
package main

import (
	"fmt"

	"repro/internal/core"
)

func main() {
	// A System is a full machine: 16 UltraSPARC-II-like processors with
	// private 1 MB L2 caches on a snooping bus, a Solaris-like scheduler,
	// a simulated JVM heap with a generational collector, and the chosen
	// workload already wired to worker threads.
	sys := core.BuildSystem(core.SystemParams{
		Kind:       core.SPECjbb,
		Processors: 4, // psrset: the workload is bound to 4 of the 16 CPUs
		Seed:       42,
	})

	// Warm the caches, then measure a clean window (the paper reports
	// steady-state intervals only): core.Run resets every statistic at the
	// warm-up boundary.
	const warmup, window = 10_000_000, 25_000_000
	core.Run(sys, core.RunSpec{Warmup: warmup, Measure: window})

	res := sys.Engine.Results()
	seconds := float64(window) / core.CyclesPerSecond

	fmt.Printf("throughput: %.0f transactions/s\n", float64(res.BusinessOps)/seconds)

	total := float64(res.Modes.Total())
	fmt.Printf("modes: %.0f%% user, %.0f%% system, %.0f%% idle, %.0f%% gc-idle\n",
		100*float64(res.Modes.User)/total, 100*float64(res.Modes.System)/total,
		100*float64(res.Modes.Idle)/total, 100*float64(res.Modes.GCIdle)/total)

	c := res.CPU
	fmt.Printf("CPI: %.2f over %d instructions\n", c.CPI(), c.Instructions)

	bus := sys.Hier.Bus().Stats
	fmt.Printf("L2 misses: %d (%.0f%% served cache-to-cache)\n",
		bus.DataRequests(), 100*bus.C2CRatio())
}
