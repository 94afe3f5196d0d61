// Command cachesweep runs the paper's uniprocessor trace-driven cache-size
// sweeps (the Simics+Sumo methodology behind Figures 12 and 13) and prints
// instruction- and data-cache miss rates per configuration.
//
// Usage:
//
//	cachesweep [-ops N] [-seed N]
//	           [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	           [-attr FILE] [-attr-exact] [-attr-top N]
//
// The sweeper is purely functional (no timing model), so observability
// artifacts use the instruction count as the clock: trace timestamps are
// instructions (~cycles at the uniprocessor's ~1 CPI) and the folded
// profile attributes instructions to code components. -attr attributes at
// the reference level (every line touched), not the miss level: there is
// no coherence protocol on one processor, so the report's value here is
// the hot-object table, not the sharing patterns.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cachesweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ops := fs.Int("ops", 600, "measured operations per thread")
	warm := fs.Int("warm", 120, "warm-up operations per thread")
	seed := fs.Uint64("seed", 20030208, "simulation seed")
	mode := fs.String("mode", "size", "swept dimension: size, assoc, or block")
	fixed := fs.Int("fixed", 256<<10, "cache size in bytes for assoc/block modes")
	var ofl obs.Flags
	ofl.Register(fs)
	var hp obs.HostProfile
	hp.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if ofl.LatencyEnabled() {
		// The sweeper has no timing model, so there is no request latency to
		// measure; accept-and-warn keeps shared flag sets usable across tools.
		fmt.Fprintln(stderr, "cachesweep: -latency/-slo ignored (trace-driven sweep has no timing model)")
		ofl.Latency, ofl.SLO = "", ""
	}
	if ofl.Flight != "on" && ofl.FlightEnabled() {
		// Same accept-and-warn policy for the flight recorder: the sweeper has
		// no run loop (and no simulated clock) to tick a black box with.
		fmt.Fprintln(stderr, "cachesweep: -flight ignored (trace-driven sweep has no run loop to record)")
	}

	sess, err := core.NewSession("cachesweep", &ofl, &hp, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "cachesweep:", err)
		return 1
	}
	defer sess.Close()
	o := core.SweepOpts{WarmupOps: *warm, MeasureOps: *ops, Seed: *seed, Progress: sess.Progress}
	// The workload configurations run concurrently, each with its own
	// observer; artifacts merge at the end, in creation order.
	if ofl.Enabled() {
		o.Observe = sess.Observe
	}
	var cs *core.CacheSweeps
	var dim string
	switch *mode {
	case "size":
		cs = core.RunCacheSweeps(o)
		dim = "size"
	case "assoc":
		cs = core.RunGeometrySweeps(o, core.SweepAssoc, *fixed)
		dim = "ways"
	case "block":
		cs = core.RunGeometrySweeps(o, core.SweepBlock, *fixed)
		dim = "block"
	default:
		fmt.Fprintln(stdout, "unknown -mode; use size, assoc, or block")
		return 0
	}

	fmt.Fprintf(stdout, "misses per 1000 instructions, sweeping %s\n", dim)
	fmt.Fprintf(stdout, "%10s", dim)
	for _, r := range cs.Results {
		fmt.Fprintf(stdout, " | %10s-I %10s-D", r.Label, r.Label)
	}
	fmt.Fprintln(stdout)
	for i := range cs.Results[0].ICurve {
		switch *mode {
		case "assoc":
			fmt.Fprintf(stdout, "%9dw", 1<<uint(i))
		case "block":
			fmt.Fprintf(stdout, "%9dB", 16<<uint(i))
		default:
			fmt.Fprintf(stdout, "%8dKB", cs.Results[0].ICurve[i].SizeBytes/1024)
		}
		for _, r := range cs.Results {
			fmt.Fprintf(stdout, " | %12.3f %12.3f", r.ICurve[i].MissesPer1000, r.DCurve[i].MissesPer1000)
		}
		fmt.Fprintln(stdout)
	}
	sess.Progress.Stop()

	err = sess.Finish(obs.Manifest{
		Args:  args,
		Seeds: []uint64{*seed},
		Opts: map[string]any{
			"warmup_ops": *warm, "measure_ops": *ops,
			"mode": *mode, "fixed_bytes": *fixed,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
