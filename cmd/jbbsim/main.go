// Command jbbsim runs the SPECjbb2000-like workload model on the simulated
// E6000 and prints the measurement views the paper collected: throughput,
// the mpstat-style execution-mode breakdown, the CPI decomposition, and the
// bus-level memory-system counters.
//
// Usage:
//
//	jbbsim [-p processors] [-w warehouses] [-seed N] [-measure cycles]
//	       [-memmodel fixed|loaded]
//	       [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	       [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	       [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//	       [-watchdog cycles]
//	       [-checkpoint FILE] [-checkpoint-every cycles] [-resume FILE]
//
// With -latency and/or -slo, every transaction is traced end to end through
// the simulated tiers and decomposed into phases (CPU, memory stall, lock
// wait, network, DB queue/service, GC pause); the per-class HDR histograms,
// latency time series, and SLO verdicts print after the standard report and
// land in the -latency JSON artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/report"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	procs, whs *int
	core.RunFlags
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		procs: fs.Int("p", 8, "processor-set size (1-16)"),
		whs:   fs.Int("w", 0, "warehouses (0 = processors, the tuned value)"),
	}
	af.RunFlags.Register(fs)
	return af
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jbbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	af := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "jbbsim:", err)
		return 1
	}
	params, err := af.Params(core.SystemParams{Kind: core.SPECjbb, Processors: *af.procs, Scale: *af.whs})
	if err != nil {
		return fail(err)
	}
	sess, err := core.NewSession("jbbsim", &af.Obs, &af.Host, stderr)
	if err != nil {
		return fail(err)
	}
	defer sess.Close()

	sys, obsRun, err := af.RunSystem(sess, params, "SPECjbb")
	if err != nil {
		return fail(err)
	}
	if wd := sys.Engine.WatchdogTripped(); wd != nil {
		fmt.Fprintf(stderr, "watchdog tripped:\n%s\n", wd)
		return 2
	}
	res := sys.Engine.Results()

	seconds := float64(af.Measure) / core.CyclesPerSecond
	fmt.Fprintf(stdout, "SPECjbb: %d processors, %d warehouses, %.0f ms measured\n",
		sys.Params.Processors, sys.Params.Scale, seconds*1000)
	fmt.Fprintf(stdout, "throughput        %10.0f transactions/s\n", float64(res.BusinessOps)/seconds)
	fmt.Fprintf(stdout, "transactions      %10d\n", res.BusinessOps)
	tags := make([]string, 0, len(res.OpsByTag))
	for tag := range res.OpsByTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		fmt.Fprintf(stdout, "  %-15s %10d\n", tag, res.OpsByTag[tag])
	}
	total := float64(res.Modes.Total())
	fmt.Fprintf(stdout, "modes: user %.1f%%  system %.1f%%  i/o %.1f%%  idle %.1f%%  gc-idle %.1f%%\n",
		100*float64(res.Modes.User)/total, 100*float64(res.Modes.System)/total,
		100*float64(res.Modes.IOWait)/total, 100*float64(res.Modes.Idle)/total,
		100*float64(res.Modes.GCIdle)/total)
	c := res.CPU
	if c.Instructions > 0 {
		in := float64(c.Instructions)
		fmt.Fprintf(stdout, "CPI %.3f (other %.3f, i-stall %.3f, d-stall %.3f)\n",
			float64(c.Total())/in, float64(c.BaseCycles)/in,
			float64(c.IStallCycles)/in, float64(c.DStall())/in)
	}
	bs := sys.Hier.Bus().Stats
	fmt.Fprintf(stdout, "bus: GetS %d  GetM %d  upgrades %d  c2c %d (ratio %.1f%%)  memory %d  writebacks %d\n",
		bs.GetS, bs.GetM, bs.Upgrades, bs.C2CTransfers, 100*bs.C2CRatio(), bs.MemTransfers, bs.Writebacks)
	if ls, ok := sys.Hier.LoadSnapshot(); ok {
		// Only under -memmodel loaded, keeping fixed-mode stdout byte-stable.
		fmt.Fprintf(stdout, "memmodel loaded: util %.2f  mem x%.2f  c2c x%.2f  extra stall %d cycles  interventions %d\n",
			ls.Util, ls.MemMult, ls.C2CMult, ls.MemExtraCycles+ls.C2CExtraCycles, ls.Interventions)
	}
	fmt.Fprintf(stdout, "gc: %d collections, %.1f%% of wall time; heap live %0.1f MB\n",
		res.GCCount, 100*float64(res.GCWall)/float64(af.Measure),
		float64(sys.Heap.Stats.LiveAfterLastGC)/(1<<20))
	if ckpt := af.Checkpoint; ckpt != "" {
		fmt.Fprintf(stdout, "checkpoint: saved to %s (resume with -resume %s)\n", ckpt, ckpt)
	}
	report.RunSummaries(stdout, obsRun, af.Obs.AttrTop)

	m := af.Manifest(args, map[string]any{"processors": sys.Params.Processors, "warehouses": sys.Params.Scale})
	if err := sess.Finish(m); err != nil {
		return fail(err)
	}
	return 0
}
