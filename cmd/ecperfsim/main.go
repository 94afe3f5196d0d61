// Command ecperfsim runs the ECperf-like 3-tier deployment — driver,
// application server (the measured machine), database, and supplier
// emulator — and prints the application-server-side measurements the paper
// collected, plus remote-tier utilization.
//
// Usage:
//
//	ecperfsim [-p processors] [-oir rate] [-seed N] [-measure cycles]
//	          [-memmodel fixed|loaded]
//	          [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	          [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	          [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//	          [-faults FILE|demo] [-fault-bin cycles] [-fault-report FILE]
//	          [-watchdog cycles]
//	          [-checkpoint FILE] [-checkpoint-every cycles] [-resume FILE]
//
// With -latency and/or -slo, every business transaction is traced end to
// end through the tiers and decomposed into phases (CPU, memory stall, lock
// wait, network, DB queue/service, GC pause); per-class HDR histograms, the
// latency time series, and SLO verdicts print after the standard report and
// land in the -latency JSON artifact. Combined with -faults, the latency
// collector rides the *faulted* run, so the report shows the degradation
// and SLO burn around each fault window.
//
// With -faults, the run becomes a robustness experiment: the same seed is
// measured clean and with the fault schedule armed, and the tool prints the
// throughput-under-fault curve, per-window recovery times, and the
// retry/breaker/shed counters. "demo" uses the built-in schedule covering
// every fault kind.
//
// With -checkpoint, a resumable checkpoint is written at the end of the run
// (and every -checkpoint-every cycles); -resume continues a checkpointed
// run — the resumed run is bit-identical to one that never stopped.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/report"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	procs, oir  *int
	faults      *string
	faultBin    *uint64
	faultReport *string
	core.RunFlags
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		procs:       fs.Int("p", 8, "processor-set size on the app server (1-16)"),
		oir:         fs.Int("oir", 10, "orders injection rate (scale factor)"),
		faults:      fs.String("faults", "", "fault schedule JSON file, or \"demo\" for the built-in schedule"),
		faultBin:    fs.Uint64("fault-bin", 4_000_000, "throughput sampling bin for -faults, in cycles"),
		faultReport: fs.String("fault-report", "", "also write the -faults figure (markdown) to FILE"),
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
	fs := flag.NewFlagSet("ecperfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	af := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ecperfsim:", err)
		return 1
	}
	params, err := af.Params(core.SystemParams{Kind: core.ECperf, Processors: *af.procs, Scale: *af.oir})
	if err != nil {
		return fail(err)
	}
	sess, err := core.NewSession("ecperfsim", &af.Obs, &af.Host, stderr)
	if err != nil {
		return fail(err)
	}
	defer sess.Close()

	if *af.faults != "" {
		if err := runFaultExperiment(af, params, sess, args, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	sys, obsRun, err := af.RunSystem(sess, params, "ECperf")
	if err != nil {
		return fail(err)
	}
	if wd := sys.Engine.WatchdogTripped(); wd != nil {
		fmt.Fprintf(stderr, "watchdog tripped:\n%s\n", wd)
		return 2
	}
	res := sys.Engine.Results()

	seconds := float64(af.Measure) / core.CyclesPerSecond
	fmt.Fprintf(stdout, "ECperf: %d processors, OIR %d, %.0f ms measured\n",
		sys.Params.Processors, sys.Params.Scale, seconds*1000)
	fmt.Fprintf(stdout, "throughput        %10.0f BBops/min (%0.0f/s)\n",
		60*float64(res.BusinessOps)/seconds, float64(res.BusinessOps)/seconds)
	tags := make([]string, 0, len(res.OpsByTag))
	for tag := range res.OpsByTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		line := fmt.Sprintf("  %-15s %10d", tag, res.OpsByTag[tag])
		if h := res.LatencyByTag[tag]; h != nil && h.Count() > 0 {
			line += fmt.Sprintf("   p50 %5.2fms  p90 %5.2fms",
				1000*float64(h.Quantile(0.5))/core.CyclesPerSecond,
				1000*float64(h.Quantile(0.9))/core.CyclesPerSecond)
		}
		fmt.Fprintln(stdout, line)
	}
	total := float64(res.Modes.Total())
	fmt.Fprintf(stdout, "modes: user %.1f%%  system %.1f%%  i/o %.1f%%  idle %.1f%%  gc-idle %.1f%%\n",
		100*float64(res.Modes.User)/total, 100*float64(res.Modes.System)/total,
		100*float64(res.Modes.IOWait)/total, 100*float64(res.Modes.Idle)/total,
		100*float64(res.Modes.GCIdle)/total)
	c := res.CPU
	if c.Instructions > 0 {
		in := float64(c.Instructions)
		fmt.Fprintf(stdout, "CPI %.3f (other %.3f, i-stall %.3f, d-stall %.3f); %.0f instructions/BBop\n",
			float64(c.Total())/in, float64(c.BaseCycles)/in,
			float64(c.IStallCycles)/in, float64(c.DStall())/in,
			in/float64(res.BusinessOps))
	}
	bs := sys.Hier.Bus().Stats
	fmt.Fprintf(stdout, "bus: c2c ratio %.1f%% (%d transfers, %d from memory)\n",
		100*bs.C2CRatio(), bs.C2CTransfers, bs.MemTransfers)
	if ls, ok := sys.Hier.LoadSnapshot(); ok {
		// Only under -memmodel loaded, keeping fixed-mode stdout byte-stable.
		fmt.Fprintf(stdout, "memmodel loaded: util %.2f  mem x%.2f  c2c x%.2f  extra stall %d cycles  interventions %d\n",
			ls.Util, ls.MemMult, ls.C2CMult, ls.MemExtraCycles+ls.C2CExtraCycles, ls.Interventions)
	}
	fmt.Fprintf(stdout, "object cache: hit ratio %.1f%% (%d entries)\n",
		100*sys.EC.Cache().HitRatio(), sys.EC.Cache().Len())
	if sys.DB != nil {
		fmt.Fprintf(stdout, "remote tiers: database %.0f%% utilized, supplier %.0f%%\n",
			100*sys.DB.Utilization(), 100*sys.Supplier.Utilization())
	}
	fmt.Fprintf(stdout, "gc: %d collections, %.1f%% of wall time\n",
		res.GCCount, 100*float64(res.GCWall)/float64(af.Measure))
	if ckpt := af.Checkpoint; ckpt != "" {
		fmt.Fprintf(stdout, "checkpoint: saved to %s (resume with -resume %s)\n", ckpt, ckpt)
	}
	report.RunSummaries(stdout, obsRun, af.Obs.AttrTop)

	m := af.Manifest(args, map[string]any{"processors": sys.Params.Processors, "oir": sys.Params.Scale})
	if err := sess.Finish(m); err != nil {
		return fail(err)
	}
	return 0
}

// runFaultExperiment is the -faults mode: a paired clean/faulted measurement
// rendered as the throughput-under-fault curve, with the session observing
// the faulted run.
func runFaultExperiment(af *appFlags, params core.SystemParams, sess *core.Session, args []string, stdout io.Writer) error {
	spec := *af.faults
	var sched *fault.Schedule
	if spec == "demo" {
		sched = fault.Demo(af.Warmup, af.Measure)
	} else {
		var err error
		if sched, err = fault.LoadSchedule(spec); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "fault schedule (%d events):\n", len(sched.Events))
	for _, e := range sched.Events {
		fmt.Fprintf(stdout, "  %s\n", e)
	}

	r := core.RunFaultExperiment(core.FaultRunOpts{
		Processors:    params.Processors,
		Seed:          params.Seed,
		MemModel:      params.MemModel,
		Schedule:      sched,
		WarmupCycles:  af.Warmup,
		MeasureCycles: af.Measure,
		BinCycles:     *af.faultBin,
	}, sess)
	sess.Progress.Stop()
	f := core.FaultFigure(r)
	report.Render(stdout, f)
	report.RunSummaries(stdout, sess.Runs()[0], af.Obs.AttrTop)

	if path := *af.faultReport; path != "" {
		var md bytes.Buffer
		report.Markdown(&md, f)
		if err := obs.AtomicWriteFile(path, md.Bytes(), 0o644); err != nil {
			return err
		}
	}

	m := af.Manifest(args, map[string]any{"processors": params.Processors, "schedule": spec, "bin_cycles": *af.faultBin})
	m.Command = "ecperfsim -faults"
	return sess.Finish(m)
}
