// Command figures regenerates the paper's evaluation figures (Figures 4
// through 16 of "Memory System Behavior of Java-Based Middleware",
// HPCA 2003) from the simulator and renders each as a data table and an
// ASCII plot.
//
// Usage:
//
//	figures [-fig N] [-quick] [-seeds K] [-serial] [-memmodel fixed|loaded]
//	        [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	        [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//
// Without -fig, every figure is produced (Figures 4–9 share one scaling
// sweep per workload, so the whole set costs little more than its largest
// member). -quick selects the reduced test-sized configuration.
//
// All requested figures' simulation cells are admitted to one global work
// queue up front, so host cores stay busy across figure boundaries;
// figures are rendered in serial order once the queue drains, making
// stdout byte-identical to -serial, which runs every cell inline in
// submission order (the old one-sweep-at-a-time behavior).
//
// The observability flags additionally run one fully-observed point per
// workload (the largest processor count, first seed) and write a Chrome
// trace, a metrics-registry snapshot, a folded-stack cycle profile, a
// memory-attribution report, and/or a request-latency/SLO report
// (-latency/-slo), each with a reproducibility manifest
// (<file>.manifest.json) beside it. -inspect serves the observed runs'
// live metrics and attribution tables over HTTP while they execute.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	fig      *int
	quick    *bool
	seeds    *int
	md       *bool
	serial   *bool
	memmodel *string
	ofl      obs.Flags
	hp       obs.HostProfile
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		fig:      fs.Int("fig", 0, "figure number to regenerate (0 = all)"),
		quick:    fs.Bool("quick", false, "reduced runs (single seed, short windows)"),
		seeds:    fs.Int("seeds", 0, "override the number of seeds"),
		md:       fs.Bool("md", false, "emit GitHub-flavored markdown tables instead of text+plots"),
		serial:   fs.Bool("serial", false, "run simulation cells serially in submission order instead of on the global work queue"),
		memmodel: fs.String("memmodel", "fixed", "memory timing model: fixed (unloaded scalar latencies) or loaded (bandwidth-latency curve)"),
	}
	af.ofl.Register(fs)
	af.hp.Register(fs)
	return af
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam: parse args, schedule
// the requested figures' cells, render in order, optionally run the
// observed points. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	af := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fig, quick, seeds, md := af.fig, af.quick, af.seeds, af.md
	ofl, hp := &af.ofl, &af.hp
	memModel, err := memsys.ParseMemModel(*af.memmodel)
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 2
	}

	sess, err := core.NewSession("figures", ofl, hp, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 1
	}
	defer sess.Close()

	opts := core.DefaultOpts()
	sweepOpts := core.DefaultSweepOpts()
	memOpts := core.DefaultMemScaleOpts()
	commOpts := core.DefaultCommOpts()
	sharedOpts := core.DefaultSharedCacheOpts()
	if *quick {
		opts = core.QuickOpts()
		sweepOpts = core.QuickSweepOpts()
		memOpts = core.QuickMemScaleOpts()
		commOpts = core.QuickCommOpts()
		sharedOpts = core.QuickSharedCacheOpts()
	}
	if *seeds > 0 {
		opts.Seeds = stats.Seeds(20030208, *seeds)
		sharedOpts.Seeds = opts.Seeds
	}
	// The memory model only affects the timing simulations (the scaling
	// sweeps and observed points); the uniprocessor cache sweeps (Figures
	// 12/13) count misses, not cycles.
	opts.MemModel = memModel

	opts.Progress = sess.Progress
	sweepOpts.Progress = sess.Progress

	want := func(n int) bool { return *fig == 0 || *fig == n }
	emitted := 0
	emit := func(f core.Figure) {
		if *md {
			report.Markdown(stdout, f)
		} else {
			report.Render(stdout, f)
		}
		emitted++
	}

	start := time.Now()

	// Admission: every requested figure submits its cells to one global
	// queue. Only requested groups submit anything — a single-figure run
	// never executes unrelated sweeps.
	workers := core.DefaultWorkers()
	if *af.serial {
		workers = 1
	}
	sched := core.NewScheduler(workers)

	var jbb, ec *core.ScalingSweep
	if want(4) || want(5) || want(6) || want(7) || want(8) || want(9) {
		fmt.Fprintf(stderr, "running scaling sweeps (procs=%v, %d seeds)...\n", opts.Procs, len(opts.Seeds))
		jbb = core.ScheduleScalingSweep(sched, core.SPECjbb, opts)
		ec = core.ScheduleScalingSweep(sched, core.ECperf, opts)
	}

	var commJbb, commEc *core.CommProfile
	if want(10) || want(14) || want(15) {
		fmt.Fprintln(stderr, "running communication profiles (8 processors)...")
		commJbb, commEc = core.ScheduleCommProfiles(sched, commOpts)
	}

	var memRuns *core.MemScaleRuns
	if want(11) {
		fmt.Fprintln(stderr, "running memory-scaling study...")
		memRuns = core.ScheduleMemScale(sched, memOpts)
	}

	var cs *core.CacheSweeps
	if want(12) || want(13) {
		fmt.Fprintln(stderr, "running uniprocessor cache sweeps...")
		cs = core.ScheduleCacheSweeps(sched, sweepOpts)
	}

	var shared *core.SharedCacheRuns
	if want(16) {
		fmt.Fprintln(stderr, "running shared-cache CMP study...")
		shared = core.ScheduleSharedCache(sched, sharedOpts)
	}

	sched.Wait()

	// Rendering: serial figure order, independent of cell completion
	// order, so stdout is byte-identical to a -serial run.
	if jbb != nil {
		if want(4) {
			emit(core.Fig4Throughput(jbb, ec))
		}
		if want(5) {
			emit(core.Fig5ExecutionModes(ec))
			emit(core.Fig5ExecutionModes(jbb))
		}
		if want(6) {
			emit(core.Fig6CPIBreakdown(ec))
			emit(core.Fig6CPIBreakdown(jbb))
		}
		if want(7) {
			emit(core.Fig7DataStall(ec))
			emit(core.Fig7DataStall(jbb))
		}
		if want(8) {
			emit(core.Fig8C2CRatio(jbb, ec))
		}
		if want(9) {
			emit(core.Fig9GCScaling(jbb, ec))
		}
	}
	if commJbb != nil {
		if want(10) {
			emit(core.Fig10C2CTimeline(*commJbb))
		}
		if want(14) {
			emit(core.Fig14C2CDistribution(*commJbb, *commEc))
		}
		if want(15) {
			emit(core.Fig15C2CFootprint(*commJbb, *commEc))
		}
	}
	if memRuns != nil {
		emit(memRuns.Figure())
	}
	if cs != nil {
		if want(12) {
			emit(core.Fig12ICacheMissRate(cs))
		}
		if want(13) {
			emit(core.Fig13DCacheMissRate(cs))
		}
	}
	if shared != nil {
		emit(shared.Figure())
	}

	if emitted == 0 {
		fmt.Fprintf(stderr, "no such figure: %d (the paper has Figures 4-16)\n", *fig)
		return 2
	}

	// One fully-observed point per workload when artifacts were asked for:
	// the largest sweep point, first seed.
	procs, seed := opts.Procs[len(opts.Procs)-1], opts.Seeds[0]
	sess.ObservePoints(procs, seed, opts)
	err = sess.Finish(obs.Manifest{
		Args:  args,
		Seeds: opts.Seeds,
		Opts: map[string]any{
			"scaling":  opts,
			"observed": map[string]any{"processors": procs, "seed": seed},
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stderr, "done: %d figure renderings in %s\n", emitted, time.Since(start).Round(time.Second))
	return 0
}
