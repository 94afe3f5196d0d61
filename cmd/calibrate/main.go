// Command calibrate prints one diagnostic line per (workload, processor
// count) point of the scaling sweep, with bus-level miss decomposition by
// address region, lock-wait breakdown by lock class, and remote-tier
// utilization. It is the tool the simulator's parameters were tuned with;
// keep it around — every recalibration starts here.
//
// Usage:
//
//	calibrate [-measure cycles] [-seed N] [-memmodel fixed|loaded]
//	          [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	          [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	          [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//
// The observability flags additionally run one fully-observed point per
// workload (the largest processor count in the sweep) after the diagnostic
// table, the same semantics as cmd/figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	measure  *uint64
	seed     *uint64
	memmodel *string
	ofl      obs.Flags
	hp       obs.HostProfile
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		measure:  fs.Uint64("measure", 30_000_000, "measurement window in cycles"),
		seed:     fs.Uint64("seed", 1, "simulation seed"),
		memmodel: fs.String("memmodel", "fixed", "memory timing model: fixed (unloaded scalar latencies) or loaded (bandwidth-latency curve)"),
	}
	af.ofl.Register(fs)
	af.hp.Register(fs)
	return af
}

func main() {
	af := registerFlags(flag.CommandLine)
	flag.Parse()
	measure, seed, ofl, hp := af.measure, af.seed, &af.ofl, &af.hp
	memModel, err := memsys.ParseMemModel(*af.memmodel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(2)
	}

	sess, err := core.NewSession("calibrate", ofl, hp, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	defer sess.Close()

	o := core.QuickOpts()
	o.MeasureCycles = *measure
	o.MemModel = memModel

	o.Progress = sess.Progress

	procs := []int{1, 2, 4, 8, 12, 15}
	for _, kind := range []core.Kind{core.SPECjbb, core.ECperf} {
		for _, p := range procs {
			t0 := time.Now()
			pt := core.RunScalingPointDebug(kind, p, *seed, o)
			fmt.Printf("%-8s P=%-2d thr=%8.0f cpi=%.2f(o=%.2f i=%.2f d=%.2f) u=%.2f s=%.2f io=%.2f id=%.2f gci=%.2f c2c=%.2f gc=%d gcf=%.3f i/op=%.0f\n  %s [%s]\n",
				kind, p, pt.Throughput, pt.CPI, pt.OtherCPI, pt.IStallCPI, pt.DStallCPI,
				pt.UserFrac, pt.SystemFrac, pt.IOFrac, pt.IdleFrac, pt.GCIdleFrac,
				pt.C2CRatio, pt.GCCount, pt.GCWallFrac, pt.InstrPerOp, pt.Debug,
				time.Since(t0).Round(time.Millisecond))
		}
	}

	// One fully-observed point per workload at the largest sweep shape when
	// artifacts were asked for, the same semantics as cmd/figures.
	obsProcs := procs[len(procs)-1]
	sess.ObservePoints(obsProcs, *seed, o)
	err = sess.Finish(obs.Manifest{
		Args:  os.Args[1:],
		Seeds: []uint64{*seed},
		Opts: map[string]any{
			"sweep":    o,
			"observed": map[string]any{"processors": obsProcs, "seed": *seed},
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Close()
		os.Exit(1)
	}
}
