// Command ablations runs the design-choice studies the paper motivates in
// prose: Solaris ISM pages (§6), collector parallelism (§4.1),
// cache-to-cache latency sensitivity (§4.3), and the invalidation protocol
// (§4.5). See internal/core/ablations.go.
//
// Usage:
//
//	ablations [-quick] [-which ism|gc|latency|protocol|volano|cosim]
//	          [-memmodel fixed|loaded]
//	          [-trace FILE] [-metrics FILE] [-profile FILE] [-heartbeat DUR]
//	          [-attr FILE] [-attr-exact] [-attr-top N] [-inspect ADDR]
//	          [-latency FILE] [-slo SPEC] [-latency-interval cycles]
//
// The observability flags additionally run one fully-observed point per
// workload (the study's processor count and seed) after the studies, the
// same semantics as cmd/figures: artifacts land next to the study output
// with a reproducibility manifest beside each file.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/report"
)

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	quick    *bool
	which    *string
	memmodel *string
	ofl      obs.Flags
	hp       obs.HostProfile
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		quick:    fs.Bool("quick", false, "reduced runs"),
		which:    fs.String("which", "", "run one study (ism, gc, latency, protocol, volano, cosim)"),
		memmodel: fs.String("memmodel", "fixed", "memory timing model: fixed (unloaded scalar latencies) or loaded (bandwidth-latency curve)"),
	}
	af.ofl.Register(fs)
	af.hp.Register(fs)
	return af
}

func main() {
	af := registerFlags(flag.CommandLine)
	flag.Parse()
	quick, which, ofl, hp := af.quick, af.which, &af.ofl, &af.hp
	memModel, err := memsys.ParseMemModel(*af.memmodel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablations:", err)
		os.Exit(2)
	}

	sess, err := core.NewSession("ablations", ofl, hp, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablations:", err)
		os.Exit(1)
	}
	defer sess.Close()

	o := core.DefaultAblationOpts()
	if *quick {
		o = core.QuickAblationOpts()
	}
	o.MemModel = memModel

	want := func(n string) bool { return *which == "" || *which == n }
	if want("ism") {
		report.Render(os.Stdout, core.AblationISM(o))
	}
	if want("gc") {
		report.Render(os.Stdout, core.AblationGCThreads(o))
	}
	if want("latency") {
		report.Render(os.Stdout, core.AblationC2CLatency(o))
	}
	if want("protocol") {
		report.Render(os.Stdout, core.AblationProtocol(o))
	}
	if want("volano") {
		report.Render(os.Stdout, core.RelatedWorkKernelTime(o))
	}
	if want("cosim") {
		report.Render(os.Stdout, core.CoSimExperiment(o))
	}

	// One fully-observed point per workload at the studies' shape when
	// artifacts were asked for, the same semantics as cmd/figures.
	sess.ObservePoints(o.Processors, o.Seed, core.Opts{
		WarmupCycles:  o.WarmupCycles,
		MeasureCycles: o.MeasureCycles,
		MemModel:      o.MemModel,
	})
	err = sess.Finish(obs.Manifest{
		Args:  os.Args[1:],
		Seeds: []uint64{o.Seed},
		Opts: map[string]any{
			"ablation": o,
			"observed": map[string]any{"processors": o.Processors, "seed": o.Seed},
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Close()
		os.Exit(1)
	}
}
