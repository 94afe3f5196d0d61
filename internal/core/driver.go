package core

import (
	"flag"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/obs"
)

// RunFlags are the flags the single-system drivers (ecperfsim, jbbsim)
// share: seed, run window, watchdog, checkpoint/resume, memory model, and
// the standard observability and host-profile flags.
type RunFlags struct {
	Seed, Warmup, Measure uint64
	Watchdog              uint64
	Checkpoint, Resume    string
	CheckpointEvery       uint64
	MemModel              string
	Obs                   obs.Flags
	Host                  obs.HostProfile
}

// Register installs the flags on fs.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.Seed, "seed", 20030208, "simulation seed")
	fs.Uint64Var(&f.Warmup, "warmup", 12_000_000, "warm-up cycles (excluded)")
	fs.Uint64Var(&f.Measure, "measure", 50_000_000, "measurement window in cycles")
	fs.Uint64Var(&f.Watchdog, "watchdog", 0, "abort when the run makes no progress for N simulated cycles (0 = off)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "write a resumable checkpoint to FILE")
	fs.Uint64Var(&f.CheckpointEvery, "checkpoint-every", 0, "checkpoint cadence in cycles (0 = only at the end)")
	fs.StringVar(&f.Resume, "resume", "", "resume from checkpoint FILE (run parameters come from the checkpoint)")
	fs.StringVar(&f.MemModel, "memmodel", "fixed", "memory timing model: fixed (unloaded scalar latencies) or loaded (bandwidth-latency curve)")
	f.Obs.Register(fs)
	f.Host.Register(fs)
}

// Params completes a driver's system parameters with the seed, watchdog
// and memory model from the flags.
func (f *RunFlags) Params(p SystemParams) (SystemParams, error) {
	mm, err := memsys.ParseMemModel(f.MemModel)
	p.Seed, p.WatchdogCycles, p.MemModel = f.Seed, f.Watchdog, mm
	return p, err
}

// RunSystem builds the system p describes — or, with -resume, the
// checkpointed one, whose parameters and warm-up then replace the flags' —
// attaches sess to it as run label, and runs the window, saving checkpoints
// as -checkpoint asks. It stops the heartbeat after the run, so the last
// progress line comes before the driver's report.
func (f *RunFlags) RunSystem(sess *Session, p SystemParams, label string) (*System, *SessionRun, error) {
	spec := RunSpec{Warmup: f.Warmup, Measure: f.Measure}
	if f.Resume != "" {
		cp, err := LoadCheckpoint(f.Resume)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(sess.stderr, "resuming %s run at cycle %d (verifying replay)\n", cp.Params.Kind, cp.Cycle)
		p, f.Warmup, f.Seed = cp.Params, cp.Warmup, cp.Params.Seed
		spec.Warmup, spec.Resume = cp.Warmup, &cp
	}
	if f.Checkpoint != "" {
		spec.Checkpoint = &CheckpointPlan{Path: f.Checkpoint, Every: f.CheckpointEvery, Command: sess.Command}
	}
	sys := BuildSystem(p)
	run := sess.Attach(sys, label)
	err := sess.Run(sys, spec)
	sess.Progress.Stop()
	return sys, run, err
}

// Manifest returns the manifest fields of a finished single-system run:
// the driver's own options plus the run window.
func (f *RunFlags) Manifest(args []string, opts map[string]any) obs.Manifest {
	opts["warmup_cycles"], opts["measure_cycles"] = f.Warmup, f.Measure
	return obs.Manifest{Args: args, Seeds: []uint64{f.Seed}, Opts: opts}
}
