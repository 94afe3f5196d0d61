package core

import (
	"fmt"

	"repro/internal/appserver"
	"repro/internal/fault"
	"repro/internal/memsys"
)

// FaultRunOpts size a throughput-under-fault experiment: the same (seed,
// workload) measured twice — once clean, once with the schedule armed — with
// throughput sampled in fixed bins so the degradation and the recovery are
// visible as a curve.
//
// Schedule timestamps are absolute simulated cycles, so windows meant to hit
// the measurement interval must be placed after WarmupCycles.
type FaultRunOpts struct {
	Processors int
	Seed       uint64
	// MemModel selects the memory timing model for both runs of the pair
	// (default memsys.MemFixed).
	MemModel      memsys.MemModel
	Schedule      *fault.Schedule
	Policy        *fault.Policy // nil = fault.DefaultPolicy
	WarmupCycles  uint64
	MeasureCycles uint64
	// BinCycles is the throughput sampling interval.
	BinCycles uint64
}

// QuickFaultRunOpts is the reduced test/CI configuration: one partition
// window inside a short run.
func QuickFaultRunOpts() FaultRunOpts {
	return FaultRunOpts{
		Processors:   2,
		Seed:         20030208,
		WarmupCycles: 4_000_000, MeasureCycles: 36_000_000,
		BinCycles: 2_000_000,
		Schedule: &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Partition, At: 12_000_000, Duration: 8_000_000, Peer: 1},
		}},
	}
}

// FaultRecovery is the measured recovery from one scheduled fault window.
type FaultRecovery struct {
	Kind      string
	WindowEnd uint64 // absolute cycle the fault lifted
	// RecoveredAt is the start of the first post-window bin whose faulted
	// throughput reached 90% of the clean run's same bin; Recovered is
	// false when the run ended first.
	RecoveredAt    uint64
	RecoveryCycles uint64
	Recovered      bool
}

// FaultRunResult is the paired measurement.
type FaultRunResult struct {
	Opts FaultRunOpts
	// BinStart[i] is the absolute start cycle of bin i; Baseline/Faulted
	// are business ops completed in that bin by the clean and faulted runs.
	BinStart []uint64
	Baseline []uint64
	Faulted  []uint64

	Recovery []FaultRecovery

	// Resilience and injection activity of the faulted run.
	Calls    appserver.CallStats
	Breaker  fault.BreakerStats
	Shed     uint64
	Injected fault.InjectStats
	Failed   uint64 // operations that took their error path
}

// RunFaultExperiment measures ECperf throughput with and without the fault
// schedule at the same seed, and derives per-window recovery times. The
// session (nil = unobserved) reports both runs' progress and is attached,
// as run "ECperf-faulted", to the faulted run only: its trace carries the
// fault windows and resilience instants, its latency collector shows how
// requests degrade and recover around them, and its flight recorder dumps
// a bundle on every window entry.
func RunFaultExperiment(o FaultRunOpts, sess *Session) FaultRunResult {
	if o.BinCycles == 0 {
		o.BinCycles = 4_000_000
	}
	res := FaultRunResult{Opts: o}
	for t := o.WarmupCycles; t < o.WarmupCycles+o.MeasureCycles; t += o.BinCycles {
		res.BinStart = append(res.BinStart, t)
	}

	// binned runs sys with the bin as the slice, recording business ops per
	// measurement bin.
	binned := func(sys *System) []uint64 {
		var bins []uint64
		prev := uint64(0)
		sess.Run(sys, RunSpec{
			Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Slice: o.BinCycles,
			OnSlice: func(uint64) {
				ops := sys.Engine.Results().BusinessOps
				bins = append(bins, ops-prev)
				prev = ops
			},
		})
		return bins
	}
	res.Baseline = binned(BuildSystem(SystemParams{Kind: ECperf, Processors: o.Processors, Seed: o.Seed, MemModel: o.MemModel}))

	faulted := BuildSystem(SystemParams{
		Kind: ECperf, Processors: o.Processors, Seed: o.Seed, MemModel: o.MemModel,
		FaultSchedule: o.Schedule, FaultPolicy: o.Policy,
	})
	sess.Attach(faulted, "ECperf-faulted")
	res.Faulted = binned(faulted)

	if c := faulted.EC.Caller(); c != nil {
		res.Calls = c.Stats
		res.Breaker = c.BreakerStats()
		res.Shed = c.ShedCount()
	}
	res.Injected = faulted.Faults.Stats
	res.Failed = faulted.EC.FailedOps

	for _, e := range o.Schedule.Events {
		rec := FaultRecovery{Kind: e.Kind.String(), WindowEnd: e.End()}
		for i, start := range res.BinStart {
			if start < e.End() || i >= len(res.Faulted) {
				continue
			}
			if base := res.Baseline[i]; res.Faulted[i]*10 >= base*9 {
				rec.Recovered = true
				rec.RecoveredAt = start
				rec.RecoveryCycles = start - e.End()
				break
			}
		}
		res.Recovery = append(res.Recovery, rec)
	}
	return res
}

// FaultExperiment renders the throughput-under-fault curve: clean and
// faulted BBops/s over the measurement window, with recovery times and
// resilience activity in the notes.
func FaultExperiment(o FaultRunOpts) Figure {
	return FaultFigure(RunFaultExperiment(o, nil))
}

// FaultFigure renders an already-measured fault run.
func FaultFigure(r FaultRunResult) Figure {
	o := r.Opts
	f := Figure{
		ID:     "Fault injection",
		Title:  "ECperf throughput under injected faults (same seed, schedule armed vs clean)",
		XLabel: "Simulated time (s)",
		YLabel: "Throughput (BBops/s)",
	}
	binSec := float64(o.BinCycles) / CyclesPerSecond
	mk := func(label string, bins []uint64) Series {
		s := Series{Label: label}
		for i, b := range bins {
			s.X = append(s.X, float64(r.BinStart[i])/CyclesPerSecond)
			s.Y = append(s.Y, float64(b)/binSec)
			s.Err = append(s.Err, 0)
		}
		return s
	}
	f.Series = append(f.Series, mk("clean", r.Baseline), mk("faulted", r.Faulted))

	for _, rec := range r.Recovery {
		if rec.Recovered {
			f.Notes = append(f.Notes, fmt.Sprintf("%s: recovered to 90%% of clean throughput %.1f ms after the window lifted",
				rec.Kind, 1000*float64(rec.RecoveryCycles)/CyclesPerSecond))
		} else {
			f.Notes = append(f.Notes, fmt.Sprintf("%s: throughput had not recovered by the end of the run", rec.Kind))
		}
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("resilience: %d calls, %d retries, %d timeouts, %d fast-fails, %d breaker opens, %d shed, %d failed ops",
			r.Calls.Calls, r.Calls.Retries, r.Calls.Timeouts, r.Calls.FastFails, r.Breaker.Opens, r.Shed, r.Failed))
	return f
}
