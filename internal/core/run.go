package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/attr"
)

// DefaultSlice is the run loop's stepping granularity: 2M cycles, 8 ms of
// simulated time. The per-slice hooks run this often.
const DefaultSlice = 2_000_000

// WholePhase as RunSpec.Slice steps each phase in one Engine.Run call. The
// engine parks an idle processor at the slice end at the latest, so where
// slices end can shift a long many-processor run's results; the figure and
// ablation sweeps keep the whole-phase stepping their published numbers
// were made with.
const WholePhase = ^uint64(0)

// inspectTopN bounds the hot-line/object tables rendered for the live
// inspection endpoint; the final report honors the -attr-top flag instead.
const inspectTopN = 20

// RunSpec describes one run of a built system through the standard
// warm-up/measure discipline.
type RunSpec struct {
	// Warmup and Measure size the two phases in simulated cycles: stats
	// reset at Warmup, and the run ends at Warmup+Measure.
	Warmup, Measure uint64
	// Slice is the stepping granularity (0 = DefaultSlice; see WholePhase).
	Slice uint64
	// Checkpoint, when non-nil, saves resumable checkpoints at its cadence
	// during the measurement window and at the run's end.
	Checkpoint *CheckpointPlan
	// Resume, when non-nil, continues a checkpointed run. The run replays
	// from cycle 0 under the same hooks (so every artifact covers the whole
	// window) and fails unless the system's Fingerprint at the checkpoint
	// cycle matches the saved one. Warmup must be the checkpoint's.
	Resume *Checkpoint
	// Progress receives simulated-cycle, latency and memory-load progress.
	Progress *obs.Heartbeat
	// OnSlice, when non-nil, runs after every measurement-window slice with
	// the horizon just reached.
	OnSlice func(t uint64)
}

// Run is the one loop that steps a system's engine. It runs the warm-up in
// profiler phase "warmup"; at the boundary the engine's stats, the profiler,
// the attribution collector and the metrics base snapshot all reset
// together, so every artifact covers exactly the window the figure metrics
// do; then it runs the measurement window in phase "measure". The observer
// is the one AttachObserver bound to sys (nil runs unobserved).
//
// Each slice is at most spec.Slice cycles long and ends early at the
// warm-up boundary and at the resume cycle. After every slice the hooks
// run in this order: Engine.Run to the slice end, the resume fingerprint
// check (at the checkpoint cycle only), heartbeat cycles, the
// flight-recorder tick and watchdog, live latency quantiles, memory load,
// the inspector publish, then the warm-up boundary reset or, in the
// measurement window, checkpoint saves and OnSlice.
//
// Run returns the measurement-window metrics delta (nil without a
// registry). Its only errors are a resume that does not fit or diverged
// and a failed checkpoint save; without Resume and Checkpoint it cannot
// fail.
func Run(sys *System, spec RunSpec) (*obs.Snapshot, error) {
	slice := spec.Slice
	if slice == 0 {
		slice = DefaultSlice
	}
	end := spec.Warmup + spec.Measure
	cp := spec.Resume
	var resumeAt uint64
	if cp != nil {
		if cp.Warmup != spec.Warmup || cp.Cycle == 0 || cp.Cycle > end {
			return nil, fmt.Errorf("resume: checkpoint (warm-up %d, cycle %d) does not fit the run (warm-up %d, end %d)",
				cp.Warmup, cp.Cycle, spec.Warmup, end)
		}
		resumeAt = cp.Cycle
	}
	plan := spec.Checkpoint
	var nextSave uint64
	if plan != nil && plan.Every > 0 {
		nextSave = spec.Warmup + plan.Every
	}
	eng, hb, ob := sys.Engine, spec.Progress, sys.Obs
	if ob == nil {
		ob = &obs.Observer{} // every facility nil: the hooks below are no-ops
	}

	var base *obs.Snapshot
	startMeasure := func() {
		eng.ResetStats()
		ob.Profiler.Reset()
		ob.Attr.Reset()
		if ob.Registry != nil {
			base = ob.Registry.Snapshot()
		}
		if ob.Tracer.Enabled(obs.CompWorkload) {
			ob.Tracer.Instant(obs.CompWorkload, "measure.start", 0, eng.Now())
		}
		ob.Profiler.SetPhase("measure")
	}
	ob.Profiler.SetPhase("warmup")
	if spec.Warmup == 0 {
		startMeasure()
	}
	for t := uint64(0); t < end; {
		next := end
		if slice < end-t {
			next = t + slice
		}
		for _, edge := range [2]uint64{spec.Warmup, resumeAt} {
			if t < edge && next > edge {
				next = edge
			}
		}
		t = next
		eng.Run(t)
		if t == resumeAt {
			if got := Fingerprint(sys); got != cp.Digest {
				return nil, fmt.Errorf("checkpoint replay diverged at cycle %d: fingerprint %#x, want %#x (code or schedule changed since the checkpoint was written?)",
					t, got, cp.Digest)
			}
		}
		hb.SetCycles(t)
		if rec := sys.Flight; rec != nil {
			rec.Tick(t)
			if wd := eng.WatchdogTripped(); wd != nil {
				rec.Watchdog(wd.Cycle, wd.String())
			}
		}
		if rt := eng.ReqTrace(); rt != nil {
			hb.SetLatency(rt.LiveQuantiles())
		}
		if ls, ok := sys.Hier.LoadSnapshot(); ok {
			hb.SetMemLoad(ls.Util, ls.MemMult)
		}
		ob.Inspect.Publish(ob, inspectTopN, false)
		if t == spec.Warmup {
			startMeasure()
			continue
		}
		if t < spec.Warmup {
			continue
		}
		if nextSave > 0 && t >= nextSave {
			if t > resumeAt {
				if err := plan.save(sys, spec.Warmup, t); err != nil {
					return nil, err
				}
			}
			for nextSave <= t {
				nextSave += plan.Every
			}
		}
		if spec.OnSlice != nil {
			spec.OnSlice(t)
		}
	}
	if end > resumeAt {
		if err := plan.save(sys, spec.Warmup, end); err != nil {
			return nil, err
		}
	}
	hb.Add(1)
	if ob.Attr != nil {
		// Attribute the tail of the measurement window that no GC closed.
		var res attr.Resolver
		if sys.Heap != nil {
			res = sys.Heap.SiteResolver()
		}
		ob.Attr.CloseEpoch(res, "final")
	}
	ob.Inspect.Publish(ob, inspectTopN, true)
	if ob.Registry == nil {
		return nil, nil
	}
	return ob.Registry.Snapshot().Delta(base), nil
}

// ObserveRun attaches ob to sys and runs the standard warm-up/measure
// window (see Run), returning the measurement-window metrics delta. ob and
// hb may be nil.
func ObserveRun(sys *System, ob *obs.Observer, hb *obs.Heartbeat, warmup, measure uint64) *obs.Snapshot {
	AttachObserver(sys, ob)
	snap, _ := Run(sys, RunSpec{Warmup: warmup, Measure: measure, Progress: hb})
	return snap
}
