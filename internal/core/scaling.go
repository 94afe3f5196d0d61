package core

import (
	"fmt"

	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Opts control a timing experiment's sweep shape and statistical effort.
type Opts struct {
	// Procs are the processor-set sizes to sweep (Figures 4–9).
	Procs []int
	// Seeds drive the variability methodology (one run per seed).
	Seeds []uint64
	// WarmupCycles are simulated then excluded from measurement.
	WarmupCycles uint64
	// MeasureCycles is the steady-state measurement window.
	MeasureCycles uint64
	// Progress, when non-nil, is ticked once per completed run and credited
	// with each run's simulated cycles — the sweep's liveness heartbeat. It
	// is not part of a run manifest's record of the options.
	Progress *obs.Heartbeat `json:"-"`
	// MemModel selects the memory timing model for every run in the sweep
	// (default memsys.MemFixed); MemCurve optionally overrides the loaded
	// model's parameters.
	MemModel memsys.MemModel
	MemCurve *memsys.LoadedConfig
}

// DefaultOpts is the full-fidelity configuration used by cmd/figures:
// the paper's processor counts, three seeds, and a window long enough for
// several garbage collections at every point.
func DefaultOpts() Opts {
	return Opts{
		Procs:         []int{1, 2, 4, 6, 8, 10, 12, 14, 15},
		Seeds:         stats.Seeds(20030208, 3), // HPCA 2003's opening day
		WarmupCycles:  12_000_000,
		MeasureCycles: 50_000_000,
	}
}

// QuickOpts is a reduced configuration for tests and benchmarks: fewer
// points, one seed, shorter windows. The shapes survive; the error bars do
// not.
func QuickOpts() Opts {
	return Opts{
		Procs:         []int{1, 4, 8, 15},
		Seeds:         stats.Seeds(20030208, 1),
		WarmupCycles:  4_000_000,
		MeasureCycles: 16_000_000,
	}
}

// ScalingPoint is everything Figures 4–9 need from one run.
type ScalingPoint struct {
	Processors int
	Seed       uint64

	// Throughput in business operations per simulated second.
	Throughput float64
	// ThroughputNoGC factors GC wall time out of the window (Figure 9).
	ThroughputNoGC float64

	// Execution-mode fractions over the processor set (Figure 5).
	UserFrac, SystemFrac, IOFrac, IdleFrac, GCIdleFrac float64

	// CPI decomposition (Figure 6).
	CPI, OtherCPI, IStallCPI, DStallCPI float64

	// Data-stall decomposition as fractions of data-stall cycles (Figure 7).
	DSStoreBuf, DSRAW, DSL2Hit, DSC2C, DSMem float64

	// C2CRatio is the fraction of L2 data misses served by another cache
	// (Figure 8).
	C2CRatio float64

	// GCWallFrac is GC stop-the-world time over the window; GCCount the
	// number of collections.
	GCWallFrac float64
	GCCount    uint64

	// InstrPerOp is the dynamic path length per business operation (§4.4).
	InstrPerOp float64

	// Debug carries bus-level diagnostics (populated by
	// RunScalingPointDebug only).
	Debug string
}

// RunScalingPoint builds the system, warms it, and measures one point.
func RunScalingPoint(kind Kind, procs int, seed uint64, o Opts) ScalingPoint {
	p, _ := runScalingPoint(kind, procs, seed, o, false)
	return p
}

// RunScalingPointDebug is RunScalingPoint plus a bus-level diagnostic
// string (miss mix per 1000 instructions) for calibration work.
func RunScalingPointDebug(kind Kind, procs int, seed uint64, o Opts) ScalingPoint {
	p, sys := runScalingPoint(kind, procs, seed, o, true)
	bs := sys.Hier.Bus().Stats
	instr := float64(sys.Engine.Results().CPU.Instructions)
	if instr > 0 {
		p.Debug = fmt.Sprintf("bus/1k[gets=%.2f getm=%.2f upg=%.2f c2c=%.2f mem=%.2f dmiss=%.2f fmiss=%.2f] lockwait=%.2f",
			1000*float64(bs.GetS)/instr, 1000*float64(bs.GetM)/instr,
			1000*float64(bs.Upgrades)/instr, 1000*float64(bs.C2CTransfers)/instr,
			1000*float64(bs.MemTransfers)/instr,
			1000*float64(sys.Hier.DataMisses)/instr, 1000*float64(sys.Hier.FetchMisses)/instr,
			float64(sys.Engine.Results().LockWaitCycles)/float64(o.MeasureCycles)/float64(procs))
		r := sys.Engine.Results()
		p.Debug += fmt.Sprintf(" blk=%d/%d wait[mon=%.1fM spin=%.1fM sem=%.1fM]",
			r.LockBlocks, r.LockAcquires,
			float64(r.WaitMonitor)/1e6, float64(r.WaitSpin)/1e6, float64(r.WaitSem)/1e6)
		if sys.DB != nil {
			p.Debug += fmt.Sprintf(" dbutil=%.2f suputil=%.2f hit=%.2f", sys.DB.Utilization(), sys.Supplier.Utilization(), sys.EC.Cache().HitRatio())
		}
		mc := sys.Hier.Bus().MissClass
		p.Debug += fmt.Sprintf(" memclass[code=%.2f kern=%.2f eden=%.2f surv=%.2f old=%.2f perm=%.2f oth=%.2f]",
			1000*float64(mc[0])/instr, 1000*float64(mc[1])/instr, 1000*float64(mc[2])/instr,
			1000*float64(mc[3])/instr, 1000*float64(mc[4])/instr, 1000*float64(mc[5])/instr,
			1000*float64(mc[6])/instr)
	}
	return p
}

// runScalingPoint builds and measures one point, with the address-class
// miss diagnostic enabled when diag is set.
func runScalingPoint(kind Kind, procs int, seed uint64, o Opts, diag bool) (ScalingPoint, *System) {
	sys := BuildSystem(o.systemParams(kind, procs, seed))
	if diag {
		sys.Hier.Bus().ClassifyAddr = regionClassifier(sys)
	}
	Run(sys, RunSpec{Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Slice: WholePhase})
	return summarizePoint(sys, procs, seed, o), sys
}

// systemParams builds one sweep run's parameters from the sweep options.
func (o Opts) systemParams(kind Kind, procs int, seed uint64) SystemParams {
	return SystemParams{
		Kind: kind, Processors: procs, Seed: seed,
		MemModel: o.MemModel, MemCurve: o.MemCurve,
	}
}

// regionClassifier maps addresses to coarse region classes for the
// calibration diagnostics.
func regionClassifier(sys *System) func(a uint64) int {
	return func(a uint64) int {
		var reg string
		if r, ok := sys.Space.FindRegion(a); ok {
			reg = r.Name
		}
		switch {
		case len(reg) > 5 && reg[:5] == "code:":
			if reg == "code:kernel" || reg == "code:kernel-net" {
				return 1
			}
			return 0
		case reg == "heap:eden":
			return 2
		case reg == "heap:surv0" || reg == "heap:surv1":
			return 3
		case reg == "heap:old":
			return 4
		case reg == "heap:perm":
			return 5
		default:
			return 6
		}
	}
}

// summarizePoint reduces a finished measurement window to the figure
// metrics. The engine must have been reset at the warm-up boundary and run
// through o.MeasureCycles.
func summarizePoint(sys *System, procs int, seed uint64, o Opts) ScalingPoint {
	res := sys.Engine.Results()

	window := float64(o.MeasureCycles)
	seconds := window / CyclesPerSecond
	p := ScalingPoint{
		Processors: procs,
		Seed:       seed,
		Throughput: float64(res.BusinessOps) / seconds,
		GCCount:    res.GCCount,
	}
	if res.GCWall < o.MeasureCycles {
		p.ThroughputNoGC = float64(res.BusinessOps) / ((window - float64(res.GCWall)) / CyclesPerSecond)
	} else {
		p.ThroughputNoGC = p.Throughput
	}
	p.GCWallFrac = float64(res.GCWall) / window

	if total := float64(res.Modes.Total()); total > 0 {
		p.UserFrac = float64(res.Modes.User) / total
		p.SystemFrac = float64(res.Modes.System) / total
		p.IOFrac = float64(res.Modes.IOWait) / total
		p.IdleFrac = float64(res.Modes.Idle) / total
		p.GCIdleFrac = float64(res.Modes.GCIdle) / total
	}

	c := res.CPU
	if c.Instructions > 0 {
		instr := float64(c.Instructions)
		p.CPI = float64(c.Total()) / instr
		p.OtherCPI = float64(c.BaseCycles) / instr
		p.IStallCPI = float64(c.IStallCycles) / instr
		p.DStallCPI = float64(c.DStall()) / instr
		if ds := float64(c.DStall()); ds > 0 {
			p.DSStoreBuf = float64(c.DStallStoreBuf) / ds
			p.DSRAW = float64(c.DStallRAW) / ds
			p.DSL2Hit = float64(c.DStallL2Hit) / ds
			p.DSC2C = float64(c.DStallC2C) / ds
			p.DSMem = float64(c.DStallMem) / ds
		}
	}
	if res.BusinessOps > 0 {
		p.InstrPerOp = float64(c.Instructions) / float64(res.BusinessOps)
	}
	p.C2CRatio = sys.Hier.Bus().Stats.C2CRatio()
	return p
}

// SweepCell aggregates the per-seed points of one (workload, processors)
// configuration.
type SweepCell struct {
	Processors int
	Points     []ScalingPoint
}

// Metric summarizes fn over the cell's seeds.
func (c *SweepCell) Metric(fn func(*ScalingPoint) float64) *stats.Summary {
	var s stats.Summary
	for i := range c.Points {
		s.Add(fn(&c.Points[i]))
	}
	return &s
}

// ScalingSweep holds the processor-count sweep for one workload — the
// shared substrate of Figures 4, 5, 6, 7, 8, and 9.
type ScalingSweep struct {
	Kind  Kind
	Opts  Opts
	Cells []SweepCell
}

// ScheduleScalingSweep submits every (processor count × seed) cell of the
// sweep to the scheduler and returns the sweep skeleton immediately; the
// points are filled in by the time sched.Wait returns. Each cell is an
// independent single-threaded simulation writing to its own slot, so the
// sweep is deterministic regardless of completion order.
func ScheduleScalingSweep(sched *Scheduler, kind Kind, o Opts) *ScalingSweep {
	sw := &ScalingSweep{Kind: kind, Opts: o}
	for pi := range o.Procs {
		sw.Cells = append(sw.Cells, SweepCell{
			Processors: o.Procs[pi],
			Points:     make([]ScalingPoint, len(o.Seeds)),
		})
	}
	for pi := range o.Procs {
		for si := range o.Seeds {
			pi, si := pi, si
			sched.Submit(func() {
				sw.Cells[pi].Points[si] = RunScalingPoint(kind, o.Procs[pi], o.Seeds[si], o)
				o.Progress.Add(1)
				o.Progress.AddCycles(o.WarmupCycles + o.MeasureCycles)
			})
		}
	}
	return sw
}

// RunScalingSweep measures every (processor count × seed) cell on a
// private scheduler sized to the host.
func RunScalingSweep(kind Kind, o Opts) *ScalingSweep {
	sched := NewScheduler(DefaultWorkers())
	sw := ScheduleScalingSweep(sched, kind, o)
	sched.Wait()
	return sw
}

// BaseThroughput returns mean single-processor throughput (speedup
// denominator). It requires the sweep to include processors=1.
func (sw *ScalingSweep) BaseThroughput() float64 {
	for i := range sw.Cells {
		if sw.Cells[i].Processors == 1 {
			return sw.Cells[i].Metric(func(p *ScalingPoint) float64 { return p.Throughput }).Mean()
		}
	}
	panic("core: scaling sweep lacks a 1-processor cell")
}
