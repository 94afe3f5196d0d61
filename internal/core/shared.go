package core

import "repro/internal/stats"

// SharedCacheOpts size the Figure 16 CMP shared-cache study.
type SharedCacheOpts struct {
	// Grouping lists processors-per-shared-L2 values (the paper used
	// 1, 2, 4, 8 on an 8-processor machine with 1 MB L2 caches).
	Grouping      []int
	Seeds         []uint64
	WarmupCycles  uint64
	MeasureCycles uint64
}

// DefaultSharedCacheOpts is the full-fidelity configuration.
func DefaultSharedCacheOpts() SharedCacheOpts {
	return SharedCacheOpts{
		Grouping:      []int{1, 2, 4, 8},
		Seeds:         stats.Seeds(20030208, 3),
		WarmupCycles:  12_000_000,
		MeasureCycles: 40_000_000,
	}
}

// QuickSharedCacheOpts is the reduced test/bench configuration.
func QuickSharedCacheOpts() SharedCacheOpts {
	return SharedCacheOpts{
		Grouping:      []int{1, 8},
		Seeds:         stats.Seeds(20030208, 1),
		WarmupCycles:  4_000_000,
		MeasureCycles: 16_000_000,
	}
}

// SharedCachePoint is one (workload, grouping) measurement.
type SharedCachePoint struct {
	CPUsPerL2         int
	DataMissesPer1000 *stats.Summary
}

// sharedCacheCell measures one (workload, grouping, seed) run: L2 data
// misses per 1000 instructions on an 8-processor machine with the given
// L2 grouping. SPECjbb runs at 25 warehouses (the paper's
// capacity-stressing configuration); ECperf at its standard injection
// rate.
func sharedCacheCell(kind Kind, cpusPerL2 int, seed uint64, o SharedCacheOpts) float64 {
	scale := 0
	if kind == SPECjbb {
		scale = 25
	}
	sys := BuildSystem(SystemParams{
		Kind:       kind,
		Processors: 8,
		TotalCPUs:  8,
		CPUsPerL2:  cpusPerL2,
		Scale:      scale,
		Seed:       seed,
	})
	Run(sys, RunSpec{Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Slice: WholePhase})
	res := sys.Engine.Results()
	return sys.Hier.DataMissesPer1000(res.CPU.Instructions)
}

// RunSharedCachePoint measures one (workload, grouping) configuration
// over all seeds on a private scheduler. The summary is accumulated in
// seed order, keeping the point deterministic.
func RunSharedCachePoint(kind Kind, cpusPerL2 int, o SharedCacheOpts) SharedCachePoint {
	sched := NewScheduler(DefaultWorkers())
	vals := scheduleSharedCacheSeeds(sched, kind, cpusPerL2, o)
	sched.Wait()
	pt := SharedCachePoint{CPUsPerL2: cpusPerL2, DataMissesPer1000: &stats.Summary{}}
	for _, v := range vals {
		pt.DataMissesPer1000.Add(v)
	}
	return pt
}

// scheduleSharedCacheSeeds submits one cell per seed; the returned slice
// is filled by sched.Wait.
func scheduleSharedCacheSeeds(sched *Scheduler, kind Kind, cpusPerL2 int, o SharedCacheOpts) []float64 {
	vals := make([]float64, len(o.Seeds))
	for si := range o.Seeds {
		si := si
		sched.Submit(func() {
			vals[si] = sharedCacheCell(kind, cpusPerL2, o.Seeds[si], o)
		})
	}
	return vals
}

// SharedCacheRuns is the Figure 16 grid scheduled on a global scheduler;
// render with Figure after the scheduler drains.
type SharedCacheRuns struct {
	opts  SharedCacheOpts
	kinds []Kind
	vals  [][][]float64 // [kind][grouping][seed]
}

// ScheduleSharedCache submits every (workload, grouping, seed) cell of
// Figure 16.
func ScheduleSharedCache(sched *Scheduler, o SharedCacheOpts) *SharedCacheRuns {
	r := &SharedCacheRuns{opts: o, kinds: []Kind{ECperf, SPECjbb}}
	for _, kind := range r.kinds {
		grid := make([][]float64, len(o.Grouping))
		for gi, g := range o.Grouping {
			grid[gi] = scheduleSharedCacheSeeds(sched, kind, g, o)
		}
		r.vals = append(r.vals, grid)
	}
	return r
}

// Figure renders Figure 16 from the completed grid. The scheduler the
// runs were submitted to must have drained.
func (r *SharedCacheRuns) Figure() Figure {
	f := Figure{
		ID:     "Fig 16",
		Title:  "Cache Miss Rate on Shared Caches (Processors Per Shared 1 MB Cache)",
		XLabel: "Processors per shared L2",
		YLabel: "Data misses / 1000 instructions",
	}
	for ki, kind := range r.kinds {
		label := kind.String()
		if kind == SPECjbb {
			label = "SPECjbb-25"
		}
		s := Series{Label: label}
		for gi, g := range r.opts.Grouping {
			var sum stats.Summary
			for _, v := range r.vals[ki][gi] {
				sum.Add(v)
			}
			s.X = append(s.X, float64(g))
			s.Y = append(s.Y, sum.Mean())
			s.Err = append(s.Err, sum.StdDev())
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig16SharedCaches reproduces Figure 16: data miss rate with 1/2/4/8
// processors per shared 1 MB L2 cache, for ECperf and SPECjbb-25. Sharing
// helps ECperf (coherence misses vanish, small footprint) and hurts
// SPECjbb-25 (the emulated database no longer fits).
func Fig16SharedCaches(o SharedCacheOpts) Figure {
	sched := NewScheduler(DefaultWorkers())
	r := ScheduleSharedCache(sched, o)
	sched.Wait()
	return r.Figure()
}
