package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/reqtrace"
)

// Driver defaults the workloads reproduce. They are copied from the flag
// defaults of cmd/ecperfsim, cmd/jbbsim and cmd/loadsim;
// TestMatchesDriverDefaults pins the simulated results against the
// drivers' printed output.
const (
	engineProcs   = 8
	ecperfOIR     = 10
	jbbWarehouses = 8
	warmupCycles  = 12_000_000
	measureCycles = 50_000_000

	// loadHorizon is ten times loadsim's default arrival horizon (ten
	// simulated seconds instead of one), so a run takes seconds of host
	// time instead of ~0.2 s.
	loadHorizon = 2_500_000_000
	// loadTick is loadsim's live-progress cadence; its tick events share
	// the event queue, so the benchmark schedules them exactly as the
	// driver does.
	loadTick = 2_000_000
)

// loadMults and loadModes are `loadsim -sweep 0.5,1,3 -controls both`.
var (
	loadMults = []float64{0.5, 1, 3}
	loadModes = []bool{true, false}
)

// workload is one named benchmark input. build does everything that
// precedes the first simulated cycle and returns the run that simulates.
type workload struct {
	name string
	why  string
	// unit names the simulated work item counted by sim_work_per_s.
	unit  string
	build func(seed uint64, flightDir string) run
	// setupProbe marks workloads whose construction happens inside the
	// public call that simulates (core.RunCacheSweeps): build then times
	// an identical stand-alone construction, and the run rebuilds, so
	// that construction is left out of wall_s.
	setupProbe bool
}

// run is a built workload, ready to simulate once.
type run interface {
	// simulate runs the workload to completion. It returns the host time
	// the simulated warm-up window took, or 0 when the public call does
	// not expose the warm-up boundary.
	simulate() time.Duration
	// reduce checks the simulated output and reduces it to an outcome.
	reduce() outcome
}

var workloads = []workload{
	{
		name: "ecperf-8p",
		why:  "ecperfsim defaults: the whole stack — cache, ping-pong coherence, osmodel, large-code ifetch, netsim/db/appserver tiers, flight recorder boxing",
		unit: "instr",
		build: func(seed uint64, dir string) run {
			return buildEngine(core.ECperf, ecperfOIR, seed, dir, "ecperfsim")
		},
	},
	{
		name: "jbb-8p",
		why:  "jbbsim defaults: same engine without network or remote tiers, small code footprint, more jvm allocation and simrand",
		unit: "instr",
		build: func(seed uint64, dir string) run {
			return buildEngine(core.SPECjbb, jbbWarehouses, seed, dir, "jbbsim")
		},
	},
	{
		name:       "cachesweep",
		why:        "cachesweep -warm 30 -ops 120: trace-driven size sweep, ~90% cache probes, no timing engine, coherence or flight recorder",
		unit:       "instr",
		build:      buildSweep,
		setupProbe: true,
	},
	{
		name:  "loadsim-overload",
		why:   "loadsim 0.5x/1x/3x with controls on and off over a 10x horizon: only cluster, arrival and fault admission, no memory system",
		unit:  "req",
		build: buildLoad,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is a run's simulated output reduced for the benchmark.
type outcome struct {
	// canon is the canonical text of every simulated result the run
	// produced; fingerprint hashes it. Two runs of one seed must agree.
	canon string
	// problems lists violated output invariants (empty when correct).
	problems []string
	// work counts simulated work items: measured-window instructions, or
	// requests offered.
	work float64
	// headline holds the simulated values a reader checks first.
	headline []kv
	// counts are per-layer counters read from the layers' public stats.
	counts map[string]float64
}

type kv struct {
	key string
	val string
}

// ---- engine workloads (ecperfsim, jbbsim) ----

type engineRun struct {
	sys *core.System
	ob  *obs.Observer
	rec *flightrec.Recorder
	// warmEnd is stamped by a registry gauge when ObserveRun snapshots the
	// registry at the warm-up boundary.
	warmEnd time.Time
}

func buildEngine(kind core.Kind, scale int, seed uint64, flightDir, label string) run {
	// As the drivers: flight recorder on (dumping into flightDir on a
	// trigger), no other observer, fixed memory model, no watchdog.
	ob, rec := flightrec.FromFlags(&obs.Flags{Flight: flightDir}, label, nil)
	sys := core.BuildSystem(core.SystemParams{
		Kind:       kind,
		Processors: engineProcs,
		Scale:      scale,
		Seed:       seed,
		MemModel:   memsys.MemFixed,
	})
	core.AttachFlight(sys, rec)
	r := &engineRun{sys: sys, ob: ob, rec: rec}
	eng := sys.Engine
	ob.Registry.Gauge("perfbench.warmup_done", func() float64 {
		if r.warmEnd.IsZero() && eng.Now() >= warmupCycles {
			r.warmEnd = time.Now()
		}
		return 0
	})
	return r
}

func (r *engineRun) simulate() time.Duration {
	start := time.Now()
	core.ObserveRun(r.sys, r.ob, nil, warmupCycles, measureCycles)
	if r.warmEnd.IsZero() {
		return 0
	}
	return r.warmEnd.Sub(start)
}

func (r *engineRun) reduce() outcome {
	sys := r.sys
	res := sys.Engine.Results()
	bus := sys.Hier.Bus()
	bs := bus.Stats
	fallbacks, _ := bus.FilterFallbacks()
	ring := r.ob.Tracer.Ring()

	var b strings.Builder
	fmt.Fprintf(&b, "kind %s procs %d scale %d seed %d\n", sys.Params.Kind, sys.Params.Processors, sys.Params.Scale, sys.Params.Seed)
	fmt.Fprintf(&b, "ops %d gc %d gcwall %d\n", res.BusinessOps, res.GCCount, res.GCWall)
	tags := make([]string, 0, len(res.OpsByTag))
	for t := range res.OpsByTag {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	for _, t := range tags {
		fmt.Fprintf(&b, "tag %s %d", t, res.OpsByTag[t])
		if h := res.LatencyByTag[t]; h != nil {
			fmt.Fprintf(&b, " n %d p50 %d p90 %d", h.Count(), h.Quantile(0.5), h.Quantile(0.9))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "modes %+v\n", res.Modes)
	fmt.Fprintf(&b, "cpu %+v\n", res.CPU)
	fmt.Fprintf(&b, "locks wait %d blocks %d acquires %d mon %d spin %d sem %d\n",
		res.LockWaitCycles, res.LockBlocks, res.LockAcquires, res.WaitMonitor, res.WaitSpin, res.WaitSem)
	fmt.Fprintf(&b, "bus %+v\n", bs)
	fmt.Fprintf(&b, "l2 data %d fetch %d fallback %d\n", sys.Hier.DataMisses, sys.Hier.FetchMisses, fallbacks)
	fmt.Fprintf(&b, "ring total %d evicted %d\n", ring.Total(), ring.Evicted())

	var problems []string
	c := res.CPU
	if res.BusinessOps == 0 || c.Instructions == 0 {
		problems = append(problems, fmt.Sprintf("no work measured: %d ops, %d instructions", res.BusinessOps, c.Instructions))
	}
	// Every processor-cycle of the window is charged to one execution mode.
	// Busy slices are charged whole when they run, which blurs the window's
	// edges by a slice, so the check allows 0.1%.
	if got, want := res.Modes.Total(), uint64(sys.Params.Processors)*measureCycles; got < want-want/1000 || got > want+want/1000 {
		problems = append(problems, fmt.Sprintf("mode accounting covers %d processor-cycles, want %d", got, want))
	}
	if wd := sys.Engine.WatchdogTripped(); wd != nil {
		problems = append(problems, "watchdog tripped: "+wd.String())
	}
	if err := r.rec.Err(); err != nil {
		problems = append(problems, "flight recorder: "+err.Error())
	}

	instr := float64(c.Instructions)
	cpi := float64(c.Total()) / instr
	seconds := float64(measureCycles) / core.CyclesPerSecond
	kept := 0.0
	if ring.Total() > 0 {
		kept = float64(ring.Len()) / float64(ring.Total())
	}
	return outcome{
		canon:    b.String(),
		problems: problems,
		work:     instr,
		headline: []kv{
			{"throughput", fmt.Sprintf("%.0f ops/s", float64(res.BusinessOps)/seconds)},
			{"CPI", fmt.Sprintf("%.3f", cpi)},
			{"c2c_ratio", fmt.Sprintf("%.1f%%", 100*bs.C2CRatio())},
			{"gc_count", fmt.Sprint(res.GCCount)},
		},
		counts: map[string]float64{
			"cpu.instructions":           instr,
			"cpu.cpi":                    cpi,
			"coherence.gets":             float64(bs.GetS),
			"coherence.getm":             float64(bs.GetM),
			"coherence.upgrades":         float64(bs.Upgrades),
			"coherence.c2c":              float64(bs.C2CTransfers),
			"coherence.mem":              float64(bs.MemTransfers),
			"coherence.writebacks":       float64(bs.Writebacks),
			"coherence.invalidations":    float64(bs.Invalidations),
			"coherence.l2_hits":          float64(bs.L2Hits),
			"memsys.data_misses":         float64(sys.Hier.DataMisses),
			"memsys.fetch_misses":        float64(sys.Hier.FetchMisses),
			"memsys.bus.snoop_fallback":  float64(fallbacks),
			"jvm.gc_count":               float64(res.GCCount),
			"obs.trace_events":           float64(ring.Total()),
			"obs.ring_evicted":           float64(ring.Evicted()),
			"obs.ring_kept_per_recorded": kept,
		},
	}
}

// ---- cachesweep ----

// sweepSystems are the uniprocessor systems core.RunCacheSweeps builds
// (see core.sweepSpecs): ECperf OIR 10 and SPECjbb at 25, 10 and 1
// warehouses.
var sweepSystems = []struct {
	kind  core.Kind
	scale int
}{{core.ECperf, 10}, {core.SPECjbb, 25}, {core.SPECjbb, 10}, {core.SPECjbb, 1}}

type sweepRun struct {
	opts core.SweepOpts
	cs   *core.CacheSweeps
}

// buildSweep runs the sweep at the reduced size `figures -quick` uses (30
// warm-up + 120 measured ops per thread, `cachesweep -warm 30 -ops 120`):
// a default-size run takes ~6 s and its host time varies by ±30% from run
// to run, so too few fit in a benchmark run for a steady median.
func buildSweep(seed uint64, _ string) run {
	return newSweepRun(seed, core.QuickSweepOpts())
}

func newSweepRun(seed uint64, o core.SweepOpts) *sweepRun {
	o.Seed = seed
	for _, s := range sweepSystems {
		core.BuildSystem(core.SystemParams{Kind: s.kind, Processors: 1, Scale: s.scale, Seed: seed})
	}
	return &sweepRun{opts: o}
}

func (r *sweepRun) simulate() time.Duration {
	r.cs = core.RunCacheSweeps(r.opts)
	return 0
}

func (r *sweepRun) reduce() outcome {
	var b strings.Builder
	var problems []string
	instr := 0.0
	fmt.Fprintf(&b, "seed %d warm %d measure %d\n", r.opts.Seed, r.opts.WarmupOps, r.opts.MeasureOps)
	for _, res := range r.cs.Results {
		instr += float64(res.Instructions)
		fmt.Fprintf(&b, "%s instr %d\n", res.Label, res.Instructions)
		if res.Instructions == 0 {
			problems = append(problems, res.Label+": no instructions measured")
		}
		for i := range res.ICurve {
			ip, dp := res.ICurve[i], res.DCurve[i]
			fmt.Fprintf(&b, "  %d I %.17g %.17g D %.17g %.17g\n", ip.SizeBytes, ip.MissesPer1000, ip.MissRatio, dp.MissesPer1000, dp.MissRatio)
			// LRU caches of one associativity and block size obey the
			// inclusion property, so misses never rise with size.
			if i > 0 && (ip.MissesPer1000 > res.ICurve[i-1].MissesPer1000 || dp.MissesPer1000 > res.DCurve[i-1].MissesPer1000) {
				problems = append(problems, fmt.Sprintf("%s: misses rise from %d to %d bytes", res.Label, res.ICurve[i-1].SizeBytes, ip.SizeBytes))
			}
		}
	}
	first := r.cs.Results[0]
	return outcome{
		canon:    b.String(),
		problems: problems,
		work:     instr,
		headline: []kv{
			{first.Label + " I-miss@64KB", fmt.Sprintf("%.3f/1000", first.ICurve[0].MissesPer1000)},
			{first.Label + " D-miss@64KB", fmt.Sprintf("%.3f/1000", first.DCurve[0].MissesPer1000)},
		},
		counts: map[string]float64{"cpu.instructions": instr},
	}
}

// ---- loadsim ----

type loadCell struct {
	mult     float64
	controls bool
	sim      *cluster.OpenSim
	coll     *reqtrace.Collector
}

type loadRun struct {
	cells   []*loadCell
	rec     *flightrec.Recorder
	horizon uint64
}

func buildLoad(seed uint64, flightDir string) run {
	return newLoadRun(seed, flightDir, loadHorizon)
}

func newLoadRun(seed uint64, flightDir string, horizon uint64) *loadRun {
	// As loadsim: one flight recorder, riding the highest-load controls-on
	// cell; every cell gets its own collector and the live tick.
	_, rec := flightrec.FromFlags(&obs.Flags{Flight: flightDir}, "loadsim", nil)
	r := &loadRun{rec: rec, horizon: horizon}
	top := loadMults[len(loadMults)-1]
	for _, on := range loadModes {
		for _, m := range loadMults {
			cfg := cluster.DefaultOpenConfig()
			cfg.Arrival.Rate = m * cfg.Capacity()
			cfg.Controls.Enabled = on
			s, err := cluster.NewOpen(cfg, seed)
			if err != nil {
				panic(fmt.Sprintf("loadsim cell %gx: %v", m, err)) // the default config is valid
			}
			coll := reqtrace.NewCollector(reqtrace.Options{})
			s.SetCollector(coll)
			var cellRec *flightrec.Recorder
			if on && m == top {
				cellRec = rec
				rec.SetCollector(coll)
			}
			s.SetTick(loadTick, func(at uint64, sim *cluster.OpenSim) {
				if cellRec == nil {
					return
				}
				cellRec.Tick(at)
				lvl := 0
				for _, n := range sim.Snapshot(at).Nodes {
					if n.BrownLevel > lvl {
						lvl = n.BrownLevel
					}
				}
				cellRec.Brownout(at, lvl)
			})
			r.cells = append(r.cells, &loadCell{mult: m, controls: on, sim: s, coll: coll})
		}
	}
	return r
}

func (r *loadRun) simulate() time.Duration {
	for _, c := range r.cells {
		c.sim.Run(r.horizon)
	}
	return 0
}

func (r *loadRun) reduce() outcome {
	var b strings.Builder
	var problems []string
	var tot cluster.OpenStats
	var headline []kv
	for _, c := range r.cells {
		st := c.sim.Stats
		fmt.Fprintf(&b, "%gx controls=%v %+v", c.mult, c.controls, st)
		for _, cl := range c.coll.BuildReport().Classes {
			fmt.Fprintf(&b, " %s n %d p50 %d p99 %d", cl.Class, cl.Latency.Count, cl.Latency.P50, cl.Latency.P99)
		}
		b.WriteByte('\n')
		// Conservation after the drain: every offered request was shed,
		// completed or failed, and nothing is left in flight.
		if st.Offered != st.Shed+st.Completed+st.Failed || c.sim.InFlight() != 0 || st.Late > st.Completed {
			problems = append(problems, fmt.Sprintf("%gx controls=%v: requests not conserved: %+v, %d in flight", c.mult, c.controls, st, c.sim.InFlight()))
		}
		if st.Offered == 0 {
			problems = append(problems, fmt.Sprintf("%gx controls=%v: no requests offered", c.mult, c.controls))
		}
		tot.Offered += st.Offered
		tot.Shed += st.Shed
		tot.Completed += st.Completed
		tot.Late += st.Late
		tot.Attempts += st.Attempts
		tot.Retries += st.Retries
		mode := "on"
		if !c.controls {
			mode = "off"
		}
		if st.Offered > 0 {
			headline = append(headline, kv{fmt.Sprintf("goodput %gx %s", c.mult, mode),
				fmt.Sprintf("%.1f%%", 100*float64(st.Good())/float64(st.Offered))})
		}
	}
	if err := r.rec.Err(); err != nil {
		problems = append(problems, "flight recorder: "+err.Error())
	}
	good := 0.0
	if tot.Offered > 0 {
		good = float64(tot.Good()) / float64(tot.Offered)
	}
	return outcome{
		canon:    b.String(),
		problems: problems,
		work:     float64(tot.Offered),
		headline: headline,
		counts: map[string]float64{
			"cluster.offered":          float64(tot.Offered),
			"cluster.shed":             float64(tot.Shed),
			"cluster.completed":        float64(tot.Completed),
			"cluster.late":             float64(tot.Late),
			"cluster.attempts":         float64(tot.Attempts),
			"cluster.retries":          float64(tot.Retries),
			"cluster.good_per_offered": good,
		},
	}
}
