// Command loadsim drives the open-system cluster — N app-server nodes
// behind a load balancer over sharded database backends — with open
// arrivals, and sweeps offered load against the topology's analytic
// capacity. It is the overload laboratory: where ecperfsim and jbbsim are
// closed-loop (offered load self-throttles), loadsim's clients do not wait,
// so pushing past capacity exercises the adaptive admission controls
// (CoDel queue-delay dropping, per-shard AIMD concurrency limits, retry
// budgets, brown-out class shedding) or — with -controls off — demonstrates
// congestion collapse.
//
// Usage:
//
//	loadsim [-nodes N] [-workers N] [-shards N] [-queue-cap N] [-lb POLICY]
//	        [-arrival poisson|bursty|diurnal|flash|off] [-offered MULT]
//	        [-sweep 0.3,1,3] [-controls on|off|both] [-deadline-ms MS]
//	        [-clients N] [-think-ms MS] [-horizon cycles] [-seed N]
//	        [-faults FILE|demo|crash] [-report FILE]
//	        [-latency FILE] [-slo SPEC] [-heartbeat DUR] [-inspect ADDR] ...
//
// -offered and -sweep are multiples of capacity: "-sweep 0.3,0.5,1,2,3
// -controls both" reproduces the goodput-vs-offered-load curve with and
// without controls in one paired, seed-deterministic run. "-arrival flash
// -faults crash" is the flash-crowd-plus-node-crash scenario: a 6x arrival
// spike while app node 0 is down. "-faults demo" runs the standard
// every-kind schedule; its network windows target peer 1, which in this
// topology is database shard 0. "-arrival off" runs a closed-loop
// population (-clients/-think-ms) instead of open arrivals — the
// self-throttling baseline.
//
// With -heartbeat the progress line carries live offered/admitted/shed
// rates; with -inspect the /overload page serves per-node queue depths,
// brown-out levels, and per-shard AIMD limiter state as JSON. With
// -latency/-slo the single run (or the highest-load controls-on sweep
// point) is traced through the reqtrace pipeline and its HDR/SLO report
// printed and written. -trace/-metrics/-profile/-attr are accepted for
// flag parity but inert here: this driver runs the queueing-level cluster
// model, not an instrumented memory-system engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/arrival"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/reqtrace"
	"repro/internal/report"
	"repro/internal/simrand"
)

// cyclesPerMS converts the -deadline-ms / -think-ms flags to the simulated
// 250 MHz clock.
const cyclesPerMS = core.CyclesPerSecond / 1000

// appFlags is the full flag surface; registerFlags keeps it testable (the
// flag-parity test registers onto a scratch FlagSet).
type appFlags struct {
	nodes, workers, shards *int
	queueCap, clients      *int
	lb, arrivalPat         *string
	sweep, controls        *string
	faults, reportPath     *string
	offered, deadlineMS    *float64
	thinkMS                *float64
	seed, horizon          *uint64
	ofl                    obs.Flags
	hp                     obs.HostProfile
}

func registerFlags(fs *flag.FlagSet) *appFlags {
	af := &appFlags{
		nodes:      fs.Int("nodes", 4, "app-server nodes behind the load balancer (1-64)"),
		workers:    fs.Int("workers", 8, "worker threads per node"),
		shards:     fs.Int("shards", 2, "database shards (1-64)"),
		queueCap:   fs.Int("queue-cap", 64, "bounded per-node request queue (with controls on)"),
		clients:    fs.Int("clients", 16, "closed-loop client population (only with -arrival off)"),
		lb:         fs.String("lb", "least", "load-balancer policy: rr, least, or weighted"),
		arrivalPat: fs.String("arrival", "poisson", "arrival pattern: poisson, bursty, diurnal, flash, or off (closed loop)"),
		sweep:      fs.String("sweep", "", "comma-separated offered-load multipliers, e.g. 0.3,1,3 (overrides -offered)"),
		controls:   fs.String("controls", "on", "adaptive overload controls: on, off, or both (paired runs per point)"),
		faults:     fs.String("faults", "", `fault schedule JSON file, "demo" (every kind; network windows hit shard 0), or "crash" (app node 0 down mid-run)`),
		reportPath: fs.String("report", "", "also write the goodput figure (markdown) to FILE"),
		offered:    fs.Float64("offered", 1, "offered load as a multiple of analytic capacity"),
		deadlineMS: fs.Float64("deadline-ms", 25, "client patience; later completions count as wasted work, not goodput"),
		thinkMS:    fs.Float64("think-ms", 16, "closed-loop mean think time (only with -arrival off)"),
		seed:       fs.Uint64("seed", 20030208, "simulation seed"),
		horizon:    fs.Uint64("horizon", 250_000_000, "arrival horizon in cycles (250M = 1 simulated second); the run then drains"),
	}
	af.ofl.Register(fs)
	af.hp.Register(fs)
	return af
}

// msCycles converts a millisecond flag to simulated cycles. The value must
// be finite and positive, and fit the cycle clock.
func msCycles(name string, ms float64) (float64, error) {
	if c := ms * cyclesPerMS; ms > 0 && c < math.MaxUint64 {
		return c, nil
	}
	return 0, fmt.Errorf("-%s %v: want a positive number of milliseconds within the cycle clock's range", name, ms)
}

// buildConfig turns the flag surface into a validated topology. The arrival
// rate is a placeholder; each sweep point sets it from its multiplier.
func buildConfig(af *appFlags) (cluster.OpenConfig, error) {
	cfg := cluster.DefaultOpenConfig()
	cfg.Nodes = *af.nodes
	cfg.WorkersPerNode = *af.workers
	cfg.Shards = *af.shards
	cfg.QueueCap = *af.queueCap
	deadline, err := msCycles("deadline-ms", *af.deadlineMS)
	if err != nil {
		return cfg, err
	}
	if cfg.DeadlineCycles = uint64(deadline); cfg.DeadlineCycles == 0 {
		return cfg, fmt.Errorf("-deadline-ms %v rounds to zero cycles", *af.deadlineMS)
	}
	lb, err := cluster.ParseLBPolicy(*af.lb)
	if err != nil {
		return cfg, err
	}
	cfg.LB = lb
	if *af.arrivalPat == "off" {
		cfg.ClosedClients = *af.clients
		cfg.ThinkCycles, err = msCycles("think-ms", *af.thinkMS)
		return cfg, err
	}
	pat, err := arrival.ParsePattern(*af.arrivalPat)
	if err != nil {
		return cfg, err
	}
	ac := arrival.Config{Pattern: pat, Rate: cfg.Arrival.Rate}.Defaults()
	if pat == arrival.Flash && ac.FlashAt == 0 {
		// Spike a third of the way in, so the controls see steady state
		// first and the drain after the spike is visible.
		ac.FlashAt = *af.horizon / 3
	}
	cfg.Arrival = ac
	return cfg, nil
}

// loadFaults resolves the -faults spec against the horizon.
func loadFaults(spec string, horizon uint64) (*fault.Schedule, error) {
	switch spec {
	case "":
		return nil, nil
	case "demo":
		return fault.Demo(horizon/5, 3*horizon/5), nil
	case "crash":
		s := &fault.Schedule{Events: []fault.Event{{
			Kind: fault.NodeCrash, At: horizon / 3, Duration: horizon / 6,
			Peer: cluster.NodePeer(0),
		}}}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return fault.LoadSchedule(spec)
	}
}

// parseSweep parses the -sweep list; an empty spec falls back to a single
// point at -offered. Every multiplier must be finite and positive.
func parseSweep(spec string, offered float64) ([]float64, error) {
	if spec == "" {
		if !(offered > 0) || math.IsInf(offered, 1) {
			return nil, fmt.Errorf("bad -offered multiplier %v", offered)
		}
		return []float64{offered}, nil
	}
	var mults []float64
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("bad -sweep multiplier %q", f)
		}
		mults = append(mults, v)
	}
	return mults, nil
}

// point is one finished run of the sweep.
type point struct {
	mult     float64
	controls bool
	stats    cluster.OpenStats
	simSec   float64 // arrival horizon in simulated seconds
	p50, p99 float64 // critical-class latency, ms (0 = class never completed)
	coll     *reqtrace.Collector
}

// goodps is the point's goodput in requests per simulated second.
func (p point) goodps() float64 { return float64(p.stats.Good()) / p.simSec }

// live bundles the optional progress surfaces a run publishes into, plus
// the flight recorder and the (controls, multiplier) cell it rides — one
// cell per sweep, so a dump never mixes load levels.
type live struct {
	hb   *obs.Heartbeat
	insp *obs.Inspector
	rec  *flightrec.Recorder
	// recOn/recMult select the recorded cell: the highest-load controls-on
	// point, matching the -latency selection.
	recOn   bool
	recMult float64
}

// runPoint runs one (multiplier, controls) cell. Each cell gets its own
// injector so fault draws stay comparable across cells, and its own
// collector so reports never mix load levels.
func runPoint(cfg cluster.OpenConfig, mult float64, controlsOn bool, seed, horizon uint64,
	sched *fault.Schedule, newColl func() (*reqtrace.Collector, error), lv live,
	rec *flightrec.Recorder) (point, error) {
	if cfg.ClosedClients == 0 {
		cfg.Arrival.Rate = mult * cfg.Capacity()
	}
	cfg.Controls.Enabled = controlsOn
	s, err := cluster.NewOpen(cfg, seed)
	if err != nil {
		return point{}, err
	}
	if sched != nil {
		s.SetFaults(fault.NewInjector(sched, simrand.New(seed+1)))
	}
	coll, err := newColl()
	if err != nil {
		return point{}, err
	}
	s.SetCollector(coll)
	rec.SetCollector(coll)
	rec.SetSchedule(sched)
	s.SetTick(2_000_000, func(at uint64, sim *cluster.OpenSim) {
		lv.hb.SetCycles(at)
		sec := float64(at) / core.CyclesPerSecond
		st := sim.Stats
		lv.hb.SetTraffic(float64(st.Offered)/sec, float64(st.Offered-st.Shed)/sec,
			float64(st.Shed)/sec)
		if rec != nil {
			rec.Tick(at)
			lvl := 0
			for _, n := range sim.Snapshot(at).Nodes {
				if n.BrownLevel > lvl {
					lvl = n.BrownLevel
				}
			}
			rec.Brownout(at, lvl)
		}
		if lv.insp != nil {
			if buf, err := json.Marshal(sim.Snapshot(at)); err == nil {
				lv.insp.SetOverload(append(buf, '\n'))
			}
		}
	})
	s.Run(horizon)
	lv.hb.Add(1)

	p := point{mult: mult, controls: controlsOn, stats: s.Stats,
		simSec: float64(horizon) / core.CyclesPerSecond, coll: coll}
	crit := criticalClass(cfg.Mix)
	for _, c := range coll.BuildReport().Classes {
		if c.Class == crit && c.Latency.Count > 0 {
			p.p50 = float64(c.Latency.P50) / cyclesPerMS
			p.p99 = float64(c.Latency.P99) / cyclesPerMS
		}
	}
	return p, nil
}

// criticalClass names the priority-0 work class (the one brown-out never
// sheds); its latency is the table's headline quantile.
func criticalClass(mix []cluster.WorkClass) string {
	for _, m := range mix {
		if m.Priority == 0 {
			return m.Name
		}
	}
	return mix[0].Name
}

// runSweep executes every (multiplier, controls) cell and prints the table.
// The returned points are ordered controls-on first, each in sweep order.
func runSweep(w io.Writer, cfg cluster.OpenConfig, mults []float64, modes []bool,
	seed, horizon uint64, sched *fault.Schedule,
	newColl func() (*reqtrace.Collector, error), lv live) ([]point, error) {
	capRate := cfg.Capacity() * core.CyclesPerSecond
	fmt.Fprintf(w, "loadsim: %d nodes x %d workers, %d shards, lb %s, deadline %.1f ms, capacity %.0f req/s\n",
		cfg.Nodes, cfg.WorkersPerNode, cfg.Shards, cfg.LB, float64(cfg.DeadlineCycles)/cyclesPerMS, capRate)
	fmt.Fprintf(w, "%7s %8s %9s %9s %8s %7s %7s %11s %7s %9s %9s\n",
		"xload", "controls", "offered", "complete", "shed", "failed", "late",
		"goodput", "shed%", "p50(ms)", "p99(ms)")
	var pts []point
	for _, on := range modes {
		for _, m := range mults {
			var rec *flightrec.Recorder
			if on == lv.recOn && m == lv.recMult {
				rec = lv.rec
			}
			p, err := runPoint(cfg, m, on, seed, horizon, sched, newColl, lv, rec)
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
			st := p.stats
			mode := "on"
			if !on {
				mode = "off"
			}
			shedPct := 0.0
			if st.Offered > 0 {
				shedPct = 100 * float64(st.Shed) / float64(st.Offered)
			}
			fmt.Fprintf(w, "%7.2f %8s %9d %9d %8d %7d %7d %9.0f/s %6.1f%% %9.2f %9.2f\n",
				p.mult, mode, st.Offered, st.Completed, st.Shed, st.Failed, st.Late,
				p.goodps(), shedPct, p.p50, p.p99)
		}
	}
	return pts, nil
}

// buildFigure turns the sweep into the goodput-vs-offered-load figure with
// the collapse headline in its notes.
func buildFigure(pts []point, mults []float64) core.Figure {
	f := core.Figure{
		ID:     "loadsim",
		Title:  "Goodput vs offered load (open arrivals)",
		XLabel: "offered load (x capacity)",
		YLabel: "requests/s",
	}
	series := func(on bool, label string, y func(point) float64) {
		s := core.Series{Label: label}
		for _, p := range pts {
			if p.controls == on {
				s.X = append(s.X, p.mult)
				s.Y = append(s.Y, y(p))
			}
		}
		if len(s.X) > 0 {
			f.Series = append(f.Series, s)
		}
	}
	series(true, "goodput, controls on", point.goodps)
	series(false, "goodput, controls off", point.goodps)
	series(true, "shed rate, controls on", func(p point) float64 {
		return float64(p.stats.Shed) / p.simSec
	})

	var peakOn, lastOn, lastOff float64
	haveOn, haveOff := false, false
	for _, p := range pts {
		if p.controls {
			haveOn = true
			if g := p.goodps(); g > peakOn {
				peakOn = g
			}
			if p.mult == mults[len(mults)-1] {
				lastOn = p.goodps()
			}
		} else if p.mult == mults[len(mults)-1] {
			haveOff = true
			lastOff = p.goodps()
		}
	}
	top := mults[len(mults)-1]
	if haveOn && len(mults) > 1 && peakOn > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf(
			"controls on: goodput at %.1fx offered = %.1f%% of peak (%.0f vs %.0f req/s)",
			top, 100*lastOn/peakOn, lastOn, peakOn))
	}
	if haveOn && haveOff && lastOn > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf(
			"controls off at %.1fx offered: goodput %.0f req/s = %.1f%% of the controlled run — congestion collapse",
			top, lastOff, 100*lastOff/lastOn))
	}
	return f
}

// latencyPoint picks the run whose reqtrace report the -latency artifact
// and summary describe: the highest-load controls-on point (the single run,
// when there is no sweep).
func latencyPoint(pts []point) *point {
	var best *point
	for i := range pts {
		p := &pts[i]
		if !p.controls && best != nil {
			continue
		}
		if best == nil || !best.controls || p.mult >= best.mult {
			best = p
		}
	}
	return best
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	af := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "loadsim:", err)
		return 1
	}
	ofl, hp := &af.ofl, &af.hp

	sess, err := core.NewSession("loadsim", ofl, hp, stderr)
	if err != nil {
		return fail(err)
	}
	defer sess.Close()
	for _, inert := range []struct{ name, val string }{
		{"-trace", ofl.Trace}, {"-metrics", ofl.Metrics},
		{"-profile", ofl.Profile}, {"-attr", ofl.Attr},
	} {
		if inert.val != "" {
			fmt.Fprintf(stderr, "loadsim: %s ignored (queueing-level model, no engine instrumentation)\n", inert.name)
		}
	}

	cfg, err := buildConfig(af)
	if err != nil {
		return fail(err)
	}
	mults, err := parseSweep(*af.sweep, *af.offered)
	if err != nil {
		return fail(err)
	}
	var modes []bool
	switch *af.controls {
	case "on":
		modes = []bool{true}
	case "off":
		modes = []bool{false}
	case "both":
		modes = []bool{true, false}
	default:
		return fail(fmt.Errorf("-controls %q: want on, off, or both", *af.controls))
	}
	sched, err := loadFaults(*af.faults, *af.horizon)
	if err != nil {
		return fail(err)
	}
	newColl := func() (*reqtrace.Collector, error) {
		if c, err := core.NewLatencyCollector(ofl); err != nil || c != nil {
			return c, err
		}
		return reqtrace.NewCollector(reqtrace.Options{}), nil
	}

	hb := sess.Progress
	if hb != nil {
		hb.TotalRuns = uint64(len(mults) * len(modes))
	}
	lv := live{hb: hb, insp: sess.Inspect}
	// The flight recorder rides the highest-load controls-on cell — the same
	// one the -latency report describes. No engine here, so its ring carries
	// only synthesized fault windows; the brown-out and SLO-burn triggers are
	// the useful ones.
	_, lv.rec = flightrec.FromFlags(ofl, "loadsim", nil)
	lv.recOn = modes[0]
	for _, m := range modes {
		if m {
			lv.recOn = true
		}
	}
	lv.recMult = mults[0]
	for _, m := range mults {
		if m > lv.recMult {
			lv.recMult = m
		}
	}
	lv.rec.SetInspector(sess.Inspect)

	pts, err := runSweep(stdout, cfg, mults, modes, *af.seed, *af.horizon, sched, newColl, lv)
	if err != nil {
		return fail(err)
	}
	hb.Stop()

	fig := buildFigure(pts, mults)
	if len(mults) > 1 {
		fmt.Fprintln(stdout)
		report.Render(stdout, fig)
	}
	for _, n := range fig.Notes {
		fmt.Fprintln(stdout, n)
	}
	if *af.reportPath != "" {
		w, err := obs.AtomicCreate(*af.reportPath, 0o644)
		if err != nil {
			return fail(err)
		}
		report.Markdown(w, fig)
		if err := w.Close(); err != nil {
			return fail(err)
		}
	}

	if lp := latencyPoint(pts); lp != nil && ofl.LatencyEnabled() {
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "latency report: %.2fx offered, controls %v\n", lp.mult, lp.controls)
		report.LatencySummary(stdout, lp.coll.BuildReport())
		if ofl.Latency != "" && ofl.Latency != "-" {
			if err := obs.AtomicWriteFile(ofl.Latency, lp.coll.ReportJSON(), 0o644); err != nil {
				return fail(err)
			}
		} else if ofl.Latency == "-" {
			stdout.Write(lp.coll.ReportJSON())
		}
	}
	if s := lv.rec.Summary(); s != "" {
		fmt.Fprintln(stderr, s)
	}
	return 0
}
