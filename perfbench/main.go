// Command perfbench is the repository's benchmark. It runs one named
// workload — a driver's default invocation, rebuilt from the same public
// core/cluster calls — in a closed loop, one run in flight at a time, for
// a fixed number of seconds, checks every run's simulated output, and
// prints host-speed end-to-end metrics (-trace 0) or per-layer metrics
// from CPU-profiled runs (-trace 1). See README.md.
//
// Usage:
//
//	go run . -workload ecperf-8p [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the drivers' default -seed.
const defaultSeed = 20030208

// flightDir receives flight-recorder dumps, should a trigger fire; it lies
// in the build directory the launcher uses, so runs write nothing else.
const flightDir = ".bench_build/flight"

// Before its workload runs, a benchmark times stand-alone constructions:
// at least minSetupProbes, and more until setupProbeTime is spent (up to
// maxSetupProbes), so setup_s is the median of many samples even when one
// construction takes well under a millisecond.
const (
	minSetupProbes = 5
	maxSetupProbes = 200
	setupProbeTime = 500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (every simulated input derives from it)")
	seconds := flag.Float64("seconds", 10, "host seconds to keep starting workload runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from CPU-profiled runs")
	flag.Parse()

	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace %d: want 0 or 1", *traced))
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fail(fmt.Errorf("unknown -workload %q (want %s, or all)", *name, strings.Join(workloadNames(), ", ")))
	}
	if err := os.MkdirAll(flightDir, 0o755); err != nil {
		fail(err)
	}
	for _, w := range ws {
		b := bench{w: w, seed: *seed, seconds: *seconds, profiled: *traced == 1}
		b.run()
		b.print(os.Stdout)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// bench is one workload's measurement.
type bench struct {
	w        workload
	seed     uint64
	seconds  float64
	profiled bool

	setups []float64 // seconds; one per run plus the probes
	plain  []sample  // unprofiled runs
	prof   []sample  // CPU-profiled runs (-trace 1 only)
	layers *layerProfile

	ref       outcome // the first run's output; every later run must match
	haveRef   bool
	failures  []string
	attempted int
}

// run alternates unprofiled and (with -trace 1) profiled workload runs
// until the time budget is spent, with at least one of each. A run is not
// started when a run of median length would end past the budget.
func (b *bench) run() {
	b.layers = newLayerProfile()
	for t0 := time.Now(); len(b.setups) < minSetupProbes ||
		len(b.setups) < maxSetupProbes && time.Since(t0) < setupProbeTime; {
		secs, err := timeSetup(b.w, b.seed, flightDir)
		if err != nil {
			b.attempted++
			b.failures = append(b.failures, err.Error())
			return
		}
		b.setups = append(b.setups, secs)
	}
	start := time.Now()
	for i := 0; ; i++ {
		withProfile := b.profiled && i%2 == 1
		s, out, err := measureRun(b.w, b.seed, flightDir, withProfile)
		b.attempted++
		if err == nil {
			err = b.check(out)
		}
		if err != nil {
			b.failures = append(b.failures, fmt.Sprintf("run %d: %v", i, err))
		} else {
			b.setups = append(b.setups, s.setup)
			if withProfile {
				b.prof = append(b.prof, s)
				if err := b.layers.addPprof(s.cpuProfile); err != nil {
					b.failures = append(b.failures, fmt.Sprintf("run %d: %v", i, err))
				}
			} else {
				b.plain = append(b.plain, s)
			}
		}
		enough := len(b.plain) > 0 && (!b.profiled || len(b.prof) > 0)
		elapsed := time.Since(start).Seconds()
		typical := median(append(collect(b.plain, wallOf), collect(b.prof, wallOf)...))
		if enough && elapsed+typical > b.seconds || elapsed >= b.seconds && (enough || b.attempted >= 4) {
			return
		}
	}
}

// check compares a run's output with the first run's and returns why it
// is wrong, if it is.
func (b *bench) check(out outcome) error {
	if len(out.problems) > 0 {
		return fmt.Errorf("output check: %s", strings.Join(out.problems, "; "))
	}
	if !b.haveRef {
		b.ref, b.haveRef = out, true
		return nil
	}
	return sameOutput(b.ref, out)
}

// sameOutput reports the first line where two runs' outputs differ.
func sameOutput(want, got outcome) error {
	if want.canon == got.canon {
		return nil
	}
	wl, gl := strings.Split(want.canon, "\n"), strings.Split(got.canon, "\n")
	for i := range wl {
		if i >= len(gl) || wl[i] != gl[i] {
			g := "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			return fmt.Errorf("fingerprint %s != %s: line %d %q, first run had %q",
				fingerprint(got), fingerprint(want), i+1, g, wl[i])
		}
	}
	return fmt.Errorf("fingerprint %s != %s: %d extra lines", fingerprint(got), fingerprint(want), len(gl)-len(wl))
}

func fingerprint(o outcome) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(o.canon)))[:16]
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// series is one metric's samples.
type series struct {
	unit string
	xs   []float64
}

// endToEndSamples returns every end-to-end metric's samples: one per
// unprofiled run, and for setup_s one per construction.
func (b *bench) endToEndSamples() map[string]series {
	per := func(unit string, f func(sample) float64) series { return series{unit, collect(b.plain, f)} }
	return map[string]series{
		"setup_s":        {"s", b.setups},
		"wall_s":         per("s", wallOf),
		"cpu_s":          per("s", func(s sample) float64 { return s.cpu }),
		"sim_work_per_s": per("1/s", func(s sample) float64 { return s.work / s.simulate }),
		"alloc_mb":       per("MB", func(s sample) float64 { return s.allocBytes / 1e6 }),
		"heap_peak_mb":   per("MB", func(s sample) float64 { return s.heapPeak / 1e6 }),
	}
}

// endToEnd reports each end-to-end metric as the median of its samples.
func (b *bench) endToEnd() map[string]metric {
	m := map[string]metric{}
	for k, s := range b.endToEndSamples() {
		m[k] = metric{median(s.xs), s.unit}
	}
	return m
}

// perLayer computes the per-layer metrics from the profiled runs.
func (b *bench) perLayer() map[string]metric {
	m := map[string]metric{}
	for k, v := range b.layers.shares() {
		m[k] = metric{v, "%"}
	}
	med := func(f func(sample) float64) float64 { return median(collect(b.prof, f)) }
	m["phase.setup_s"] = metric{med(func(s sample) float64 { return s.setup }), "s"}
	m["phase.measure_s"] = metric{med(func(s sample) float64 { return s.simulate - s.warmup }), "s"}
	m["phase.report_s"] = metric{med(func(s sample) float64 { return s.report }), "s"}
	m["phase.warmup_share"] = metric{med(func(s sample) float64 { return 100 * s.warmup / s.simulate }), "%"}
	m["host.ns_per_op"] = metric{med(func(s sample) float64 { return 1e9 * s.simulate / s.work }), "ns"}
	m["host.allocs_per_kop"] = metric{med(func(s sample) float64 { return 1e3 * s.allocs / s.work }), "allocs/kop"}
	m["profiler.overhead_s"] = metric{med(wallOf) - median(collect(b.plain, wallOf)), "s"}
	for _, k := range countNames {
		unit := "count"
		switch k {
		case "cpu.cpi":
			unit = "cycles/instr"
		case "obs.ring_kept_per_recorded", "cluster.good_per_offered":
			unit = "ratio"
		}
		m[k] = metric{b.ref.counts[k], unit}
	}
	return m
}

// countNames are the simulated counts and ratios every workload reports
// from the layers' public stats; a layer the workload does not run
// reports 0.
var countNames = []string{
	"cpu.instructions", "cpu.cpi",
	"coherence.gets", "coherence.getm", "coherence.upgrades", "coherence.c2c",
	"coherence.mem", "coherence.writebacks", "coherence.invalidations", "coherence.l2_hits",
	"memsys.data_misses", "memsys.fetch_misses", "memsys.bus.snoop_fallback",
	"jvm.gc_count", "obs.trace_events", "obs.ring_evicted", "obs.ring_kept_per_recorded",
	"cluster.offered", "cluster.shed", "cluster.completed", "cluster.late",
	"cluster.attempts", "cluster.retries", "cluster.good_per_offered",
}

func (b *bench) result() result {
	r := result{Attempted: b.attempted, Failed: len(b.failures)}
	if b.profiled {
		r.Metrics = b.perLayer()
	} else {
		r.Metrics = b.endToEnd()
	}
	r.Correct = r.Failed == 0 && b.haveRef
	if b.profiled {
		if sum := selfShareSum(b.layers.shares()); sum < 99.999 || sum > 100.001 {
			r.Correct = false
		}
	}
	return r
}

// print writes the human-readable report, then the JSON result line.
func (b *bench) print(w io.Writer) {
	r := b.result()
	fmt.Fprintf(w, "perfbench %s: seed %d, %d runs (%d profiled), closed loop, one run in flight\n",
		b.w.name, b.seed, b.attempted, len(b.prof))
	fmt.Fprintf(w, "  why: %s\n", b.w.why)
	for _, f := range b.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if b.haveRef {
		fmt.Fprintf(w, "simulated output (validated only by curve shape against the paper, see EXPERIMENTS.md; no error figure)\n")
		fmt.Fprintf(w, "  fingerprint %s (all runs identical: %v)\n", fingerprint(b.ref), len(b.failures) == 0)
		for _, h := range b.ref.headline {
			fmt.Fprintf(w, "  %-22s %s\n", h.key, h.val)
		}
	}
	fmt.Fprintf(w, "failed_frac %.4f (%d of %d runs)\n", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	if len(b.plain) > 0 {
		fmt.Fprintf(w, "end-to-end, host time (median [q1 q3] of n=%d runs; setup_s of n=%d constructions):\n", len(b.plain), len(b.setups))
		e2e := b.endToEnd()
		samples := b.endToEndSamples()
		for _, k := range sortedKeys(e2e) {
			q1, q3 := quartiles(samples[k].xs)
			fmt.Fprintf(w, "  %-18s %12.6g %-4s [%.6g %.6g]\n", k, e2e[k].Value, e2e[k].Unit, q1, q3)
		}
		fmt.Fprintf(w, "  wall_s of each run:")
		for _, s := range b.plain {
			fmt.Fprintf(w, " %.4f", s.wall)
		}
		fmt.Fprintln(w)
		rate := e2e["sim_work_per_s"].Value
		if b.w.unit == "instr" {
			fmt.Fprintf(w, "  %-18s %12.6g Minstr/s\n", "sim_minstr_per_s", rate/1e6)
		} else {
			fmt.Fprintf(w, "  %-18s %12.6g kreq/s\n", "sim_kreq_per_s", rate/1e3)
		}
	}
	if len(b.prof) > 0 {
		fmt.Fprintf(w, "per-layer, from %d CPU-profiled runs (%d samples):\n", len(b.prof), b.layers.total)
		pl := b.perLayer()
		fmt.Fprintf(w, "  %-14s %8s %8s\n", "layer", "self%", "incl%")
		for _, l := range append(append([]string{}, layers...), otherLayer) {
			incl := "-"
			if v, ok := pl[l+".incl_share"]; ok {
				incl = fmt.Sprintf("%.2f", v.Value)
			}
			fmt.Fprintf(w, "  %-14s %8.2f %8s\n", l, pl[l+".self_share"].Value, incl)
		}
		fmt.Fprintf(w, "  self shares sum to %.4f%%\n", selfShareSum(b.layers.shares()))
		for _, k := range sortedKeys(pl) {
			if !strings.HasSuffix(k, "_share") || strings.HasPrefix(k, "phase.") {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, pl[k].Value, pl[k].Unit)
			}
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(w, string(line))
}

func wallOf(s sample) float64 { return s.wall }

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
