// Command perfcheck is the host-performance regression harness: it runs a
// pinned set of benchmarks plus end-to-end wall-clock measurements of the
// figures pipeline, records the results as the next BENCH_<n>.json in the
// series, and compares both ns/op and allocs/op against a committed
// baseline with tolerance gates, so a change that quietly slows the
// simulator down — or quietly re-inflates its allocation rate — fails CI
// instead of landing.
//
// Usage:
//
//	go run ./cmd/perfcheck                  # run, write next BENCH_<n>.json, gate vs baseline
//	go run ./cmd/perfcheck -update          # refresh BENCH_baseline.json (new machine or accepted change)
//	go run ./cmd/perfcheck -full            # also gate the full-fidelity figures run (slow; nightly/manual)
//	go run ./cmd/perfcheck -count 5 -tol 0.5
//
// The pinned set mixes macro benchmarks (full figure pipelines, dominated by
// the simulator's end-to-end hot path) with bus-level micro benchmarks that
// isolate the snooping machinery and the HDR-histogram record/merge path the
// latency collector leans on. Results are min-of-count: the minimum is the
// least noisy estimator on a shared machine.
//
// On top of the go-test benchmarks, perfcheck times the figures binary end
// to end: `figures -quick` always, the full-fidelity run with -full. These
// wall-clock pseudo-benchmarks (keys "e2e:FiguresQuick", "e2e:FiguresFull")
// gate exactly like ns/op, catching regressions the microbenchmarks can't
// see — scheduling stalls, per-figure setup cost, GC pressure from the
// drivers themselves.
//
// With -e2e it also times ecperfsim at its defaults with the always-on
// flight recorder on and off, in back-to-back pairs, and fails when the
// median of the pairs' on/off ratios exceeds flightMaxRatio. Each ratio
// compares two runs taken side by side, so the bound holds on any host. Each
// side's minimum is recorded ("e2e:EcperfsimFlightOn/Off") for the trend
// table only: as absolute wall-clock times they would gate on host speed.
//
// Each run appends to the BENCH_<n>.json history rather than overwriting,
// and rewrites BENCH_TREND.md, a markdown table of every pinned
// benchmark's ns/op and allocs/op across the recorded history.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obsdiff"
)

// pinnedBench is the default benchmark selection, chosen to cover the
// simulator's perf-critical layers: the figure pipelines (engine + memory
// system + generators), the local-hit fast path, and the snoop-heavy bus
// patterns the duplicate-tag filter exists for, the loaded-latency hot
// path (curve lookup + utilization-window update) every bus transaction pays
// under -memmodel loaded, and the open cluster's event loop.
const pinnedBench = "^(BenchmarkFig08C2CRatio|BenchmarkFig13DCacheMissRate|BenchmarkFig16SharedCaches|" +
	"BenchmarkReadLocalHit|BenchmarkMigratoryWrite16Nodes|BenchmarkReadSharedGetS16Nodes|" +
	"BenchmarkHDRRecord|BenchmarkHDRMerge|BenchmarkCurveLookup|BenchmarkLoadTrackerRecord|" +
	"BenchmarkTracerRingRecord|BenchmarkOpenSimEventLoop)$"

// E2E pseudo-benchmark keys: wall-clock timings of whole driver binaries.
const (
	e2eQuickKey = "e2e:FiguresQuick"
	e2eFullKey  = "e2e:FiguresFull"
	// ecperfsim defaults with the flight recorder on and off; recorded for
	// the trend, gated only through their paired ratio.
	e2eFlightOnKey  = "e2e:EcperfsimFlightOn"
	e2eFlightOffKey = "e2e:EcperfsimFlightOff"
)

// The flight-recorder overhead gate: flightPairs back-to-back ecperfsim
// off/on pairs, failing when the median on/off ratio exceeds flightMaxRatio.
const (
	flightPairs    = 10
	flightMaxRatio = 1.05
)

// Result is one benchmark's summary, min across runs. For the e2e
// pseudo-benchmarks NsPerOp is the whole run's wall clock in nanoseconds.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp *uint64 `json:"allocs_per_op,omitempty"`
}

// Report is the BENCH_<n>.json document.
type Report struct {
	Note       string            `json:"note,omitempty"`
	Count      int               `json:"count"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op(.*)$`)
var allocsField = regexp.MustCompile(`(\d+) allocs/op`)

func main() {
	bench := flag.String("bench", pinnedBench, "benchmark regex passed to go test -bench")
	pkgs := flag.String("pkgs", ".,./internal/cluster,./internal/coherence,./internal/memsys,./internal/obs", "comma-separated packages to benchmark")
	count := flag.Int("count", 3, "runs per benchmark; the minimum is kept")
	tol := flag.Float64("tol", 0.30, "allowed fractional ns/op (and wall-clock) regression vs baseline")
	allocTol := flag.Float64("alloc-tol", 0.10, "allowed fractional allocs/op regression vs baseline")
	out := flag.String("out", "", "result file to write (default: next unused BENCH_<n>.json)")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to gate against")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	note := flag.String("note", "", "free-form note recorded in the result file")
	e2e := flag.Bool("e2e", true, "measure figures -quick end-to-end wall clock and gate the flight recorder's on/off overhead")
	e2eCount := flag.Int("e2e-count", 2, "end-to-end runs per configuration; the minimum is kept")
	full := flag.Bool("full", false, "also measure the full-fidelity figures run (slow; nightly/manual)")
	trend := flag.String("trend", "BENCH_TREND.md", "markdown trend table to (re)write; empty disables")
	flag.Parse()

	rep := Report{Note: *note, Count: *count, Benchmarks: map[string]Result{}}
	for _, pkg := range strings.Split(*pkgs, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		if err := runPkg(pkg, *bench, *count, rep.Benchmarks); err != nil {
			fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
			os.Exit(1)
		}
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "perfcheck: no benchmarks matched")
		os.Exit(1)
	}

	flightOK := true
	if *e2e {
		if err := runE2E(&rep, *e2eCount, *full); err != nil {
			fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
			os.Exit(1)
		}
		ratio, err := runFlightOverhead(&rep, flightPairs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
			os.Exit(1)
		}
		flightOK = ratio <= flightMaxRatio
		status := "ok  "
		if !flightOK {
			status = "FAIL"
		}
		fmt.Printf("%s flight recorder overhead: on/off %.3f (limit %.2f; median of %d pairs)\n",
			status, ratio, flightMaxRatio, flightPairs)
	}

	outPath := *out
	if outPath == "" {
		outPath = nextBenchPath()
	}
	writeJSON(outPath, rep)
	fmt.Printf("wrote %s (%d benchmarks, min of %d runs)\n", outPath, len(rep.Benchmarks), *count)

	if *trend != "" {
		if err := writeTrend(*trend, *baselinePath, outPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfcheck: trend table: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *trend)
	}

	if *update {
		if !flightOK {
			fmt.Fprintln(os.Stderr, "perfcheck: flight-recorder overhead over its limit; baseline not updated")
			os.Exit(1)
		}
		writeJSON(*baselinePath, rep)
		fmt.Printf("baseline %s updated\n", *baselinePath)
		// Regenerate the trend so its baseline column reflects the pin
		// that was just written, not the one it replaced.
		if *trend != "" {
			if err := writeTrend(*trend, *baselinePath, outPath, rep); err != nil {
				fmt.Fprintf(os.Stderr, "perfcheck: trend table: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	base, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: no baseline (%v); run with -update to create one\n", err)
		os.Exit(1)
	}
	var baseRep Report
	if err := json.Unmarshal(base, &baseRep); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: bad baseline: %v\n", err)
		os.Exit(1)
	}

	failed := !flightOK
	for _, b := range sortedKeys(baseRep.Benchmarks) {
		if b == e2eFlightOnKey || b == e2eFlightOffKey {
			continue // gated above through the paired on/off ratio
		}
		cur, ok := rep.Benchmarks[b]
		if !ok {
			// The e2e measurements are opt-out (-e2e=false) or opt-in
			// (-full), so their absence from a run is a configuration, not
			// a lost benchmark.
			if strings.HasPrefix(b, "e2e:") {
				fmt.Printf("skip %-40s not measured this run\n", b)
				continue
			}
			fmt.Printf("FAIL %-40s in baseline but not in this run\n", b)
			failed = true
			continue
		}
		bl := baseRep.Benchmarks[b]
		ratio := cur.NsPerOp / bl.NsPerOp
		status := "ok  "
		if ratio > 1+*tol {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-40s %12.1f ns/op  baseline %12.1f  (%+.1f%%)\n",
			status, b, cur.NsPerOp, bl.NsPerOp, (ratio-1)*100)
		// Alloc gate: allocation counts are near-deterministic, so they get
		// a tighter relative tolerance plus a small absolute slack (tiny
		// counts jitter by a few allocations of runtime noise).
		if bl.AllocsPerOp != nil && cur.AllocsPerOp != nil && *bl.AllocsPerOp > 0 {
			limit := uint64(float64(*bl.AllocsPerOp)*(1+*allocTol)) + 16
			st := "ok  "
			if *cur.AllocsPerOp > limit {
				st = "FAIL"
				failed = true
			}
			fmt.Printf("%s %-40s %12d allocs/op  baseline %12d (limit %d)\n",
				st, b, *cur.AllocsPerOp, *bl.AllocsPerOp, limit)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "perfcheck: regression beyond tolerance (ns/op %.0f%%, allocs/op %.0f%%, flight on/off %.2f)\n",
			*tol*100, *allocTol*100, flightMaxRatio)
		emitTriage(*baselinePath, outPath)
		os.Exit(1)
	}
}

// emitTriage runs the obsdiff engine over baseline-vs-current when the gate
// fails, so a red CI run carries its own ranked triage (PERF_TRIAGE.md)
// instead of just an exit code. Triage is best-effort: a diff failure never
// masks the gate failure.
func emitTriage(baselinePath, outPath string) {
	rep, err := obsdiff.DiffFiles(baselinePath, outPath, obsdiff.Options{Top: 25})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: triage diff failed: %v\n", err)
		return
	}
	if err := obs.AtomicWriteFile("PERF_TRIAGE.md", rep.Markdown(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: triage write failed: %v\n", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfcheck: wrote PERF_TRIAGE.md; top regressions:")
	for i, d := range rep.TopDeltas(5) {
		fmt.Fprintf(os.Stderr, "  %d. %-40s %+.1f%%\n", i+1, d.Key, d.Rel*100)
	}
}

// nextBenchPath returns the first unused BENCH_<n>.json name, so every run
// extends the recorded history instead of overwriting the last result.
func nextBenchPath() string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

// runE2E builds the figures binary once and times it end to end: -quick
// always, the full-fidelity run when full is set. Minimum of e2eCount runs,
// recorded in wall-clock nanoseconds under the e2e: pseudo-benchmark keys.
func runE2E(rep *Report, e2eCount int, full bool) error {
	dir, err := os.MkdirTemp("", "perfcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "figures")
	build := exec.Command("go", "build", "-o", bin, "./cmd/figures")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building figures: %w", err)
	}

	measure := func(key string, args ...string) error {
		best := 0.0
		for i := 0; i < e2eCount; i++ {
			cmd := exec.Command(bin, args...)
			cmd.Stdout = nil // discard: only wall clock matters here
			cmd.Stderr = nil
			start := time.Now()
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s %s: %w", bin, strings.Join(args, " "), err)
			}
			if secs := time.Since(start).Seconds(); i == 0 || secs < best {
				best = secs
			}
		}
		rep.Benchmarks[key] = Result{NsPerOp: best * 1e9}
		fmt.Printf("%s: %.2fs (min of %d)\n", key, best, e2eCount)
		return nil
	}

	if err := measure(e2eQuickKey, "-quick"); err != nil {
		return err
	}
	if full {
		if err := measure(e2eFullKey); err != nil {
			return err
		}
	}
	return nil
}

// runFlightOverhead builds ecperfsim, times its default invocation with the
// flight recorder on and off in n pairs, records each side's minimum under
// the e2e flight keys, and returns the pairs' median on/off ratio. Runs
// execute in a scratch directory, so a triggered dump could not land in the
// working tree.
func runFlightOverhead(rep *Report, n int) (ratio float64, err error) {
	dir, err := os.MkdirTemp("", "perfcheck-flight")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "ecperfsim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ecperfsim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return 0, fmt.Errorf("building ecperfsim: %w", err)
	}
	on, off, ratio, err := flightOverhead(n, func(flightOn bool) (float64, error) {
		mode := "off"
		if flightOn {
			mode = "on"
		}
		cmd := exec.Command(bin, "-flight", mode)
		cmd.Dir = dir
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%s -flight %s: %w", bin, mode, err)
		}
		return time.Since(start).Seconds(), nil
	})
	if err != nil {
		return 0, err
	}
	rep.Benchmarks[e2eFlightOnKey] = Result{NsPerOp: on * 1e9}
	rep.Benchmarks[e2eFlightOffKey] = Result{NsPerOp: off * 1e9}
	return ratio, nil
}

// flightOverhead runs n pairs of one flight-off and one flight-on run, the
// side that goes first alternating per pair (off-on, on-off, ...). It
// returns each side's minimum and the median of the pairs' on/off ratios.
//
// The gate uses the paired median, not the ratio of the minima: the host's
// speed drifts by several percent between runs, a pair's two runs see
// nearly the same host, and one lucky run on either side moves the ratio
// of the minima by as much as the overhead being measured.
func flightOverhead(n int, run func(flightOn bool) (float64, error)) (on, off, ratio float64, err error) {
	on, off = math.Inf(1), math.Inf(1)
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var secs [2]float64 // off, on
		first := i%2 == 1
		for _, flightOn := range [2]bool{first, !first} {
			t, err := run(flightOn)
			if err != nil {
				return 0, 0, 0, err
			}
			if flightOn {
				secs[1], on = t, math.Min(on, t)
			} else {
				secs[0], off = t, math.Min(off, t)
			}
		}
		ratios = append(ratios, secs[1]/secs[0])
	}
	sort.Float64s(ratios)
	ratio = ratios[n/2]
	if n%2 == 0 {
		ratio = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return on, off, ratio, nil
}

// trendFile is one BENCH_*.json in the recorded history.
type trendFile struct {
	label string
	rep   Report
}

// writeTrend rewrites the markdown trend table from the baseline, every
// numbered BENCH_<n>.json on disk, and the current run (which is already
// among the numbered files unless -out pointed elsewhere).
func writeTrend(path, baselinePath, outPath string, cur Report) error {
	var files []trendFile
	if rep, err := readReport(baselinePath); err == nil {
		files = append(files, trendFile{"baseline", rep})
	}
	names, _ := filepath.Glob("BENCH_*.json")
	var nums []int
	byNum := map[int]string{}
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "BENCH_%d.json", &n); err == nil {
			nums = append(nums, n)
			byNum[n] = name
		}
	}
	sort.Ints(nums)
	seenCur := false
	for _, n := range nums {
		rep, err := readReport(byNum[n])
		if err != nil {
			continue
		}
		files = append(files, trendFile{strconv.Itoa(n), rep})
		seenCur = seenCur || byNum[n] == outPath
	}
	if !seenCur {
		files = append(files, trendFile{"current", cur})
	}

	// Row set: every benchmark that appears anywhere in the history.
	rows := map[string]bool{}
	for _, f := range files {
		for k := range f.rep.Benchmarks {
			rows[k] = true
		}
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var b strings.Builder
	b.WriteString("# Host-performance trend\n\n")
	b.WriteString("Min-of-count results per pinned benchmark across the recorded\n")
	b.WriteString("BENCH_*.json history (oldest first). Cells are time/op with\n")
	b.WriteString("allocs/op in parentheses where recorded; `e2e:` rows are whole\n")
	b.WriteString("figures- or ecperfsim-binary wall-clock runs. Regenerated by `go run ./cmd/perfcheck`.\n\n")
	b.WriteString("| benchmark |")
	for _, f := range files {
		fmt.Fprintf(&b, " %s |", f.label)
	}
	b.WriteString("\n|---|")
	for range files {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "| %s |", k)
		for _, f := range files {
			r, ok := f.rep.Benchmarks[k]
			switch {
			case !ok:
				b.WriteString(" — |")
			case r.AllocsPerOp != nil:
				fmt.Fprintf(&b, " %s (%d) |", fmtNs(r.NsPerOp), *r.AllocsPerOp)
			default:
				fmt.Fprintf(&b, " %s |", fmtNs(r.NsPerOp))
			}
		}
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// fmtNs renders a nanosecond quantity at a human scale.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.1fns", ns)
	}
}

func readReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

func sortedKeys(m map[string]Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runPkg(pkg, bench string, count int, into map[string]Result) error {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-count", strconv.Itoa(count), "-benchmem", pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		key := pkg + ":" + m[1]
		r, seen := into[key]
		if !seen || ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		if am := allocsField.FindStringSubmatch(m[3]); am != nil {
			if a, err := strconv.ParseUint(am[1], 10, 64); err == nil {
				if r.AllocsPerOp == nil || a < *r.AllocsPerOp {
					r.AllocsPerOp = &a
				}
			}
		}
		into[key] = r
	}
	return nil
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
		os.Exit(1)
	}
}
