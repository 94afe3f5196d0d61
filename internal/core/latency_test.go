package core

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
)

// runLatency executes one run under a session that asks for request
// latency with objectives spec, and returns the system and collector for
// checks.
func runLatency(t *testing.T, kind Kind, procs int, seed uint64, spec string) (*System, *reqtrace.Collector) {
	t.Helper()
	sess := newTestSession(t, &obs.Flags{Latency: "unused", SLO: spec, Flight: "off"}, "latency")
	sys := BuildSystem(SystemParams{Kind: kind, Processors: procs, Seed: seed})
	run := sess.Attach(sys, "run")
	if err := sess.Run(sys, RunSpec{Warmup: 4_000_000, Measure: 24_000_000}); err != nil {
		t.Fatal(err)
	}
	return sys, run.Latency
}

// TestLatencyReportDeterministic: the same seed must produce byte-identical
// latency/SLO report JSON — the histograms are fixed-precision and the
// report's slices are sorted, so there is no tolerance here.
func TestLatencyReportDeterministic(t *testing.T) {
	_, a := runLatency(t, ECperf, 4, 20030208, "p99<=40ms,err<=2%")
	_, b := runLatency(t, ECperf, 4, 20030208, "p99<=40ms,err<=2%")
	if !bytes.Equal(a.ReportJSON(), b.ReportJSON()) {
		t.Error("same seed produced different latency reports")
	}
}

// TestLatencyIsPassive: the span collector must observe the run, never
// perturb it. Engine results and bus counters must be bit-identical with
// the collector attached and absent — the collector only reads simulated
// time and never touches scheduling or RNG state.
func TestLatencyIsPassive(t *testing.T) {
	with, _ := runLatency(t, SPECjbb, 4, 20030208, "p99<=40ms")

	bare := BuildSystem(SystemParams{Kind: SPECjbb, Processors: 4, Seed: 20030208})
	ObserveRun(bare, nil, nil, 4_000_000, 24_000_000)

	if with.Hier.Bus().Stats != bare.Hier.Bus().Stats {
		t.Errorf("bus stats diverge with latency collector attached:\nwith    %+v\nwithout %+v",
			with.Hier.Bus().Stats, bare.Hier.Bus().Stats)
	}
	wr, br := with.Engine.Results(), bare.Engine.Results()
	if wr.BusinessOps != br.BusinessOps || wr.CPU != br.CPU || wr.GCCount != br.GCCount ||
		wr.GCWall != br.GCWall || wr.LockWaitCycles != br.LockWaitCycles ||
		wr.LockBlocks != br.LockBlocks || wr.Modes != br.Modes {
		t.Errorf("engine results diverge with latency collector attached:\nwith    %+v\nwithout %+v", wr, br)
	}
	for tag, n := range br.OpsByTag {
		if wr.OpsByTag[tag] != n {
			t.Errorf("ops[%s] = %d with collector, %d without", tag, wr.OpsByTag[tag], n)
		}
	}
}

// TestLatencyConservation: per-class histogram totals must equal the
// engine's completed-transaction counts exactly — every business operation
// that completes in the measurement window is recorded once, none invented.
func TestLatencyConservation(t *testing.T) {
	sys, rt := runLatency(t, ECperf, 4, 20030208, "")
	res := sys.Engine.Results()
	counts := rt.CountByClass()
	if len(counts) == 0 {
		t.Fatal("collector recorded no requests")
	}
	for class, n := range counts {
		if reqtrace.IsErrorClass(class) {
			continue // error classes are not business ops in OpsByTag
		}
		if res.OpsByTag[class] != n {
			t.Errorf("class %s: collector has %d requests, engine completed %d", class, n, res.OpsByTag[class])
		}
	}
	for tag, n := range res.OpsByTag {
		if counts[tag] != n {
			t.Errorf("tag %s: engine completed %d, collector has %d", tag, n, counts[tag])
		}
	}
}

// TestLatencyGCChargeback: every stop-the-world pause in the measurement
// window must land in the jvm.gc.pause histogram and be charged to the
// requests in flight when the machine froze.
func TestLatencyGCChargeback(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a multi-collection window")
	}
	// 15 processors allocate fast enough to force collections inside the
	// standard test window (same sizing as TestObserveRunGCSpans).
	sys, rt := runLatency(t, ECperf, 15, 20030208, "")
	res := sys.Engine.Results()
	if res.GCCount == 0 {
		t.Fatal("window produced no collections; lengthen it")
	}
	if got := rt.GCPause().Count(); got != res.GCCount {
		t.Errorf("gc pause histogram has %d pauses, engine counted %d collections", got, res.GCCount)
	}
	rep := rt.BuildReport()
	var charged uint64
	for _, c := range rep.Classes {
		charged += c.Phases.GCPause
	}
	if charged == 0 {
		t.Error("no GC pause cycles charged to any in-flight request class")
	}
}

// TestLatencySLOUnderDBLockStorm is the acceptance scenario: a db-lock-storm
// window in the middle of a seeded ECperf run must show p99 degradation and
// SLO burn in the affected intervals while clean intervals meet the
// objective.
func TestLatencySLOUnderDBLockStorm(t *testing.T) {
	o := FaultRunOpts{
		Processors:   2,
		Seed:         20030208,
		WarmupCycles: 4_000_000, MeasureCycles: 36_000_000,
		BinCycles: 4_000_000,
		Schedule: &fault.Schedule{Events: []fault.Event{
			// Absolute cycles 16M-26M = intervals 2-4 of the collector's 5M
			// bins (origin re-anchors to the warm-up boundary at 4M).
			{Kind: fault.DBLockStorm, At: 16_000_000, Duration: 10_000_000, Magnitude: 40},
		}},
	}
	sess := newTestSession(t, &obs.Flags{SLO: "p99<=20ms", Flight: "off"}, "storm")
	RunFaultExperiment(o, sess)
	rt := sess.Runs()[0].Latency

	rep := rt.BuildReport()
	if len(rep.SLO) != 1 {
		t.Fatalf("expected 1 SLO verdict, got %d", len(rep.SLO))
	}
	s := rep.SLO[0]
	if s.Violations == 0 || s.WorstBurn <= 1 {
		t.Fatalf("db-lock-storm did not burn the SLO: %+v", s)
	}
	if s.WorstInterval < 2 || s.WorstInterval > 5 {
		t.Errorf("worst burn in interval %d; expected it in or just after the storm (intervals 2-5)", s.WorstInterval)
	}
	for _, iv := range s.Intervals {
		if iv.Index < 2 && !iv.Met {
			t.Errorf("pre-storm interval %d violated the objective (burn %.2f)", iv.Index, iv.BurnRate)
		}
	}
	met := 0
	for _, iv := range s.Intervals {
		if iv.Met && iv.Requests > 0 {
			met++
		}
	}
	if met == 0 {
		t.Error("no clean interval met the objective; degradation is not localized")
	}

	// The degradation must be visible in the latency time series too: the
	// worst storm-interval p99 should clearly exceed the first interval's.
	p99 := func(idx int) uint64 {
		var worst uint64
		for _, iv := range rep.Intervals {
			if iv.Index != idx {
				continue
			}
			for _, c := range iv.Classes {
				if !reqtrace.IsErrorClass(c.Class) && c.P99 > worst {
					worst = c.P99
				}
			}
		}
		return worst
	}
	clean, stormed := p99(0), p99(s.WorstInterval)
	if stormed < 2*clean {
		t.Errorf("storm interval p99 %d cycles is not at least 2x the clean interval's %d", stormed, clean)
	}
}
