package core

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// flightFlags builds the default-on flag surface pointed at dir, the way a
// driver's -flight DIR invocation would.
func flightFlags(dir string) *obs.Flags {
	return &obs.Flags{Flight: dir, FlightEvents: 4096, FlightWindow: 30_000_000}
}

// TestFlightPassivity is the tentpole contract: a run with the always-on
// flight recorder attached produces bit-identical engine and bus results to
// a bare run at the same seed. The recorder only reads simulated state.
func TestFlightPassivity(t *testing.T) {
	params := SystemParams{Kind: ECperf, Processors: 2, Seed: 20030208}
	const warmup, measure = 2_000_000, 10_000_000

	bare := BuildSystem(params)
	ObserveRun(bare, nil, nil, warmup, measure)

	recorded := BuildSystem(params)
	sess := newTestSession(t, flightFlags(t.TempDir()), "passivity")
	run := sess.Attach(recorded, "ECperf")
	rec := run.Flight
	if run.Obs == nil || rec == nil {
		t.Fatal("default flags must enable the recorder")
	}
	if err := sess.Run(recorded, RunSpec{Warmup: warmup, Measure: measure}); err != nil {
		t.Fatal(err)
	}

	a, b := bare.Engine.Results(), recorded.Engine.Results()
	if a.BusinessOps != b.BusinessOps {
		t.Fatalf("BusinessOps differ: %d vs %d", a.BusinessOps, b.BusinessOps)
	}
	if !reflect.DeepEqual(a.OpsByTag, b.OpsByTag) {
		t.Fatalf("OpsByTag differ: %v vs %v", a.OpsByTag, b.OpsByTag)
	}
	if a.Modes != b.Modes {
		t.Fatalf("mode accounting differs: %+v vs %+v", a.Modes, b.Modes)
	}
	if a.CPU != b.CPU {
		t.Fatalf("CPI accounting differs: %+v vs %+v", a.CPU, b.CPU)
	}
	if a.GCCount != b.GCCount || a.GCWall != b.GCWall {
		t.Fatalf("GC accounting differs: %d/%d vs %d/%d", a.GCCount, a.GCWall, b.GCCount, b.GCWall)
	}
	if ab, bb := bare.Hier.Bus().Stats, recorded.Hier.Bus().Stats; ab != bb {
		t.Fatalf("bus stats differ: %+v vs %+v", ab, bb)
	}

	// No trigger fired, so the black box stayed silent on disk.
	if len(rec.Dumps()) != 0 {
		t.Fatalf("unexpected dumps on a healthy run: %+v", rec.Dumps())
	}
	// The ring saw traffic, bounded, and its accounting is published as
	// metrics alongside the tracer's dropped counter.
	if rec.Ring().Total() == 0 {
		t.Fatal("flight ring recorded no events")
	}
	names := run.Obs.Registry.Names()
	for _, want := range []string{"trace.dropped", "trace.ring_evicted"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("metric %q not registered (have %v)", want, names)
		}
	}
}

// stormOpts is the db-lock-storm scenario from EXPERIMENTS.md / CI at test
// size: the storm window sits inside the measurement interval.
func stormOpts() FaultRunOpts {
	return FaultRunOpts{
		Processors:   2,
		Seed:         20030208,
		WarmupCycles: 4_000_000, MeasureCycles: 24_000_000,
		BinCycles: 2_000_000,
		Schedule: &fault.Schedule{Events: []fault.Event{
			{Kind: fault.DBLockStorm, At: 12_000_000, Duration: 8_000_000, Magnitude: 30},
		}},
	}
}

// runStorm runs the storm experiment with a flight-recording session
// dumping into dir, and returns the faulted run's recorder.
func runStorm(t *testing.T, o FaultRunOpts, dir string) *flightrec.Recorder {
	t.Helper()
	sess := newTestSession(t, flightFlags(dir), "storm")
	RunFaultExperiment(o, sess)
	runs := sess.Runs()
	if len(runs) != 1 || runs[0].Label != "ECperf-faulted" {
		t.Fatalf("want the faulted run attached alone, got %d runs", len(runs))
	}
	return runs[0].Flight
}

// TestDBLockStormDump is the acceptance scenario: a db-lock-storm run
// produces a triggered dump whose trace window contains the storm interval.
func TestDBLockStormDump(t *testing.T) {
	o := stormOpts()
	rec := runStorm(t, o, t.TempDir())

	dumps := rec.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("want exactly 1 dump (window entry), got %+v", dumps)
	}
	d := dumps[0]
	if d.Trigger != "fault-db-lock-storm" {
		t.Fatalf("trigger %q, want fault-db-lock-storm", d.Trigger)
	}
	storm := o.Schedule.Events[0]
	if d.Cycle < storm.At {
		t.Fatalf("dump at cycle %d, before the storm window opens at %d", d.Cycle, storm.At)
	}

	buf, err := os.ReadFile(d.Path)
	if err != nil {
		t.Fatalf("reading bundle: %v", err)
	}
	var b struct {
		Trigger     string          `json:"trigger"`
		Cycle       uint64          `json:"cycle"`
		WindowStart uint64          `json:"window_start_cycle"`
		Trace       json.RawMessage `json:"trace"`
		Metrics     string          `json:"metrics"`
		Ring        struct {
			Events int `json:"events"`
			Cap    int `json:"cap"`
		} `json:"ring"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatalf("bundle is not JSON: %v", err)
	}
	// The trace window must contain the storm's start.
	if b.WindowStart > storm.At || b.Cycle < storm.At {
		t.Fatalf("trace window [%d, %d] does not contain storm start %d", b.WindowStart, b.Cycle, storm.At)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Trace, &events); err != nil {
		t.Fatalf("bundle trace is not a Chrome event array: %v", err)
	}
	foundWindow := false
	for _, e := range events {
		if e["name"] == "fault.window" {
			if args, _ := e["args"].(map[string]any); args["kind"] == "db-lock-storm" {
				foundWindow = true
			}
		}
	}
	if !foundWindow {
		t.Fatal("dump trace has no db-lock-storm fault.window span")
	}
	if !strings.Contains(b.Metrics, "fault.") {
		t.Fatal("dump metrics snapshot carries no fault.* counters")
	}
	if b.Ring.Events > b.Ring.Cap {
		t.Fatalf("ring over its cap: %d > %d", b.Ring.Events, b.Ring.Cap)
	}
}

// TestFlightDumpDeterminism checks the same seed and schedule produce a
// byte-identical dump bundle across runs.
func TestFlightDumpDeterminism(t *testing.T) {
	read := func() []byte {
		o := stormOpts()
		o.MeasureCycles = 16_000_000
		o.Schedule.Events[0].Duration = 4_000_000
		rec := runStorm(t, o, t.TempDir())
		dumps := rec.Dumps()
		if len(dumps) != 1 {
			t.Fatalf("want 1 dump, got %+v", dumps)
		}
		buf, err := os.ReadFile(dumps[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := read(), read()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed + schedule produced different dump bytes")
	}
}
