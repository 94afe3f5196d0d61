package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// newTestSession opens a session over f that discards its stderr lines,
// and closes it when the test ends.
func newTestSession(t *testing.T, f *obs.Flags, command string) *Session {
	t.Helper()
	sess, err := NewSession(command, f, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// TestSessionObservePoints checks the observed-point path the sweep drivers
// share: one run per workload, each with its own flight recorder and a
// measurement-window metrics delta, written as labelled sections of one
// metrics artifact with a manifest beside it.
func TestSessionObservePoints(t *testing.T) {
	dir := t.TempDir()
	f := &obs.Flags{Metrics: filepath.Join(dir, "m.txt"), Flight: dir}
	var stderr bytes.Buffer
	sess, err := NewSession("sess", f, nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.ObservePoints(2, 7, Opts{WarmupCycles: 1_000_000, MeasureCycles: 2_000_000})
	if err := sess.Finish(obs.Manifest{Args: []string{"-metrics", f.Metrics}}); err != nil {
		t.Fatal(err)
	}

	runs := sess.Runs()
	if len(runs) != 2 || runs[0].Label != "SPECjbb" || runs[1].Label != "ECperf" {
		t.Fatalf("want SPECjbb then ECperf runs, got %d", len(runs))
	}
	if runs[0].Flight == nil || runs[0].Flight == runs[1].Flight {
		t.Fatal("each observed point needs its own flight recorder")
	}
	for _, r := range runs {
		if r.Snap == nil {
			t.Fatalf("%s: no metrics delta kept", r.Label)
		}
		if got, want := r.Snap.Counter("workload.ops"), r.sys.Engine.Results().BusinessOps; got != want {
			t.Errorf("%s: metrics delta has %d ops, the window measured %d", r.Label, got, want)
		}
		if !strings.Contains(stderr.String(), "observed run: "+r.Label) {
			t.Errorf("%s: no progress line on stderr:\n%s", r.Label, stderr.String())
		}
	}
	buf, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte("== SPECjbb ==")) || !bytes.Contains(buf, []byte("== ECperf ==")) {
		t.Errorf("metrics artifact lacks a workload section:\n%s", buf)
	}
	if _, err := os.Stat(f.Metrics + ".manifest.json"); err != nil {
		t.Errorf("no manifest beside the metrics artifact: %v", err)
	}
}

// TestSessionUnobserved checks a session with no artifact flags and the
// flight recorder off attaches nothing and runs no observed points.
func TestSessionUnobserved(t *testing.T) {
	sess := newTestSession(t, &obs.Flags{Flight: "off"}, "quiet")
	sess.ObservePoints(2, 7, Opts{WarmupCycles: 1_000_000, MeasureCycles: 2_000_000})
	sys := BuildSystem(SystemParams{Kind: SPECjbb, Processors: 2, Seed: 7})
	run := sess.Attach(sys, "SPECjbb")
	if run.Obs != nil || run.Flight != nil || run.Latency != nil {
		t.Fatalf("unrequested observability attached: %+v", run)
	}
	if err := sess.Run(sys, RunSpec{Warmup: 1_000_000, Measure: 2_000_000}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Finish(obs.Manifest{}); err != nil {
		t.Fatal(err)
	}
	if n := len(sess.Runs()); n != 1 {
		t.Fatalf("ObservePoints ran without artifact flags: %d runs", n)
	}
}

// TestResumeRejectsMisfit checks Run refuses a checkpoint that cannot lie on
// its run: a different warm-up, or a cycle past the run's end.
func TestResumeRejectsMisfit(t *testing.T) {
	cp := Checkpoint{Version: CheckpointVersion, Params: ckptParams(), Warmup: 2_000_000, Cycle: 6_000_000}
	for _, spec := range []RunSpec{
		{Warmup: 4_000_000, Measure: 8_000_000, Resume: &cp},
		{Warmup: 2_000_000, Measure: 2_000_000, Resume: &cp},
	} {
		if _, err := Run(BuildSystem(cp.Params), spec); err == nil {
			t.Errorf("resume accepted checkpoint (warm-up %d, cycle %d) for run %+v", cp.Warmup, cp.Cycle, spec)
		}
	}
}
