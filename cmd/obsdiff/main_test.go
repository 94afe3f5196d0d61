package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obsdiff"
)

const (
	benchBase      = "../../internal/obsdiff/testdata/bench_base.json"
	benchRegressed = "../../internal/obsdiff/testdata/bench_regressed.json"
)

// runProgram drives the whole program in-process.
func runProgram(args ...string) (stdout, stderr string, code int) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {benchBase}, {benchBase, benchBase, benchBase}, {"-bogus", benchBase, benchBase}} {
		out, errw, code := runProgram(args...)
		if code != 2 || out != "" || !strings.Contains(errw, "usage: obsdiff") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and usage on stderr", args, code, out, errw)
		}
	}
	if _, errw, code := runProgram(benchBase, "no-such-file.json"); code != 1 || !strings.Contains(errw, "obsdiff:") {
		t.Errorf("missing artifact: exit %d, stderr %q; want exit 1", code, errw)
	}
}

// TestBenchPairRanksRegressionFirst: on the committed bench pair the
// injected BenchmarkFig08C2CRatio regression leads the JSON report, and
// -fail turns the surviving deltas into exit 1.
func TestBenchPairRanksRegressionFirst(t *testing.T) {
	out, errw, code := runProgram("-json", benchBase, benchRegressed)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	var rep obsdiff.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Deltas) == 0 || !strings.Contains(rep.Deltas[0].Key, "BenchmarkFig08C2CRatio") {
		t.Fatalf("top delta is not the injected regression: %+v", rep.Deltas)
	}
	if _, _, code := runProgram("-fail", benchBase, benchRegressed); code != 1 {
		t.Errorf("-fail with significant deltas: exit %d, want 1", code)
	}
	if _, _, code := runProgram("-fail", benchBase, benchBase); code != 0 {
		t.Errorf("-fail on identical artifacts: exit %d, want 0", code)
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "triage.md")
	out, errw, code := runProgram("-o", path, benchBase, benchRegressed)
	if code != 0 || out != "" || !strings.Contains(errw, "wrote "+path) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errw)
	}
	md, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(md), "# Run triage") || !strings.Contains(string(md), "| 1 | `repro/internal/core:BenchmarkFig08C2CRatio") {
		t.Fatalf("report file does not lead with the regression:\n%s", md)
	}
}

// TestMetricsHistogramDelta: two -metrics texts rendered by the registry,
// whose jvm.gc.pause_cycles HDR lines differ in the tail, rank the p99 as
// the largest delta.
func TestMetricsHistogramDelta(t *testing.T) {
	dir := t.TempDir()
	render := func(name string, tail uint64) string {
		var h obs.HDR
		for v := uint64(1); v <= 100; v++ {
			if v > 98 {
				h.Record(tail)
			} else {
				h.Record(1000 * v)
			}
		}
		gcs := uint64(100)
		r := obs.NewRegistry()
		r.Counter("jvm.gc.count", func() uint64 { return gcs })
		r.Histogram("jvm.gc.pause_cycles", func() *obs.HDR { return &h })
		var buf bytes.Buffer
		if _, err := r.Snapshot().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := render("a.metrics", 100_000), render("b.metrics", 5_000_000)
	out, errw, code := runProgram("-json", a, b)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	var rep obsdiff.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "metrics" || len(rep.Deltas) == 0 || rep.Deltas[0].Key != "jvm.gc.pause_cycles.p99" {
		t.Fatalf("want the pause p99 ranked first in a metrics diff, got kind %q deltas %+v", rep.Kind, rep.Deltas)
	}
	for _, d := range rep.Deltas {
		if d.Key == "jvm.gc.count" || d.Key == "jvm.gc.pause_cycles.p50" {
			t.Errorf("unchanged metric ranked: %+v", d)
		}
	}
}
