package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins stdout of a short size sweep to the committed golden.
// Regenerate it only for an intended output change:
//
//	go run ./cmd/cachesweep -ops 30 -warm 120 > cmd/cachesweep/testdata/ops30_warm120.golden
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/ops30_warm120.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-ops", "30", "-warm", "120"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if out.String() != string(want) {
		t.Fatalf("stdout differs from the golden:\n%s", out.String())
	}
}

// TestSessionArtifacts checks the sweep's per-configuration observers reach
// the artifacts: one metrics section per workload configuration, each with
// its instruction count, plus a manifest beside the file.
func TestSessionArtifacts(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.txt")
	var out, errw bytes.Buffer
	if code := run([]string{"-ops", "10", "-warm", "10", "-metrics", metrics}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	buf, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"ECperf", "SPECjbb-25", "SPECjbb-10", "SPECjbb-1"} {
		if !strings.Contains(string(buf), "== "+label+" ==") {
			t.Errorf("metrics lack the %s section:\n%s", label, buf)
		}
	}
	if n := strings.Count(string(buf), "sweep.instructions"); n != 4 {
		t.Errorf("want 4 sweep.instructions counters, got %d", n)
	}
	if _, err := os.Stat(metrics + ".manifest.json"); err != nil {
		t.Errorf("no manifest beside the metrics: %v", err)
	}
}
