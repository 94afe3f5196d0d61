package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/obs"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("jbbsim", flag.ContinueOnError)
	registerFlags(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	want = append(want, "memmodel", "p", "w", "seed", "warmup", "measure",
		"watchdog", "checkpoint", "checkpoint-every", "resume")
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// TestGolden pins stdout of a short run to the committed golden.
// Regenerate it only for an intended output change:
//
//	go run ./cmd/jbbsim -p 2 -warmup 2000000 -measure 12000000 > cmd/jbbsim/testdata/p2.golden
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/p2.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	code := run([]string{"-p", "2", "-warmup", "2000000", "-measure", "12000000", "-flight", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if out.String() != string(want) {
		t.Fatalf("stdout differs from testdata/p2.golden:\n%s", out.String())
	}
}
