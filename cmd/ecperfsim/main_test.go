package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, the memory-model
// switch, and the driver's own flags must all be registered.
func TestFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("ecperfsim", flag.ContinueOnError)
	registerFlags(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	want = append(want, "memmodel", "p", "oir", "seed", "warmup", "measure",
		"faults", "fault-bin", "fault-report",
		"watchdog", "checkpoint", "checkpoint-every", "resume")
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// runProgram drives the whole program in-process and returns its stdout,
// stderr, and exit code.
func runProgram(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// TestGolden pins stdout of a short run and of the fault demo to the
// committed goldens. Regenerate a golden only for an intended output
// change, e.g.
//
//	go run ./cmd/ecperfsim -p 2 -warmup 2000000 -measure 12000000 > cmd/ecperfsim/testdata/p2.golden
func TestGolden(t *testing.T) {
	window := []string{"-p", "2", "-warmup", "2000000", "-measure", "12000000"}
	cases := []struct {
		name, golden string
		extra        []string
	}{
		{"p2", "testdata/p2.golden", nil},
		{"faults-demo", "testdata/p2_faults_demo.golden", []string{"-faults", "demo", "-fault-bin", "2000000"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			args := append(append(append([]string{}, window...), c.extra...), "-flight", t.TempDir())
			got, stderr, code := runProgram(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if got != string(want) {
				t.Fatalf("stdout differs from %s:\n%s", c.golden, got)
			}
		})
	}
}

// TestResumeKeepsArtifacts is the resume contract for artifacts: a run
// resumed from a checkpoint on the slice grid writes -metrics, -profile and
// -latency files byte-identical to the uninterrupted run's, and the same
// stdout.
func TestResumeKeepsArtifacts(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	common := []string{"-p", "2", "-warmup", "2000000", "-flight", "off"}
	// The checkpoint lands at cycle 6M: warm-up plus two 2M slices.
	if _, stderr, code := runProgram(t, append(common, "-measure", "4000000", "-checkpoint", ckpt)...); code != 0 {
		t.Fatalf("checkpointed run exited %d: %s", code, stderr)
	}

	artifacts := []string{"metrics", "profile", "latency"}
	runWith := func(name string, extra ...string) (string, map[string][]byte) {
		args := append(append([]string{}, common...), "-measure", "8000000")
		for _, a := range artifacts {
			args = append(args, "-"+a, filepath.Join(dir, name+"."+a))
		}
		stdout, stderr, code := runProgram(t, append(args, extra...)...)
		if code != 0 {
			t.Fatalf("%s run exited %d: %s", name, code, stderr)
		}
		files := map[string][]byte{}
		for _, a := range artifacts {
			buf, err := os.ReadFile(filepath.Join(dir, name+"."+a))
			if err != nil {
				t.Fatal(err)
			}
			files[a] = buf
		}
		return stdout, files
	}
	fullOut, full := runWith("full")
	resumedOut, resumed := runWith("resumed", "-resume", ckpt)

	if resumedOut != fullOut {
		t.Errorf("resumed stdout differs:\n%s\nwant:\n%s", resumedOut, fullOut)
	}
	for _, a := range artifacts {
		if len(full[a]) == 0 || bytes.Count(full[a], []byte("\n")) < 3 {
			t.Fatalf("uninterrupted -%s artifact is nearly empty:\n%s", a, full[a])
		}
		if !bytes.Equal(resumed[a], full[a]) {
			t.Errorf("resumed -%s artifact differs from the uninterrupted run's (%d vs %d bytes)", a, len(resumed[a]), len(full[a]))
		}
	}
}
