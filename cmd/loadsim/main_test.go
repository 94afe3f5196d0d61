package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
)

func parseArgs(t *testing.T, args ...string) *appFlags {
	t.Helper()
	fs := flag.NewFlagSet("loadsim", flag.ContinueOnError)
	af := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return af
}

// TestFlagParity fails when this driver drifts from the shared flag surface:
// every standard observability flag, the host-profile pair, and the driver's
// own flags must all be registered.
func TestFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("loadsim", flag.ContinueOnError)
	registerFlags(fs)
	want := append(obs.StandardFlagNames(), obs.HostProfileFlagNames()...)
	want = append(want, "nodes", "workers", "shards", "queue-cap", "clients",
		"lb", "arrival", "sweep", "controls", "faults", "report",
		"offered", "deadline-ms", "think-ms", "seed", "horizon")
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestParseSweep(t *testing.T) {
	mults, err := parseSweep("0.3, 1,3", 1)
	if err != nil || len(mults) != 3 || mults[0] != 0.3 || mults[2] != 3 {
		t.Fatalf("parseSweep = %v, %v", mults, err)
	}
	if mults, err = parseSweep("", 2.5); err != nil || len(mults) != 1 || mults[0] != 2.5 {
		t.Fatalf("empty sweep did not fall back to -offered: %v, %v", mults, err)
	}
	for _, bad := range []string{"0.3,x", "0", "-1,2"} {
		if _, err := parseSweep(bad, 1); err == nil {
			t.Errorf("sweep %q accepted", bad)
		}
	}
}

// TestRejectsBadFloatFlags: a float flag that is NaN, infinite, not
// positive or out of the cycle clock's range fails with exit 1 before
// anything reaches stdout.
func TestRejectsBadFloatFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-deadline-ms", "NaN"},
		{"-deadline-ms", "-5"},
		{"-deadline-ms", "+Inf"},
		{"-deadline-ms", "1e300"},
		{"-deadline-ms", "1e-9"},
		{"-arrival", "off", "-think-ms", "NaN"},
		{"-arrival", "off", "-think-ms", "Inf"},
		{"-arrival", "off", "-think-ms", "0"},
		{"-sweep", "nan"},
		{"-sweep", "0.5,+Inf"},
		{"-offered", "+Inf"},
		{"-offered", "NaN"},
	} {
		var out, errw bytes.Buffer
		code := run(append(args, "-flight", "off", "-horizon", "1000000"), &out, &errw)
		if code != 1 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 1 and no stdout (stderr %q)", args, code, out.String(), errw.String())
		}
	}
}

func TestLoadFaultsBuiltins(t *testing.T) {
	if s, err := loadFaults("", 100); s != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", s, err)
	}
	s, err := loadFaults("demo", 250_000_000)
	if err != nil || len(s.Events) == 0 {
		t.Fatalf("demo: %v, %v", s, err)
	}
	s, err = loadFaults("crash", 250_000_000)
	if err != nil || len(s.Events) != 1 || s.Events[0].Peer != cluster.NodePeer(0) {
		t.Fatalf("crash: %+v, %v", s, err)
	}
}

func plainColl() (*reqtrace.Collector, error) {
	return reqtrace.NewCollector(reqtrace.Options{}), nil
}

// TestSweepDeterministic: the full sweep — table bytes, figure, and notes —
// is a pure function of the seed, including under a fault schedule.
func TestSweepDeterministic(t *testing.T) {
	af := parseArgs(t)
	cfg, err := buildConfig(af)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 40_000_000
	sched, err := loadFaults("crash", horizon)
	if err != nil {
		t.Fatal(err)
	}
	mults := []float64{0.5, 3}
	run := func() (string, []string) {
		var buf bytes.Buffer
		pts, err := runSweep(&buf, cfg, mults, []bool{true, false}, 7, horizon, sched, plainColl, live{})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), buildFigure(pts, mults).Notes
	}
	tab1, notes1 := run()
	tab2, notes2 := run()
	if tab1 != tab2 {
		t.Fatalf("sweep table not deterministic:\n%s\nvs\n%s", tab1, tab2)
	}
	if strings.Join(notes1, "\n") != strings.Join(notes2, "\n") {
		t.Fatalf("figure notes not deterministic: %v vs %v", notes1, notes2)
	}
	if len(notes1) == 0 {
		t.Fatal("sweep produced no headline notes")
	}
}

// TestArrivalOffPassivity: with -arrival off the driver runs the plain
// closed-loop cluster model — its stats are bit-identical to a directly
// built closed-loop sim, and the -offered multiplier has no effect. The
// open-arrival machinery must be completely inert.
func TestArrivalOffPassivity(t *testing.T) {
	af := parseArgs(t, "-arrival", "off")
	cfg, err := buildConfig(af)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClosedClients != *af.clients {
		t.Fatalf("closed-loop population %d, want %d", cfg.ClosedClients, *af.clients)
	}
	const horizon = 100_000_000
	p1, err := runPoint(cfg, 1, true, 11, horizon, nil, plainColl, live{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := runPoint(cfg, 3, true, 11, horizon, nil, plainColl, live{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.stats != p3.stats {
		t.Fatalf("-offered leaked into a closed-loop run:\n%+v\n%+v", p1.stats, p3.stats)
	}

	// Ground truth: the seed closed-loop model, built without the driver.
	direct := cluster.DefaultOpenConfig()
	direct.ClosedClients = cfg.ClosedClients
	direct.ThinkCycles = cfg.ThinkCycles
	s, err := cluster.NewOpen(direct, 11)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(horizon)
	if p1.stats != s.Stats {
		t.Fatalf("driver closed-loop run diverged from the direct model:\n%+v\n%+v", p1.stats, s.Stats)
	}
}

// TestBuildConfigFlash: the flash pattern gets its spike anchored inside
// the horizon.
func TestBuildConfigFlash(t *testing.T) {
	af := parseArgs(t, "-arrival", "flash")
	cfg, err := buildConfig(af)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arrival.FlashAt == 0 || cfg.Arrival.FlashAt >= *af.horizon {
		t.Fatalf("flash spike at %d outside horizon %d", cfg.Arrival.FlashAt, *af.horizon)
	}
}

// TestGolden pins stdout of the default sweep with and without controls,
// of the flash-crowd-plus-crash scenario with its latency JSON on stdout,
// and of the closed-loop population under the fault demo. Regenerate a
// golden only for an intended output change, e.g.
//
//	go run ./cmd/loadsim -sweep 0.5,1,3 -controls both > cmd/loadsim/testdata/sweep_both.golden
func TestGolden(t *testing.T) {
	cases := []struct {
		name, golden string
		args         []string
	}{
		{"sweep-both", "testdata/sweep_both.golden",
			[]string{"-sweep", "0.5,1,3", "-controls", "both"}},
		{"flash-crash-latency", "testdata/flash_crash_latency.golden",
			[]string{"-arrival", "flash", "-faults", "crash", "-horizon", "100000000",
				"-slo", "p99<=25ms", "-latency", "-"}},
		{"closed-faults-demo", "testdata/closed_faults_demo.golden",
			[]string{"-arrival", "off", "-clients", "16", "-faults", "demo"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			var out, errw bytes.Buffer
			args := append(append([]string{}, c.args...), "-flight", t.TempDir())
			if code := run(args, &out, &errw); code != 0 {
				t.Fatalf("exit %d: %s", code, errw.String())
			}
			if out.String() != string(want) {
				t.Fatalf("stdout differs from %s:\n%s", c.golden, out.String())
			}
		})
	}
}
