package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

func testFlightDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Cleanup(func() {
		if ents, _ := os.ReadDir(dir); len(ents) > 0 {
			t.Errorf("flight recorder dumped %d files during a default run", len(ents))
		}
	})
	return dir
}

// The workloads must reproduce the drivers' default invocations. The
// expected lines are the drivers' own stdout at the default seed
// (ecperfsim, jbbsim, cachesweep, and loadsim -sweep 0.5,1,3 -controls both
// at its default horizon), rendered here with the drivers' formats.
func TestMatchesDriverDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every driver default (~12 s)")
	}
	dir := testFlightDir(t)
	seconds := float64(measureCycles) / core.CyclesPerSecond

	t.Run("ecperf-8p", func(t *testing.T) {
		r := buildEngine(core.ECperf, ecperfOIR, defaultSeed, dir, "ecperfsim").(*engineRun)
		r.simulate()
		res := r.sys.Engine.Results()
		c, bs := res.CPU, r.sys.Hier.Bus().Stats
		in := float64(c.Instructions)
		got := []string{
			fmt.Sprintf("throughput        %10.0f BBops/min (%0.0f/s)", 60*float64(res.BusinessOps)/seconds, float64(res.BusinessOps)/seconds),
			fmt.Sprintf("CPI %.3f (other %.3f, i-stall %.3f, d-stall %.3f); %.0f instructions/BBop",
				float64(c.Total())/in, float64(c.BaseCycles)/in, float64(c.IStallCycles)/in, float64(c.DStall())/in, in/float64(res.BusinessOps)),
			fmt.Sprintf("bus: c2c ratio %.1f%% (%d transfers, %d from memory)", 100*bs.C2CRatio(), bs.C2CTransfers, bs.MemTransfers),
			fmt.Sprintf("gc: %d collections, %.1f%% of wall time", res.GCCount, 100*float64(res.GCWall)/float64(measureCycles)),
		}
		wantLines(t, got, `throughput           1159500 BBops/min (19325/s)
CPI 1.638 (other 1.000, i-stall 0.496, d-stall 0.142); 44949 instructions/BBop
bus: c2c ratio 34.9% (428902 transfers, 798556 from memory)
gc: 1 collections, 4.2% of wall time`)
	})

	t.Run("jbb-8p", func(t *testing.T) {
		r := buildEngine(core.SPECjbb, jbbWarehouses, defaultSeed, dir, "jbbsim").(*engineRun)
		r.simulate()
		res := r.sys.Engine.Results()
		c, bs := res.CPU, r.sys.Hier.Bus().Stats
		in := float64(c.Instructions)
		got := []string{
			fmt.Sprintf("throughput        %10.0f transactions/s", float64(res.BusinessOps)/seconds),
			fmt.Sprintf("CPI %.3f (other %.3f, i-stall %.3f, d-stall %.3f)",
				float64(c.Total())/in, float64(c.BaseCycles)/in, float64(c.IStallCycles)/in, float64(c.DStall())/in),
			fmt.Sprintf("bus: GetS %d  GetM %d  upgrades %d  c2c %d (ratio %.1f%%)  memory %d  writebacks %d",
				bs.GetS, bs.GetM, bs.Upgrades, bs.C2CTransfers, 100*bs.C2CRatio(), bs.MemTransfers, bs.Writebacks),
		}
		wantLines(t, got, `throughput             55915 transactions/s
CPI 1.248 (other 1.000, i-stall 0.171, d-stall 0.077)
bus: GetS 229691  GetM 175783  upgrades 85046  c2c 125102 (ratio 30.9%)  memory 280372  writebacks 147073`)
	})

	t.Run("cachesweep", func(t *testing.T) {
		r := newSweepRun(defaultSeed, core.DefaultSweepOpts())
		r.simulate()
		var got []string
		for i := range r.cs.Results[0].ICurve {
			line := fmt.Sprintf("%8dKB", r.cs.Results[0].ICurve[i].SizeBytes/1024)
			for _, res := range r.cs.Results {
				line += fmt.Sprintf(" | %12.3f %12.3f", res.ICurve[i].MissesPer1000, res.DCurve[i].MissesPer1000)
			}
			got = append(got, line)
		}
		wantLines(t, got, `      64KB |       16.680        5.798 |        2.643        3.480 |        2.658        3.135 |        2.616        2.454
     128KB |        7.454        4.906 |        0.770        3.413 |        0.778        3.003 |        0.749        1.699
     256KB |        4.274        2.966 |        0.029        3.293 |        0.022        2.794 |        0.081        0.998
     512KB |        1.387        1.351 |        0.008        3.120 |        0.006        2.420 |        0.077        0.662
    1024KB |        0.630        1.068 |        0.006        2.818 |        0.006        1.791 |        0.077        0.605
    2048KB |        0.541        1.015 |        0.006        2.288 |        0.006        1.125 |        0.077        0.605
    4096KB |        0.541        0.929 |        0.006        1.587 |        0.006        0.731 |        0.077        0.605
    8192KB |        0.541        0.625 |        0.006        1.007 |        0.006        0.617 |        0.077        0.605
   16384KB |        0.541        0.568 |        0.006        0.527 |        0.006        0.612 |        0.077        0.605`)
	})

	t.Run("loadsim", func(t *testing.T) {
		const horizon = 250_000_000 // loadsim's default
		r := newLoadRun(defaultSeed, dir, horizon)
		r.simulate()
		crit := ""
		for _, m := range cluster.DefaultMix() {
			if m.Priority == 0 {
				crit = m.Name
				break
			}
		}
		const cyclesPerMS = core.CyclesPerSecond / 1000
		var got []string
		for _, c := range r.cells {
			st := c.sim.Stats
			var p50, p99 float64
			for _, cl := range c.coll.BuildReport().Classes {
				if cl.Class == crit && cl.Latency.Count > 0 {
					p50, p99 = float64(cl.Latency.P50)/cyclesPerMS, float64(cl.Latency.P99)/cyclesPerMS
				}
			}
			mode := "on"
			if !c.controls {
				mode = "off"
			}
			shedPct := 100 * float64(st.Shed) / float64(st.Offered)
			got = append(got, fmt.Sprintf("%7.2f %8s %9d %9d %8d %7d %7d %9.0f/s %6.1f%% %9.2f %9.2f",
				c.mult, mode, st.Offered, st.Completed, st.Shed, st.Failed, st.Late,
				float64(st.Good())*core.CyclesPerSecond/horizon, shedPct, p50, p99))
		}
		wantLines(t, got, `   0.50       on     11909     11909        0       0       0     11909/s    0.0%      2.23      3.08
   1.00       on     23798     23798        0       0       0     23798/s    0.0%      3.60      7.34
   3.00       on     71601     21944    49657       0       0     21944/s   69.4%     14.16     15.99
   0.50      off     11909     11909        0       0       0     11909/s    0.0%      2.23      3.08
   1.00      off     23798     23798        0       0       0     23798/s    0.0%      3.60      7.34
   3.00      off     71601     71601        0       0   70752       849/s    0.0%   1006.63   2013.27`)
	})
}

func wantLines(t *testing.T, got []string, want string) {
	t.Helper()
	if g := strings.Join(got, "\n"); g != want {
		t.Errorf("workload output differs from the driver's:\ngot:\n%s\nwant:\n%s", g, want)
	}
}

// A run whose simulated counters differ from the first run's fails, and a
// run that breaks an output invariant fails even on its own.
func TestOutputCheckFires(t *testing.T) {
	dir := testFlightDir(t)
	reduced := func(perturb func(*loadRun)) outcome {
		r := newLoadRun(defaultSeed, dir, 25_000_000)
		r.simulate()
		if perturb != nil {
			perturb(r)
		}
		return r.reduce()
	}

	b := bench{}
	if err := b.check(reduced(nil)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := b.check(reduced(nil)); err != nil {
		t.Fatalf("identical rerun rejected: %v", err)
	}
	// One more request served, one fewer shed: conservation still holds,
	// so only the fingerprint comparison can catch it.
	moved := reduced(func(r *loadRun) {
		st := &r.cells[2].sim.Stats
		st.Shed--
		st.Completed++
	})
	if len(moved.problems) != 0 {
		t.Fatalf("conservation should hold after the move: %v", moved.problems)
	}
	if err := b.check(moved); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("perturbed counter passed the fingerprint check: %v", err)
	}
	// One phantom request offered: the run fails its own invariant.
	lost := reduced(func(r *loadRun) { r.cells[0].sim.Stats.Offered++ })
	if err := (&bench{}).check(lost); err == nil || !strings.Contains(err.Error(), "not conserved") {
		t.Errorf("unconserved requests passed the output check: %v", err)
	}
}
