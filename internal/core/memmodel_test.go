package core

import (
	"testing"

	"repro/internal/memsys"
)

// TestMemModelFixedPassivity pins the fixed-model fingerprint of a quick
// 4-processor run of each workload to the value measured before the loaded-
// latency model landed. `-memmodel fixed` (the default) must remain
// bit-identical to the pre-model simulator: if this test fails, the fixed
// path picked up a behavioral change, and perfcheck/checkpoint baselines are
// invalidated.
func TestMemModelFixedPassivity(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20M-cycle runs")
	}
	want := map[Kind]uint64{
		SPECjbb: 0xf645a5de5ad80ebf,
		ECperf:  0x8028c5f66a2e8d7,
	}
	for kind, fp := range want {
		sys := BuildSystem(SystemParams{Kind: kind, Processors: 4, Seed: 20030208})
		sys.Engine.Run(4_000_000)
		sys.Engine.ResetStats()
		sys.Engine.Run(4_000_000 + 16_000_000)
		if got := Fingerprint(sys); got != fp {
			t.Errorf("%s fixed-model fingerprint = %#x, want %#x (fixed mode must stay bit-identical)", kind, got, fp)
		}
	}
}

// TestMemModelLoadedDeterministic: the loaded model is still a deterministic
// simulation — two identically-configured runs fingerprint identically.
func TestMemModelLoadedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20M-cycle runs")
	}
	o := QuickOpts()
	o.MemModel = memsys.MemLoaded
	run := func() uint64 {
		_, sys := runScalingPoint(ECperf, 8, o.Seeds[0], o, false)
		return Fingerprint(sys)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loaded-model fingerprints differ: %#x vs %#x", a, b)
	}
}

// TestMemModelLoadedMovesTowardPaper: at high processor counts the loaded
// model must raise ECperf's CPI (Figure 6's growth) and its cache-to-cache
// ratio (Figure 8) relative to the fixed model — the two documented gaps the
// model exists to close.
func TestMemModelLoadedMovesTowardPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20M-cycle runs")
	}
	o := QuickOpts()
	fixed := RunScalingPoint(ECperf, 15, o.Seeds[0], o)
	o.MemModel = memsys.MemLoaded
	loaded := RunScalingPoint(ECperf, 15, o.Seeds[0], o)
	if loaded.CPI <= fixed.CPI {
		t.Errorf("loaded CPI %.3f not above fixed %.3f at 15 processors", loaded.CPI, fixed.CPI)
	}
	if loaded.C2CRatio <= fixed.C2CRatio {
		t.Errorf("loaded C2C ratio %.3f not above fixed %.3f at 15 processors", loaded.C2CRatio, fixed.C2CRatio)
	}
	if loaded.C2CRatio <= 0.45 {
		t.Errorf("loaded C2C ratio %.1f%% did not exceed 45%%", 100*loaded.C2CRatio)
	}
}

// TestMemModelCurveOverride: SystemParams.MemCurve reaches the hierarchy.
func TestMemModelCurveOverride(t *testing.T) {
	flat := &memsys.LoadedConfig{
		MemCurve:              []memsys.CurveKnot{{Util: 0, Mult: 1}},
		C2CCurve:              []memsys.CurveKnot{{Util: 0, Mult: 1}},
		InterventionStartUtil: 2,
	}
	sys := BuildSystem(SystemParams{Kind: ECperf, Processors: 2, Seed: 1, MemModel: memsys.MemLoaded, MemCurve: flat})
	if sys.Hier.Model() != memsys.MemLoaded {
		t.Fatal("MemModel did not reach the hierarchy")
	}
	ls, ok := sys.Hier.LoadSnapshot()
	if !ok {
		t.Fatal("no load snapshot under loaded model")
	}
	if ls.MemMult != 1 || ls.C2CMult != 1 {
		t.Fatalf("flat curve override ignored: %+v", ls)
	}
}
