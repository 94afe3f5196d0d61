package core

import (
	"testing"
)

// Shape tests: each asserts the qualitative result the paper reports for a
// figure, on reduced (QuickOpts-sized) runs. Absolute values are not
// checked — the substrate is a simulator — only orderings, trends, knees,
// and crossovers.

func TestBuildSystemBothKinds(t *testing.T) {
	for _, kind := range []Kind{SPECjbb, ECperf} {
		sys := BuildSystem(SystemParams{Kind: kind, Processors: 4, Seed: 1})
		if sys.Engine == nil || sys.Heap == nil || sys.Hier == nil {
			t.Fatalf("%v: incomplete system", kind)
		}
		if kind == SPECjbb && sys.JBB == nil {
			t.Fatal("SPECjbb workload missing")
		}
		if kind == ECperf && (sys.EC == nil || sys.DB == nil || sys.Supplier == nil) {
			t.Fatal("ECperf tiers missing")
		}
		if sys.Hier.Config().CPUs != MachineCPUs {
			t.Fatalf("machine has %d CPUs", sys.Hier.Config().CPUs)
		}
	}
}

func TestSystemDefaults(t *testing.T) {
	p := SystemParams{Kind: SPECjbb, Processors: 6}.withDefaults()
	if p.Scale != 6 {
		t.Fatalf("SPECjbb default scale = %d, want processors", p.Scale)
	}
	p = SystemParams{Kind: ECperf, Processors: 6}.withDefaults()
	if p.Scale == 0 || p.CPUsPerL2 != 1 || p.TotalCPUs != MachineCPUs {
		t.Fatalf("defaults wrong: %+v", p)
	}
}

func TestScalingPointDeterministic(t *testing.T) {
	o := QuickOpts()
	o.WarmupCycles = 2_000_000
	o.MeasureCycles = 6_000_000
	a := RunScalingPoint(SPECjbb, 2, 7, o)
	b := RunScalingPoint(SPECjbb, 2, 7, o)
	if a.Throughput != b.Throughput || a.CPI != b.CPI || a.C2CRatio != b.C2CRatio {
		t.Fatalf("scaling point not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestFig4Shapes: throughput grows with processors and flattens; neither
// workload keeps scaling linearly to 15.
func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickOpts()
	for _, kind := range []Kind{SPECjbb, ECperf} {
		sw := RunScalingSweep(kind, o)
		base := sw.BaseThroughput()
		var sp []float64
		for i := range sw.Cells {
			sp = append(sp, sw.Cells[i].Metric(func(p *ScalingPoint) float64 { return p.Throughput }).Mean()/base)
		}
		// Monotone-ish growth at small P.
		if sp[1] < 1.5 || sp[2] < 3.0 {
			t.Fatalf("%v: weak scaling at small P: %v", kind, sp)
		}
		// Far from linear at 15 (paper: ~7 for SPECjbb, ~9-10 for ECperf).
		last := sp[len(sp)-1]
		if last > 13 {
			t.Fatalf("%v: suspiciously linear speedup %v at 15P", kind, sp)
		}
		if last < 4 {
			t.Fatalf("%v: collapsed speedup %v at 15P", kind, sp)
		}
	}
}

// TestFig5ModeShapes: ECperf spends significant system time (SPECjbb none),
// and both lose significant busy share at 15 processors.
func TestFig5ModeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickOpts()
	jbb1 := RunScalingPoint(SPECjbb, 1, o.Seeds[0], o)
	jbb15 := RunScalingPoint(SPECjbb, 15, o.Seeds[0], o)
	ec1 := RunScalingPoint(ECperf, 1, o.Seeds[0], o)
	ec15 := RunScalingPoint(ECperf, 15, o.Seeds[0], o)

	if ec1.SystemFrac < 0.05 {
		t.Fatalf("ECperf system time at 1P = %v, want noticeable (networking)", ec1.SystemFrac)
	}
	if jbb15.SystemFrac > ec15.SystemFrac {
		t.Fatalf("SPECjbb system (%v) exceeds ECperf's (%v): jbb runs no kernel networking",
			jbb15.SystemFrac, ec15.SystemFrac)
	}
	nonBusy := func(p ScalingPoint) float64 { return p.IdleFrac + p.GCIdleFrac + p.IOFrac }
	if nonBusy(jbb15) < 0.10 || nonBusy(ec15) < 0.10 {
		t.Fatalf("no idle growth at 15P: jbb=%v ec=%v", nonBusy(jbb15), nonBusy(ec15))
	}
	if nonBusy(jbb1) > 0.10 {
		t.Fatalf("SPECjbb idle at 1P = %v, should be ~0", nonBusy(jbb1))
	}
}

// TestFig6CPIShapes: CPI decomposes exactly, and rises with processors
// (memory system stalls grow with sharing).
func TestFig6CPIShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickOpts()
	for _, kind := range []Kind{SPECjbb, ECperf} {
		p1 := RunScalingPoint(kind, 1, o.Seeds[0], o)
		p15 := RunScalingPoint(kind, 15, o.Seeds[0], o)
		sum := p1.OtherCPI + p1.IStallCPI + p1.DStallCPI
		if diff := sum - p1.CPI; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%v: CPI does not decompose: %v vs %v", kind, sum, p1.CPI)
		}
		if p15.CPI <= p1.CPI {
			t.Fatalf("%v: CPI did not rise with processors: %v -> %v", kind, p1.CPI, p15.CPI)
		}
		if p15.DStallCPI <= p1.DStallCPI {
			t.Fatalf("%v: data stall did not grow: %v -> %v", kind, p1.DStallCPI, p15.DStallCPI)
		}
	}
}

// TestFig7DataStallShapes: store-buffer and RAW stalls are minor; the big
// components are L2 hits and, at high P, cache-to-cache transfers (§4.2).
func TestFig7DataStallShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickOpts()
	p := RunScalingPoint(ECperf, 15, o.Seeds[0], o)
	if p.DSStoreBuf > 0.2 || p.DSRAW > 0.2 {
		t.Fatalf("store buffer (%v) or RAW (%v) dominate data stall", p.DSStoreBuf, p.DSRAW)
	}
	if p.DSC2C < 0.05 {
		t.Fatalf("C2C share of data stall at 15P = %v, want significant", p.DSC2C)
	}
	total := p.DSStoreBuf + p.DSRAW + p.DSL2Hit + p.DSC2C + p.DSMem
	if total < 0.99 || total > 1.01 {
		t.Fatalf("data stall fractions sum to %v", total)
	}
}

// TestFig8C2CShapes: the cache-to-cache ratio starts small and grows with
// processor count for both workloads.
func TestFig8C2CShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickOpts()
	for _, kind := range []Kind{SPECjbb, ECperf} {
		p1 := RunScalingPoint(kind, 1, o.Seeds[0], o)
		p8 := RunScalingPoint(kind, 8, o.Seeds[0], o)
		p15 := RunScalingPoint(kind, 15, o.Seeds[0], o)
		if p8.C2CRatio <= p1.C2CRatio {
			t.Fatalf("%v: C2C ratio not growing: 1P=%v 8P=%v", kind, p1.C2CRatio, p8.C2CRatio)
		}
		if p15.C2CRatio < 0.15 {
			t.Fatalf("%v: C2C ratio at 15P = %v, want substantial", kind, p15.C2CRatio)
		}
	}
}

// TestFig12And13Shapes: the headline cache observations —
//   - ECperf's instruction miss rate at intermediate caches (256 KB) is far
//     above SPECjbb's (larger instruction footprint),
//   - SPECjbb's data miss rate rises with warehouses; ECperf's stays at or
//     below the smallest SPECjbb configuration,
//   - all miss curves fall with cache size.
func TestFig12And13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cs := RunCacheSweeps(QuickSweepOpts())
	ecI := missAt(cs, "ECperf", 256<<10, true)
	jbbI := missAt(cs, "SPECjbb-25", 256<<10, true)
	if ecI < 2*jbbI {
		t.Fatalf("Fig 12: ECperf I-miss at 256KB (%v) not ≫ SPECjbb's (%v)", ecI, jbbI)
	}
	d1 := missAt(cs, "SPECjbb-1", 1<<20, false)
	d10 := missAt(cs, "SPECjbb-10", 1<<20, false)
	d25 := missAt(cs, "SPECjbb-25", 1<<20, false)
	ecD := missAt(cs, "ECperf", 1<<20, false)
	if !(d25 > d10 && d10 > d1) {
		t.Fatalf("Fig 13: warehouse ordering broken: 1wh=%v 10wh=%v 25wh=%v", d1, d10, d25)
	}
	if ecD > d10 {
		t.Fatalf("Fig 13: ECperf D-miss (%v) above SPECjbb-10 (%v)", ecD, d10)
	}
	for _, r := range cs.Results {
		first := r.DCurve[0].MissesPer1000
		last := r.DCurve[len(r.DCurve)-1].MissesPer1000
		if last > first {
			t.Fatalf("%s: D-miss curve rises with cache size", r.Label)
		}
	}
}

// TestFig11Shapes: SPECjbb's live memory grows ~linearly with warehouses;
// ECperf's flattens past a small knee.
func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickMemScaleOpts()
	jbb4 := memScalePoint(SPECjbb, 4, o)
	jbb16 := memScalePoint(SPECjbb, 16, o)
	if jbb16 < 2.5*jbb4 {
		t.Fatalf("SPECjbb live memory not ~linear: 4wh=%vMB 16wh=%vMB", jbb4, jbb16)
	}
	ec8 := memScalePoint(ECperf, 8, o)
	ec40 := memScalePoint(ECperf, 40, o)
	if ec40 > ec8*1.3 {
		t.Fatalf("ECperf live memory keeps growing: OIR8=%vMB OIR40=%vMB", ec8, ec40)
	}
}

// TestFig10And14And15Shapes: the communication profile — concentrated hot
// lines, and a transfer-rate collapse during garbage collection.
func TestFig10And14And15Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickCommOpts()
	o.MeasureCycles = 30_000_000 // long enough for a GC
	jbb := RunCommProfile(SPECjbb, o)

	// Fig 14: hot concentration — the top 0.1% of lines carries a large
	// share (paper: >70% for SPECjbb; one line alone 20%).
	if jbb.Top01PctShare < 0.3 {
		t.Fatalf("SPECjbb hottest 0.1%% share = %v, want concentrated", jbb.Top01PctShare)
	}
	if jbb.TopLineShare < 0.02 {
		t.Fatalf("SPECjbb hottest line share = %v, want a visible hot lock", jbb.TopLineShare)
	}
	// Fig 10: at least one GC, and the minimum bin during the window is
	// far below the peak (the collapse).
	if jbb.GCCount == 0 {
		t.Skip("no GC in reduced window; full runs cover this")
	}
	peak, min := 0.0, 1e18
	for _, v := range jbb.Timeline {
		if v > peak {
			peak = v
		}
		if v < min {
			min = v
		}
	}
	if peak == 0 || min > 0.5*peak {
		t.Fatalf("no C2C collapse: min=%v peak=%v", min, peak)
	}
}

// TestFig16Shapes: the paper's closing result — sharing one 1 MB L2 helps
// ECperf but hurts SPECjbb-25.
func TestFig16Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickSharedCacheOpts()
	ecPriv := RunSharedCachePoint(ECperf, 1, o).DataMissesPer1000.Mean()
	ecShared := RunSharedCachePoint(ECperf, 8, o).DataMissesPer1000.Mean()
	jbbPriv := RunSharedCachePoint(SPECjbb, 1, o).DataMissesPer1000.Mean()
	jbbShared := RunSharedCachePoint(SPECjbb, 8, o).DataMissesPer1000.Mean()

	if ecShared >= ecPriv {
		t.Fatalf("ECperf: shared L2 (%v) not better than private (%v)", ecShared, ecPriv)
	}
	if jbbShared <= jbbPriv {
		t.Fatalf("SPECjbb-25: shared L2 (%v) not worse than private (%v)", jbbShared, jbbPriv)
	}
}

// TestAblationISM: the §6 result — base 8 KB pages cost ECperf more than
// 10% against ISM's 4 MB pages.
func TestAblationISM(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	f := AblationISM(QuickAblationOpts())
	ism, base := f.Series[0].Y[0], f.Series[0].Y[1]
	if gain := ism/base - 1; gain < 0.05 {
		t.Fatalf("ISM gain %.1f%% too small (paper: >10%%)", 100*gain)
	}
}

// TestAblationGCThreads: a parallel collector removes the single-threaded
// collector's idle tax.
func TestAblationGCThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	f := AblationGCThreads(QuickAblationOpts())
	thr := f.Series[0]
	if thr.Y[len(thr.Y)-1] <= thr.Y[0] {
		t.Fatalf("parallel GC did not help: %v", thr.Y)
	}
	idle := f.Series[1]
	if idle.Y[len(idle.Y)-1] >= idle.Y[0] {
		t.Fatalf("parallel GC did not cut GC idle: %v", idle.Y)
	}
}

// TestAblationC2CLatency: NUMA-like transfer penalties cost throughput on
// both sharing-heavy workloads (§4.3's motivation).
func TestAblationC2CLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	f := AblationC2CLatency(QuickAblationOpts())
	for _, s := range f.Series {
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Fatalf("%s: throughput did not fall from fast (%v) to NUMA-like (%v) C2C",
				s.Label, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

// TestAblationProtocol: MSI loses dirty read-sharing (lower C2C ratio, more
// writebacks); MESI's Exclusive state removes upgrades.
func TestAblationProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	f := AblationProtocol(QuickAblationOpts())
	c2c := f.Series[0] // MOSI, MSI, MESI
	if c2c.Y[1] >= c2c.Y[0] {
		t.Fatalf("MSI C2C ratio (%v) not below MOSI's (%v)", c2c.Y[1], c2c.Y[0])
	}
}

// TestGeometrySweeps: associativity relieves conflict misses (ECperf's big
// instruction footprint most of all); larger blocks exploit the workloads'
// spatial locality.
func TestGeometrySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := QuickSweepOpts()
	assoc := RunGeometrySweeps(o, SweepAssoc, 256<<10)
	for _, r := range assoc.Results {
		first := r.ICurve[0].MissesPer1000
		last := r.ICurve[len(r.ICurve)-1].MissesPer1000
		if last > first {
			t.Fatalf("%s: I-miss rose with associativity (%v -> %v)", r.Label, first, last)
		}
	}
	block := RunGeometrySweeps(o, SweepBlock, 256<<10)
	for _, r := range block.Results {
		first := r.ICurve[0].MissesPer1000
		last := r.ICurve[len(r.ICurve)-1].MissesPer1000
		if last > first {
			t.Fatalf("%s: sequential code should fetch fewer larger blocks (%v -> %v)", r.Label, first, last)
		}
	}
}

// TestResponseTimeHistograms: every BBop type gets a latency distribution,
// and p90 >= p50 (ECperf's spec constrains the 90th percentile, §2.2).
func TestResponseTimeHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sys := BuildSystem(SystemParams{Kind: ECperf, Processors: 4, Seed: 5})
	sys.Engine.Run(4_000_000)
	sys.Engine.ResetStats()
	sys.Engine.Run(16_000_000)
	res := sys.Engine.Results()
	if len(res.LatencyByTag) < 5 {
		t.Fatalf("latency histograms for only %d op types", len(res.LatencyByTag))
	}
	for tag, h := range res.LatencyByTag {
		if h.Count() == 0 {
			t.Fatalf("%s: empty histogram", tag)
		}
		if h.Quantile(0.9) < h.Quantile(0.5) {
			t.Fatalf("%s: p90 < p50", tag)
		}
		if h.Mean() <= 0 {
			t.Fatalf("%s: nonpositive mean latency", tag)
		}
		// HDR bounds: the percentiles lie between the exact extremes, and
		// every timed operation was counted once.
		if h.Quantile(0.5) < h.Min() || h.Quantile(0.9) > h.Max() {
			t.Fatalf("%s: p50 %d / p90 %d outside [%d, %d]", tag, h.Quantile(0.5), h.Quantile(0.9), h.Min(), h.Max())
		}
		if h.Count() > res.OpsByTag[tag] {
			t.Fatalf("%s: %d latencies for %d operations", tag, h.Count(), res.OpsByTag[tag])
		}
	}
}

// TestRelatedWorkKernelOrdering: the §6 comparison — VolanoMark's
// thread-per-connection fan-out is kernel-dominated, ECperf's pooled
// middle tier much less so, SPECjbb's single process barely at all.
func TestRelatedWorkKernelOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	f := RelatedWorkKernelTime(QuickAblationOpts())
	y := f.Series[0].Y // SPECjbb, ECperf, VolanoMark
	if !(y[2] > y[1] && y[1] > y[0]) {
		t.Fatalf("kernel-time ordering broken: jbb=%v ec=%v volano=%v", y[0], y[1], y[2])
	}
	if y[2] < 2*y[1] {
		t.Fatalf("VolanoMark (%v) not ≫ ECperf (%v)", y[2], y[1])
	}
}

func TestVolanoSystemBuilds(t *testing.T) {
	sys := BuildSystem(SystemParams{Kind: VolanoMark, Processors: 4, Seed: 1})
	if sys.Vol == nil {
		t.Fatal("volano workload missing")
	}
	sys.Engine.Run(2_000_000)
	if sys.Engine.Results().BusinessOps == 0 {
		t.Fatal("no messages processed")
	}
}

// TestCoSimAgreesWithModel: the queueing-model database (internal/db) and
// the fully co-simulated database machine must agree on middle-tier
// throughput within a modest margin — this validates the abstraction every
// other experiment rests on — and the database machine must be far from
// saturated (§2.2).
func TestCoSimAgreesWithModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := RunCoSim(4, 1, 4_000_000, 12_000_000)
	if r.CoSimThroughput <= 0 || r.ModelThroughput <= 0 {
		t.Fatalf("degenerate run: %+v", r)
	}
	ratio := r.CoSimThroughput / r.ModelThroughput
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("co-sim/model throughput ratio %.2f outside [0.75, 1.25]", ratio)
	}
	if r.DBBusyFrac > 0.6 {
		t.Fatalf("database machine %v busy: the paper says it is not a bottleneck", r.DBBusyFrac)
	}
	if r.DBQueries == 0 {
		t.Fatal("no queries reached the database machine")
	}
}
