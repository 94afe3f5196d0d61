package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
)

// TestObserveRunMatchesCounters is the profile-fidelity check: the folded
// profile's category totals must equal the engine's Figure 6/7 CPI counters
// exactly — same charge sites, same processor set, same measurement window.
func TestObserveRunMatchesCounters(t *testing.T) {
	sys := BuildSystem(SystemParams{Kind: SPECjbb, Processors: 4, Seed: 20030208})
	ob := obs.NewObserver()
	delta := ObserveRun(sys, ob, nil, 2_000_000, 8_000_000)

	c := sys.Engine.Results().CPU
	cats := ob.Profiler.CategoryTotals()
	want := map[obs.Cat]uint64{
		obs.CatBase:      c.BaseCycles,
		obs.CatIStall:    c.IStallCycles,
		obs.CatDStoreBuf: c.DStallStoreBuf,
		obs.CatDRAW:      c.DStallRAW,
		obs.CatDL2Hit:    c.DStallL2Hit,
		obs.CatDC2C:      c.DStallC2C,
		obs.CatDMem:      c.DStallMem,
		obs.CatDTLB:      c.DStallTLB,
	}
	for cat, w := range want {
		if cats[cat] != w {
			t.Errorf("profiler %v = %d, counters say %d", cat, cats[cat], w)
		}
	}
	if c.Total() == 0 {
		t.Fatal("no cycles measured")
	}

	res := sys.Engine.Results()
	if got := delta.Counter("workload.ops"); got != res.BusinessOps {
		t.Errorf("metrics delta ops = %d, results = %d", got, res.BusinessOps)
	}
	if got := delta.Counter("memsys.bus.c2c"); got != sys.Hier.Bus().Stats.C2CTransfers {
		t.Errorf("metrics delta c2c = %d, bus stats = %d", got, sys.Hier.Bus().Stats.C2CTransfers)
	}
	if got := delta.Counter("cpu.instructions"); got != c.Instructions {
		t.Errorf("metrics delta instructions = %d, counters = %d", got, c.Instructions)
	}

	// The trace must carry the paper's signature event classes on the
	// simulated clock: bus transactions, lock-contention stalls, and
	// business-operation spans (GC is covered separately — a short window
	// may legitimately have no collection).
	seen := map[string]bool{}
	var opSpans int
	for _, e := range ob.Tracer.Events() {
		seen[e.Name] = true
		if e.Comp == obs.CompWorkload && e.Phase == 'X' {
			opSpans++
		}
	}
	for _, want := range []string{"bus.gets", "lock.wait"} {
		if !seen[want] {
			t.Errorf("trace lacks %q events", want)
		}
	}
	if opSpans == 0 {
		t.Error("trace lacks business-operation spans")
	}

	// And it must export as valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, ob.Tracer); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(events) < ob.Tracer.Len() {
		t.Fatalf("export lost events: %d < %d", len(events), ob.Tracer.Len())
	}
}

// TestObserveRunGCSpans drives a window long enough to collect and checks
// the GC stop-the-world spans, pause histogram, and "gc" profile sub-phase
// all line up.
func TestObserveRunGCSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a multi-collection window")
	}
	sys := BuildSystem(SystemParams{Kind: ECperf, Processors: 15, Seed: 20030208})
	ob := obs.NewObserver()
	delta := ObserveRun(sys, ob, nil, 4_000_000, 24_000_000)

	res := sys.Engine.Results()
	if res.GCCount == 0 {
		t.Fatal("window produced no collections; lengthen it")
	}
	if got := sys.Engine.GCPauses().Count(); got != res.GCCount {
		t.Errorf("pause histogram count %d != GC count %d", got, res.GCCount)
	}
	h := delta.Histo("jvm.gc.pause_cycles")
	if got := h.Count(); got != res.GCCount {
		t.Errorf("metrics pause histogram count %d != GC count %d", got, res.GCCount)
	}

	// Spans cover warm-up too; at least the measured collections must show.
	var gcSpans uint64
	for _, e := range ob.Tracer.Events() {
		if e.Comp == obs.CompJVM && e.Phase == 'X' {
			gcSpans++
			if e.Dur == 0 {
				t.Error("GC span with zero duration")
			}
		}
	}
	if gcSpans < res.GCCount {
		t.Errorf("trace has %d GC spans, engine counted %d collections", gcSpans, res.GCCount)
	}

	// Collector cycles must be attributed to the gc sub-phase.
	var buf bytes.Buffer
	if err := ob.Profiler.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("measure/gc;")) {
		t.Errorf("folded profile lacks the measure/gc sub-phase:\n%s", buf.String())
	}
}

// TestRunObservedPointAgrees verifies a point run under a fully observed
// session returns the same figure metrics as the plain driver — observation
// must not perturb the simulation.
func TestRunObservedPointAgrees(t *testing.T) {
	o := Opts{Procs: []int{2}, Seeds: []uint64{7}, WarmupCycles: 1_000_000, MeasureCycles: 4_000_000}
	plain := RunScalingPoint(SPECjbb, 2, 7, o)
	spec := RunSpec{Warmup: o.WarmupCycles, Measure: o.MeasureCycles}

	all := &obs.Flags{Trace: "t", Metrics: "m", Profile: "p", Attr: "a", Latency: "l", Flight: t.TempDir()}
	sess := newTestSession(t, all, "agree")
	sys := BuildSystem(o.systemParams(SPECjbb, 2, 7))
	run := sess.Attach(sys, "SPECjbb")
	if err := sess.Run(sys, spec); err != nil {
		t.Fatal(err)
	}
	if observed := summarizePoint(sys, 2, 7, o); plain != observed {
		t.Errorf("observed point diverged:\nplain    %+v\nobserved %+v", plain, observed)
	}
	if run.Snap == nil || run.Snap.Counter("workload.ops") == 0 {
		t.Error("observed point returned no metrics delta")
	}
	// A nil session must also work and agree.
	bare := BuildSystem(o.systemParams(SPECjbb, 2, 7))
	if err := (*Session)(nil).Run(bare, spec); err != nil {
		t.Fatal(err)
	}
	if unobserved := summarizePoint(bare, 2, 7, o); plain != unobserved {
		t.Errorf("nil-session point diverged: %+v vs %+v", plain, unobserved)
	}
}

// TestSweepObserve checks the cache-sweep observability hooks: per-config
// observers, instruction-count clocks, and the instruction metric.
func TestSweepObserve(t *testing.T) {
	var observers []*obs.Observer
	var labels []string
	o := QuickSweepOpts()
	o.Observe = func(label string) *obs.Observer {
		ob := obs.NewObserver()
		observers = append(observers, ob)
		labels = append(labels, label)
		return ob
	}
	r := runUniSweepConfigs(SPECjbb, 1, "SPECjbb-1", o,
		cache.SizeSweepConfigs("I"), cache.SizeSweepConfigs("D"))
	if len(observers) != 1 || labels[0] != "SPECjbb-1" {
		t.Fatalf("observer callback misfired: %v", labels)
	}
	ob := observers[0]
	if r.Instructions == 0 {
		t.Fatal("sweep measured no instructions")
	}
	snap := ob.Registry.Snapshot()
	if got := snap.Counter("sweep.instructions"); got != r.Instructions {
		t.Errorf("sweep.instructions = %d, result says %d", got, r.Instructions)
	}
	if ob.Profiler.Total() != r.Instructions {
		t.Errorf("profiler total %d != measured instructions %d", ob.Profiler.Total(), r.Instructions)
	}
	if ob.Tracer.Len() == 0 {
		t.Error("sweep trace is empty")
	}
}
