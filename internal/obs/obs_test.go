package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilReceiversAreDisabled(t *testing.T) {
	var tr *Tracer
	var pf *Profiler
	var hb *Heartbeat
	tr.Span(CompJVM, "gc", 0, 10, 20)
	tr.Instant(CompMem, "bus", 0, 5)
	if tr.Enabled(CompJVM) || tr.Len() != 0 {
		t.Fatal("nil tracer should be disabled")
	}
	pf.AddCycles(1, CatBase, 100)
	pf.SetPhase("measure")
	pf.Reset()
	if pf.Total() != 0 {
		t.Fatal("nil profiler should accumulate nothing")
	}
	hb.Add(1)
	hb.SetCycles(5)
	hb.Stop()
}

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer(AllComponents())
	tr.SampleEvery(CompMem, 1)
	tr.NameProcess(0, "SPECjbb")
	tr.NameThread(0, 3, "jbb-worker")
	tr.Span(CompJVM, "gc.minor", 0, 1000, 3500, U64(KeyLiveBytes, 42))
	tr.Span(CompOS, "lock.wait", 3, 200, 450)
	tr.Instant(CompMem, "bus.getm", 1, 777, Str(KeySrc, "c2c"))

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata + 3 events.
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	byName := map[string]map[string]any{}
	for _, e := range events {
		byName[e["name"].(string)] = e
	}
	gc := byName["gc.minor"]
	if gc["ph"] != "X" || gc["cat"] != "jvm" {
		t.Fatalf("gc event malformed: %v", gc)
	}
	// 1000 cycles at 250 MHz = 4 µs; duration 2500 cycles = 10 µs.
	if gc["ts"].(float64) != 4 || gc["dur"].(float64) != 10 {
		t.Fatalf("cycle->us conversion wrong: ts=%v dur=%v", gc["ts"], gc["dur"])
	}
	if byName["bus.getm"]["ph"] != "i" {
		t.Fatal("instant phase missing")
	}
	args := gc["args"].(map[string]any)
	if args["live_bytes"].(float64) != 42 {
		t.Fatalf("args lost: %v", args)
	}
}

func TestTracerSamplingAndCap(t *testing.T) {
	tr := NewTracer([]Component{CompMem})
	tr.SampleEvery(CompMem, 10)
	for i := 0; i < 100; i++ {
		tr.Instant(CompMem, "bus", 0, uint64(i))
	}
	if tr.Len() != 10 {
		t.Fatalf("sampled %d of 100, want 10", tr.Len())
	}
	tr2 := NewTracer([]Component{CompOS})
	tr2.SetMaxEvents(5)
	for i := 0; i < 20; i++ {
		tr2.Instant(CompOS, "x", 0, uint64(i))
	}
	if tr2.Len() != 5 || tr2.Dropped() != 15 {
		t.Fatalf("cap: len=%d dropped=%d", tr2.Len(), tr2.Dropped())
	}
	// Disabled component records nothing.
	tr2.Instant(CompJVM, "y", 0, 1)
	if tr2.Len() != 5 {
		t.Fatal("disabled component leaked an event")
	}
}

func TestRegistrySnapshotDelta(t *testing.T) {
	var miss uint64
	var hist HDR
	util := 0.25

	r := NewRegistry()
	r.Counter("memsys.l2.miss", func() uint64 { return miss })
	r.Gauge("db.utilization", func() float64 { return util })
	r.Histogram("jvm.gc.pause_cycles", func() *HDR { return &hist })

	miss = 100
	hist.Record(5000)
	base := r.Snapshot()

	miss = 250
	util = 0.75
	hist.Record(9000)
	hist.Record(11000)
	cur := r.Snapshot()
	hist.Record(1 << 40) // after the snapshot: must not leak into it

	d := cur.Delta(base)
	if d.Counter("memsys.l2.miss") != 150 {
		t.Fatalf("delta counter = %d, want 150", d.Counter("memsys.l2.miss"))
	}
	if d.Gauge("db.utilization") != 0.75 {
		t.Fatalf("gauge should keep the later level, got %v", d.Gauge("db.utilization"))
	}
	h := d.Histo("jvm.gc.pause_cycles")
	if h.Count() != 2 || h.Sum() != 20000 {
		t.Fatalf("delta histogram count/sum = %d/%d, want 2/20000", h.Count(), h.Sum())
	}
	// HDR precision: the p50 bound is 9000's bucket edge, not a power of two.
	if p50 := h.Quantile(0.5); p50 < 9000 || p50 > 9000*33/32 {
		t.Fatalf("delta p50 = %d, want within 1/32 above 9000", p50)
	}
	if h.Max() != 11000 {
		t.Fatalf("delta max = %d, want the later snapshot's max 11000", h.Max())
	}

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"memsys.l2.miss", "150", "jvm.gc.pause_cycles", "count=2", "p99=11000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, out)
		}
	}
}

func TestProfilerFolded(t *testing.T) {
	p := NewProfiler()
	p.NameComponent(1, "servlet")
	p.NameComponent(2, "jvm-gc")
	p.SetPhase("measure")
	p.AddCycles(1, CatBase, 700)
	p.AddCycles(1, CatDC2C, 300)
	prev := p.PushSubPhase("gc")
	p.AddCycles(2, CatDMem, 500)
	p.SetPhase(prev)
	p.AddCycles(1, CatBase, 100)

	if p.Total() != 1600 {
		t.Fatalf("total = %d, want 1600", p.Total())
	}
	cats := p.CategoryTotals()
	if cats[CatBase] != 800 || cats[CatDC2C] != 300 || cats[CatDMem] != 500 {
		t.Fatalf("category totals wrong: %v", cats)
	}
	comps := p.ComponentTotals()
	if comps["servlet"] != 1100 || comps["jvm-gc"] != 500 {
		t.Fatalf("component totals wrong: %v", comps)
	}

	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"measure;servlet;base 800",
		"measure;servlet;dstall.c2c 300",
		"measure/gc;jvm-gc;dstall.mem 500",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("folded output lacks %q:\n%s", want, out)
		}
	}

	p.Reset()
	if p.Total() != 0 {
		t.Fatal("reset left cycles behind")
	}
}

func TestProfilerScopePrefix(t *testing.T) {
	p := NewProfiler()
	p.Scope = "ECperf"
	p.AddCycles(0, CatIStall, 9)
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "ECperf;run;comp0;istall 9") {
		t.Fatalf("scope prefix missing: %q", buf.String())
	}
}
