package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestFoldStack(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		self  string
		incl  []string
	}{
		{
			name: "leaf in a layer",
			stack: []string{
				"repro/internal/cache.(*Cache).ProbeTouch", "repro/internal/memsys.(*Hierarchy).Access",
				"repro/internal/osmodel.(*Engine).Run", "repro/internal/core.ObserveRun", "main.main", "runtime.main",
			},
			self: "cache", incl: []string{"cache", "core", "memsys", "osmodel"},
		},
		{
			name: "allocation caused by obs",
			stack: []string{
				"runtime.nextFreeFast", "runtime.mallocgc", "runtime.growslice",
				"repro/internal/obs.(*EventRing).Push", "repro/internal/obs.(*Tracer).Instant",
				"repro/internal/coherence.(*Node).Read",
			},
			self: "runtime.alloc", incl: []string{"coherence", "obs", "runtime.alloc"},
		},
		{
			name:  "background mark worker",
			stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
			self:  "runtime.gc", incl: []string{"runtime.gc"},
		},
		{
			name: "mark assist inside mallocgc is gc, not alloc",
			stack: []string{
				"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc",
				"runtime.newobject", "repro/internal/jvm.(*Heap).Alloc",
			},
			self: "runtime.gc", incl: []string{"jvm", "runtime.gc"},
		},
		{
			name:  "standard-library helper charged to its caller",
			stack: []string{"sort.insertionSort", "sort.Sort", "repro/internal/osmodel.(*Engine).collect"},
			self:  "osmodel", incl: []string{"osmodel"},
		},
		{
			name: "runtime map lookup charged to its caller",
			stack: []string{
				"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2",
				"repro/internal/workload/ecperf.(*App).step",
			},
			self: "workload", incl: []string{"workload"},
		},
		{
			name: "unlisted package is other, sub-package folds to its layer",
			stack: []string{
				"repro/internal/mem.(*AddrSpace).FindRegion", "repro/internal/obs/attr.(*Collector).RecordGetS",
			},
			self: "other", incl: []string{"obs"},
		},
		{
			name:  "scheduler",
			stack: []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
			self:  "other",
		},
	}
	for _, c := range cases {
		self, incl := foldStack(c.stack)
		sort.Strings(incl)
		if self != c.self || strings.Join(incl, ",") != strings.Join(c.incl, ",") {
			t.Errorf("%s: got self %q incl %v, want %q %v", c.name, self, incl, c.self, c.incl)
		}
	}
}

func TestLayerShares(t *testing.T) {
	p := newLayerProfile()
	p.add([]string{"repro/internal/cache.(*Cache).Probe", "repro/internal/core.ObserveRun"}, 6)
	p.add([]string{"runtime.mallocgc", "repro/internal/obs.(*Tracer).Instant", "repro/internal/core.ObserveRun"}, 3)
	p.add([]string{"runtime.futex"}, 1)
	sh := p.shares()
	want := map[string]float64{
		"cache.self_share": 60, "cache.incl_share": 60,
		"core.self_share": 0, "core.incl_share": 90,
		"obs.self_share": 0, "obs.incl_share": 30,
		"runtime.alloc.self_share": 30, "runtime.alloc.incl_share": 30,
		"other.self_share": 10,
	}
	for k, v := range want {
		if math.Abs(sh[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, sh[k], v)
		}
	}
	if got := len(sh); got != 2*len(layers)+1 {
		t.Errorf("%d share metrics, want %d", got, 2*len(layers)+1)
	}
	if s := selfShareSum(sh); math.Abs(s-100) > 1e-9 {
		t.Errorf("self shares sum to %v", s)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// A real runtime/pprof profile decodes, and folding keeps every sample.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p := newLayerProfile()
	if err := p.addPprof(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples decoded from a 300 ms busy loop")
	}
	// The busy loop is test code, which no layer owns.
	if sh := p.shares(); sh["other.self_share"] < 50 {
		t.Errorf("other.self_share = %.1f%%, want most of the samples", sh["other.self_share"])
	}
	if err := p.addPprof([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}
