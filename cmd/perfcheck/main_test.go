package main

import (
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestEmitTriage checks the gate-failure path's triage artifact: given a
// baseline and a current report with one injected regression, PERF_TRIAGE.md
// appears (atomically) with that regression ranked first.
func TestEmitTriage(t *testing.T) {
	t.Chdir(t.TempDir())
	base := `{"benchmarks": {
		"pkg:BenchmarkHot": {"ns_per_op": 100, "allocs_per_op": 10},
		"pkg:BenchmarkCold": {"ns_per_op": 50, "allocs_per_op": 3},
		"e2e:FiguresQuick": {"ns_per_op": 9.5e9}
	}}`
	cur := `{"benchmarks": {
		"pkg:BenchmarkHot": {"ns_per_op": 260, "allocs_per_op": 10},
		"pkg:BenchmarkCold": {"ns_per_op": 50, "allocs_per_op": 3},
		"e2e:FiguresQuick": {"ns_per_op": 9.55e9}
	}}`
	if err := os.WriteFile("BENCH_baseline.json", []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_1.json", []byte(cur), 0o644); err != nil {
		t.Fatal(err)
	}

	emitTriage("BENCH_baseline.json", "BENCH_1.json")

	buf, err := os.ReadFile("PERF_TRIAGE.md")
	if err != nil {
		t.Fatalf("no PERF_TRIAGE.md after a failed gate: %v", err)
	}
	md := string(buf)
	hot := strings.Index(md, "pkg:BenchmarkHot.ns_per_op")
	if hot < 0 {
		t.Fatalf("triage misses the regressed benchmark:\n%s", md)
	}
	if e2e := strings.Index(md, "e2e:FiguresQuick"); e2e >= 0 && e2e < hot {
		t.Fatalf("noise ranked above the 2.6x regression:\n%s", md)
	}
	if strings.Contains(md, "BenchmarkCold") {
		t.Fatalf("unchanged benchmark in the triage table:\n%s", md)
	}
}

// TestEmitTriageBadBaseline checks triage failures are reported, not fatal:
// a missing baseline leaves no artifact but does not panic or exit.
func TestEmitTriageBadBaseline(t *testing.T) {
	t.Chdir(t.TempDir())
	emitTriage("does-not-exist.json", "also-missing.json")
	if _, err := os.Stat("PERF_TRIAGE.md"); !os.IsNotExist(err) {
		t.Fatal("triage artifact written despite unreadable inputs")
	}
}

// TestFlightOverheadInterleaves checks the overhead measurement with
// injected timings: pairs alternate which side runs first, each side keeps
// its minimum, the ratio is the median of the pairs' ratios, and a runner
// error stops the loop.
func TestFlightOverheadInterleaves(t *testing.T) {
	times := map[bool][]float64{
		true:  {2.20, 2.10, 2.40, 2.00}, // flight on
		false: {2.00, 2.00, 2.00, 2.00}, // flight off
	}
	var order []bool
	on, off, ratio, err := flightOverhead(4, func(flightOn bool) (float64, error) {
		order = append(order, flightOn)
		secs := times[flightOn][0]
		times[flightOn] = times[flightOn][1:]
		return secs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, true, false, false, true, true, false}; !reflect.DeepEqual(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	// Pair ratios 1.10, 1.05, 1.20, 1.00: the median is (1.05+1.10)/2.
	if on != 2.00 || off != 2.00 || math.Abs(ratio-1.075) > 1e-9 {
		t.Fatalf("on %v off %v ratio %v, want 2 2 1.075", on, off, ratio)
	}

	calls := 0
	_, _, _, err = flightOverhead(3, func(bool) (float64, error) {
		calls++
		return 0, errors.New("exit status 2")
	})
	if err == nil || calls != 1 {
		t.Fatalf("runner error: got err %v after %d calls, want an error after 1", err, calls)
	}
}

// TestFlightGate checks the gate decision with injected pair timings. A
// recorder costing 3% passes even when one flight-off run lands in a fast
// host phase (which would push the ratio of the minima over the limit);
// the recorder's 27% cost before typed events fails.
func TestFlightGate(t *testing.T) {
	for _, c := range []struct {
		name    string
		on, off []float64
		ok      bool
	}{
		{
			name: "3% overhead, one lucky off run",
			off:  []float64{1.60, 1.62, 1.40, 1.58, 1.61},
			on:   []float64{1.65, 1.67, 1.63, 1.62, 1.66},
			ok:   true,
		},
		{
			name: "27% overhead",
			off:  []float64{1.55, 1.56, 1.54, 1.57, 1.55},
			on:   []float64{1.97, 1.98, 1.96, 2.00, 1.97},
			ok:   false,
		},
	} {
		times := map[bool][]float64{true: c.on, false: c.off}
		_, _, ratio, err := flightOverhead(len(c.on), func(flightOn bool) (float64, error) {
			secs := times[flightOn][0]
			times[flightOn] = times[flightOn][1:]
			return secs, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ok := ratio <= flightMaxRatio; ok != c.ok {
			t.Errorf("%s: ratio %.3f ok=%v, want ok=%v", c.name, ratio, ok, c.ok)
		}
	}
}
