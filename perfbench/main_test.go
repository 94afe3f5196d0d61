package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

type fakeRun struct{}

func (fakeRun) simulate() time.Duration {
	spin(60 * time.Millisecond)
	return 0
}

func (fakeRun) reduce() outcome {
	return outcome{canon: "same\n", work: 1000, counts: map[string]float64{"cpu.instructions": 1000}}
}

// The measurement loop alternates plain and profiled runs, and the last
// line it prints is the JSON result with exactly the contract's keys.
func TestBenchLoopPrintsResult(t *testing.T) {
	w := workload{name: "fake", build: func(uint64, string) run { return fakeRun{} }}
	for _, profiled := range []bool{false, true} {
		b := bench{w: w, seed: 1, seconds: 0.4, profiled: profiled}
		b.run()
		if len(b.plain) == 0 || profiled && len(b.prof) == 0 {
			t.Fatalf("profiled=%v: %d plain and %d profiled runs", profiled, len(b.plain), len(b.prof))
		}
		var out bytes.Buffer
		b.print(&out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("result keys: %s", lines[len(lines)-1])
		}
		r := b.result()
		if !r.Correct || r.Failed != 0 || r.Attempted != len(b.plain)+len(b.prof) {
			t.Errorf("profiled=%v: result %+v", profiled, r)
		}
		want := len(b.endToEnd())
		if profiled {
			want = len(b.perLayer())
		}
		if len(r.Metrics) != want {
			t.Errorf("profiled=%v: %d metrics, want %d", profiled, len(r.Metrics), want)
		}
	}
}

func TestMedianQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if q1, q3 := quartiles(xs); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v", m)
	}
}
