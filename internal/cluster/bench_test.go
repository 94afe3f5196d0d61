package cluster

import (
	"testing"

	"repro/internal/obs/reqtrace"
)

// eventLoopRun builds one loadsim cell — 1x offered load, controls on, a
// latency collector attached — and runs it to horizon.
func eventLoopRun(tb testing.TB, horizon uint64) *OpenSim {
	s, err := NewOpen(withRate(DefaultOpenConfig(), 1), 20030208)
	if err != nil {
		tb.Fatal(err)
	}
	s.SetCollector(reqtrace.NewCollector(reqtrace.Options{}))
	s.Run(horizon)
	return s
}

// BenchmarkOpenSimEventLoop measures the open cluster's event loop: one op
// is a 0.2-simulated-second cell at 1x offered load (about 4,800 requests).
func BenchmarkOpenSimEventLoop(b *testing.B) {
	b.ReportAllocs()
	var offered uint64
	for i := 0; i < b.N; i++ {
		offered += eventLoopRun(b, 50_000_000).Stats.Offered
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(offered), "ns/req")
}

// TestOpenSimSteadyStateAllocs: once its queues have grown, the event loop
// allocates (almost) nothing per request. The marginal allocations between
// a run and one twice as long are the per-interval latency bins only.
func TestOpenSimSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const horizon = 100_000_000
	var offered [2]uint64
	allocs := [2]float64{}
	for i, h := range []uint64{horizon, 2 * horizon} {
		allocs[i] = testing.AllocsPerRun(2, func() { offered[i] = eventLoopRun(t, h).Stats.Offered })
	}
	per := (allocs[1] - allocs[0]) / float64(offered[1]-offered[0])
	t.Logf("%.0f and %.0f allocs for %d and %d requests: %.4f allocs per request at steady state",
		allocs[0], allocs[1], offered[0], offered[1], per)
	if per >= 0.05 {
		t.Fatalf("%.4f allocs per offered request at steady state, want < 0.05", per)
	}
}
