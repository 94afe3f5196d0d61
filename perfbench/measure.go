package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// sample is the host cost of one workload run.
type sample struct {
	setup    float64 // construction, seconds
	simulate float64 // the public call that simulates, seconds
	warmup   float64 // the simulated warm-up window within simulate (0 if not separable)
	report   float64 // output reduction and checks, seconds
	wall     float64 // whole run, seconds (without a setup probe's stand-alone construction)
	cpu      float64 // user+system CPU seconds of the process during the run

	allocBytes float64 // heap bytes allocated during the run
	allocs     float64 // heap objects allocated during the run
	heapPeak   float64 // peak heap bytes in live and unswept objects
	work       float64 // simulated work items (outcome.work)

	cpuProfile []byte // gzip pprof CPU profile of the run, when profiled
}

// measureRun builds, simulates and reduces one workload run. A panic in
// the simulator is returned as an error.
func measureRun(w workload, seed uint64, flightDir string, withProfile bool) (s sample, out outcome, err error) {
	runtime.GC() // start every run from the same collected heap
	var prof bytes.Buffer
	if withProfile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return s, out, fmt.Errorf("starting cpu profile: %w", err)
		}
	}
	peak := startHeapSampler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		s.heapPeak = peak.stop()
		if withProfile {
			pprof.StopCPUProfile()
			s.cpuProfile = prof.Bytes()
		}
	}()

	t0 := time.Now()
	r := w.build(seed, flightDir)
	t1 := time.Now()
	s.warmup = r.simulate().Seconds()
	t2 := time.Now()
	out = r.reduce()
	t3 := time.Now()

	s.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	s.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	s.allocs = float64(ms1.Mallocs - ms0.Mallocs)
	s.setup, s.simulate, s.report = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	s.wall = t3.Sub(t0).Seconds()
	if w.setupProbe {
		s.wall = t3.Sub(t1).Seconds()
	}
	s.work = out.work
	return s, out, nil
}

// timeSetup times one stand-alone construction of the workload. A panic
// in construction is returned as an error.
func timeSetup(w workload, seed uint64, flightDir string) (secs float64, err error) {
	runtime.GC()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("setup panic: %v", r)
		}
	}()
	t0 := time.Now()
	w.build(seed, flightDir)
	return time.Since(t0).Seconds(), nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler polls the live-plus-unswept heap size without stopping the
// world and keeps the largest value seen.
type heapSampler struct {
	done chan struct{}
	peak chan float64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		probe := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		read := func() float64 {
			metrics.Read(probe)
			return float64(probe[0].Value.Uint64())
		}
		max := read()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if v := read(); v > max {
					max = v
				}
			case <-h.done:
				if v := read(); v > max {
					max = v
				}
				h.peak <- max
				return
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak; the goroutine has exited
// once stop returns.
func (h *heapSampler) stop() float64 {
	close(h.done)
	return <-h.peak
}

func collect(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// quartiles returns the first and third quartiles of xs (the medians of
// its lower and upper halves), or 0, 0 for none.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return median(s[:n/2+n%2]), median(s[n/2:])
}

// median of xs, or 0 for none (a failed workload has no samples and is
// reported through correct/failed, not through its metrics).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
