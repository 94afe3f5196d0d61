// Package stats is the measurement toolkit of the simulator: scalar
// summaries with error bars, interval time series (Figure 10), and per-key
// share distributions (Figures 14/15). Latency distributions are obs.HDR
// histograms.
//
// Every result the simulator reports follows the variability methodology of
// Alameldeen & Wood (HPCA 2003), which the paper adopts: each configuration
// is run under several seeds and reported as mean ± standard deviation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar observations and reports their moments.
// The zero value is ready to use.
type Summary struct {
	n        int
	sum      float64
	sumsq    float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumsq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two observations.
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	mean := s.Mean()
	variance := (s.sumsq - float64(s.n)*mean*mean) / float64(s.n-1)
	if variance < 0 { // numerical noise
		return 0
	}
	return math.Sqrt(variance)
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// String formats the summary as "mean ± stddev".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.StdDev())
}

// TimeSeries bins a counter into fixed-width intervals of simulated time.
// Figure 10 (cache-to-cache transfers per second over time, 100 ms bins) is
// rendered from one of these.
type TimeSeries struct {
	Interval uint64 // bin width in simulated time units
	bins     []float64
}

// NewTimeSeries returns a series with the given bin width (> 0).
func NewTimeSeries(interval uint64) *TimeSeries {
	if interval == 0 {
		panic("stats: TimeSeries interval must be positive")
	}
	return &TimeSeries{Interval: interval}
}

// Add accumulates weight w at simulated time t.
func (ts *TimeSeries) Add(t uint64, w float64) {
	bin := int(t / ts.Interval)
	for len(ts.bins) <= bin {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[bin] += w
}

// Bins returns the accumulated weights per interval, in time order.
func (ts *TimeSeries) Bins() []float64 { return ts.bins }

// Rate returns per-bin values divided by the bin width, i.e. events per time
// unit, suitable for "per second" plots.
func (ts *TimeSeries) Rate() []float64 {
	out := make([]float64, len(ts.bins))
	for i, v := range ts.bins {
		out[i] = v / float64(ts.Interval)
	}
	return out
}

// MaxBin returns the largest bin value, or 0 for an empty series.
func (ts *TimeSeries) MaxBin() float64 {
	m := 0.0
	for _, v := range ts.bins {
		if v > m {
			m = v
		}
	}
	return m
}

// ShareDist holds per-key event counts and answers cumulative-share
// questions: "what fraction of all events came from the hottest k keys?"
// Figures 14/15 (distribution of cache-to-cache transfers over cache lines)
// are rendered from one of these keyed by line address.
type ShareDist struct {
	counts map[uint64]uint64
	total  uint64
}

// NewShareDist returns an empty distribution.
func NewShareDist() *ShareDist {
	return &ShareDist{counts: make(map[uint64]uint64)}
}

// Add records w events for key k.
func (d *ShareDist) Add(k uint64, w uint64) {
	d.counts[k] += w
	d.total += w
}

// Touch registers a key with zero weight, so it counts toward Keys() —
// used for "lines touched but never transferred".
func (d *ShareDist) Touch(k uint64) {
	if _, ok := d.counts[k]; !ok {
		d.counts[k] = 0
	}
}

// Keys returns the number of distinct keys (including zero-weight ones).
func (d *ShareDist) Keys() int { return len(d.counts) }

// Total returns the total event weight.
func (d *ShareDist) Total() uint64 { return d.total }

// SortedCounts returns the per-key weights sorted descending.
func (d *ShareDist) SortedCounts() []uint64 {
	out := make([]uint64, 0, len(d.counts))
	for _, c := range d.counts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// TopShare returns the fraction of all events contributed by the hottest k
// keys. TopShare(1) answers "how much of the communication is one lock?".
func (d *ShareDist) TopShare(k int) float64 {
	if d.total == 0 || k <= 0 {
		return 0
	}
	counts := d.SortedCounts()
	if k > len(counts) {
		k = len(counts)
	}
	var sum uint64
	for _, c := range counts[:k] {
		sum += c
	}
	return float64(sum) / float64(d.total)
}

// TopFractionShare returns the fraction of events contributed by the hottest
// `frac` fraction of keys (e.g. 0.001 for "the most active 0.1% of lines").
// At least one key is always included.
func (d *ShareDist) TopFractionShare(frac float64) float64 {
	k := int(math.Ceil(frac * float64(len(d.counts))))
	if k < 1 {
		k = 1
	}
	return d.TopShare(k)
}

// CDFPoint is one point on a cumulative-share curve.
type CDFPoint struct {
	Keys       int     // hottest-k keys included
	KeyFrac    float64 // k as a fraction of all keys
	EventShare float64 // cumulative fraction of events
}

// CDF returns the cumulative share curve sampled at up to `points` positions
// spaced evenly in key rank (plus the final point). Curves for Figures 14/15.
func (d *ShareDist) CDF(points int) []CDFPoint {
	counts := d.SortedCounts()
	if len(counts) == 0 || d.total == 0 {
		return nil
	}
	if points < 2 {
		points = 2
	}
	step := len(counts) / points
	if step < 1 {
		step = 1
	}
	out := make([]CDFPoint, 0, points+1)
	var cum uint64
	next := step
	for i, c := range counts {
		cum += c
		if i+1 == next || i+1 == len(counts) {
			out = append(out, CDFPoint{
				Keys:       i + 1,
				KeyFrac:    float64(i+1) / float64(len(counts)),
				EventShare: float64(cum) / float64(d.total),
			})
			next += step
		}
	}
	return out
}

// ShareAtKeys interpolates the cumulative event share at exactly k hottest
// keys; convenience for reading fixed points off the Figure 15 curve.
func (d *ShareDist) ShareAtKeys(k int) float64 { return d.TopShare(k) }
