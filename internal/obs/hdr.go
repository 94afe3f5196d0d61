package obs

import (
	"math/bits"
)

// HDR is a fixed-precision log-bucketed histogram for latency values in
// cycles, in the style of HdrHistogram: each power-of-two octave is split
// into 2^hdrSubBits linear sub-buckets, bounding the relative quantile error
// at 1/2^hdrSubBits (~3% at 5 bits) across the full uint64 range. Values
// below 2^hdrSubBits land in singleton buckets and report exactly.
//
// The type is built for the simulator's determinism contract:
//
//   - Recording is pure integer arithmetic on the sample value — no wall
//     time, no randomness — so the same run produces the same histogram.
//   - Merge is a bucket-wise add, hence associative and commutative: the
//     per-node histograms of a cluster co-simulation fold into one machine
//     view in any order with an identical result.
//   - Quantile returns the upper edge of the target rank's bucket, clamped
//     to the exact tracked maximum, so Quantile(1) is the true max and
//     every reported percentile is a deterministic upper bound within the
//     precision guarantee.
//
// The zero value is an empty, ready-to-use histogram.
type HDR struct {
	counts []uint64 // grown on demand to the highest occupied bucket
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// hdrSubBits sets the precision: 32 sub-buckets per octave.
const hdrSubBits = 5

// hdrBucket maps a value to its bucket index. Values below 2^hdrSubBits are
// their own bucket (exact); above, the octave is the bit length and the
// sub-bucket the next hdrSubBits bits.
func hdrBucket(v uint64) int {
	const m = 1 << hdrSubBits
	if v < m {
		return int(v)
	}
	e := bits.Len64(v) - 1 - hdrSubBits
	return int(uint64(e+1)<<hdrSubBits + (v>>uint(e) - m))
}

// hdrUpperEdge returns the largest value mapping to bucket b (inclusive).
func hdrUpperEdge(b int) uint64 {
	const m = 1 << hdrSubBits
	if b < m {
		return uint64(b)
	}
	e := b>>hdrSubBits - 1
	r := uint64(b & (m - 1))
	return (m+r+1)<<uint(e) - 1
}

// Record adds one sample.
func (h *HDR) Record(v uint64) {
	b := hdrBucket(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of samples.
func (h *HDR) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *HDR) Sum() uint64 { return h.sum }

// Mean returns the mean sample, or 0 when empty.
func (h *HDR) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample, or 0 when empty.
func (h *HDR) Min() uint64 { return h.min }

// Max returns the largest sample, exactly, or 0 when empty.
func (h *HDR) Max() uint64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket holding the ceil(q*count)-th smallest sample,
// clamped to the exact maximum. Within the linear range (< 2^hdrSubBits)
// the answer is exact; above it the bound is within a factor 1+2^-hdrSubBits
// of the true order statistic.
func (h *HDR) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank >= h.count {
		return h.max
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			edge := hdrUpperEdge(b)
			if edge > h.max {
				return h.max
			}
			return edge
		}
	}
	return h.max
}

// CountLE returns the number of samples at or below v, at bucket
// resolution: the bucket containing v counts in full. The overcount is
// bounded by the histogram precision, and the answer is deterministic —
// which is what the SLO engine's bad-request accounting needs.
func (h *HDR) CountLE(v uint64) uint64 {
	b := hdrBucket(v)
	var cum uint64
	for i, c := range h.counts {
		if i > b {
			break
		}
		cum += c
	}
	return cum
}

// Merge folds o into h bucket-wise. Merging per-node histograms is
// associative and commutative, so cluster-wide views do not depend on node
// order. o is unmodified; a nil o is a no-op.
func (h *HDR) Merge(o *HDR) {
	if o == nil || o.count == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Sub returns the bucket-wise difference h - base: the distribution of the
// samples recorded after base was captured. Bucket counts saturate at zero,
// so a Reset between the two captures yields usable numbers instead of
// underflowing. A difference has no exact extremes: its Min and Max are the
// edges of its lowest and highest occupied buckets, clamped to h's own Min
// and Max. Neither operand is modified; a nil base yields a copy of h.
func (h *HDR) Sub(base *HDR) *HDR {
	if base == nil {
		return h.Clone()
	}
	d := &HDR{}
	lo, hi := -1, -1
	for i, c := range h.counts {
		var b uint64
		if i < len(base.counts) {
			b = base.counts[i]
		}
		if c <= b {
			continue
		}
		if d.counts == nil {
			d.counts = make([]uint64, len(h.counts))
		}
		d.counts[i] = c - b
		d.count += c - b
		if lo < 0 {
			lo = i
		}
		hi = i
	}
	if d.count == 0 {
		return d
	}
	d.counts = d.counts[:hi+1]
	if h.sum > base.sum {
		d.sum = h.sum - base.sum
	}
	d.min = max(hdrLowerEdge(lo), h.min)
	d.max = min(hdrUpperEdge(hi), h.max)
	return d
}

// hdrLowerEdge returns the smallest value mapping to bucket b.
func hdrLowerEdge(b int) uint64 {
	if b == 0 {
		return 0
	}
	return hdrUpperEdge(b-1) + 1
}

// Reset empties the histogram in place, keeping its bucket storage.
func (h *HDR) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Clone returns a deep copy.
func (h *HDR) Clone() *HDR {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// HDRSummary is the JSON-friendly digest of an HDR histogram, in cycles.
type HDRSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_cycles"`
	Min   uint64  `json:"min_cycles"`
	P50   uint64  `json:"p50_cycles"`
	P95   uint64  `json:"p95_cycles"`
	P99   uint64  `json:"p99_cycles"`
	P999  uint64  `json:"p999_cycles"`
	Max   uint64  `json:"max_cycles"`
}

// Summarize digests the histogram into the standard percentile set.
func (h *HDR) Summarize() HDRSummary {
	return HDRSummary{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.min,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.max,
	}
}
