package obs

import (
	"sort"
	"testing"

	"repro/internal/simrand"
)

// oracleQuantile returns the exact order statistic the histogram's Quantile
// bounds: the ceil(q*n)-th smallest sample.
func oracleQuantile(sorted []uint64, q float64) uint64 {
	n := len(sorted)
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// checkAgainstOracle verifies the precision contract for one sample set:
// every quantile is an upper bound on the true order statistic, within a
// relative error of 2^-hdrSubBits, exact in the linear range, and max is
// exact.
func checkAgainstOracle(t *testing.T, name string, samples []uint64) {
	t.Helper()
	var h HDR
	for _, v := range samples {
		h.Record(v)
	}
	sorted := append([]uint64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if h.Count() != uint64(len(samples)) {
		t.Fatalf("%s: count = %d, want %d", name, h.Count(), len(samples))
	}
	if h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: max = %d, want %d", name, h.Max(), sorted[len(sorted)-1])
	}
	if h.Min() != sorted[0] {
		t.Fatalf("%s: min = %d, want %d", name, h.Min(), sorted[0])
	}
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0} {
		got := h.Quantile(q)
		want := oracleQuantile(sorted, q)
		if got < want {
			t.Errorf("%s: Quantile(%v) = %d below oracle %d", name, q, got, want)
		}
		// Upper bound: within one sub-bucket of the oracle, and exact in the
		// linear range.
		slack := want >> hdrSubBits
		if got > want+slack {
			t.Errorf("%s: Quantile(%v) = %d exceeds oracle %d by more than %d", name, q, got, want, slack)
		}
		if want < 1<<hdrSubBits && got != want {
			t.Errorf("%s: Quantile(%v) = %d, want exact %d in linear range", name, q, got, want)
		}
	}
}

func TestHDRQuantileVsOracle(t *testing.T) {
	// Sample sets chosen to straddle bucket boundaries: exact powers of two,
	// the values just around them, linear-range values, and wide spreads.
	sets := map[string][]uint64{
		"linear":     {0, 1, 2, 3, 5, 8, 13, 21, 31},
		"boundaries": {31, 32, 33, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025},
		"powers":     {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1 << 20, 1 << 40},
		"identical":  {40_000, 40_000, 40_000, 40_000},
		"single":     {123_456_789},
	}
	for name, s := range sets {
		checkAgainstOracle(t, name, s)
	}

	// Randomized sweep over several magnitudes, deterministic seed.
	rng := simrand.New(42)
	for _, scale := range []uint64{1 << 6, 1 << 12, 1 << 20, 1 << 32} {
		samples := make([]uint64, 0, 2000)
		for i := 0; i < 2000; i++ {
			samples = append(samples, uint64(rng.Int63n(int64(scale))))
		}
		checkAgainstOracle(t, "random", samples)
	}
}

func TestHDRBucketEdges(t *testing.T) {
	// Every value maps into a bucket whose upper edge covers it, and bucket
	// indices are monotone across boundaries.
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<63 - 1, 1 << 63}
	for _, v := range vals {
		b := hdrBucket(v)
		if edge := hdrUpperEdge(b); v > edge {
			t.Errorf("value %d maps to bucket %d with upper edge %d", v, b, edge)
		}
		if v > 0 {
			if pb := hdrBucket(v - 1); pb > b {
				t.Errorf("bucket index not monotone at %d: %d then %d", v, pb, b)
			}
		}
	}
	// Relative width bound: bucket width / lower edge <= 2^-hdrSubBits.
	for _, v := range []uint64{1 << 10, 1 << 30, 1 << 50} {
		b := hdrBucket(v)
		lo, hi := v, hdrUpperEdge(b)
		if width := hi - lo; width<<hdrSubBits >= lo+lo {
			t.Errorf("bucket at %d too wide: [%d,%d]", v, lo, hi)
		}
	}
}

func TestHDRMergeAssociativeCommutative(t *testing.T) {
	rng := simrand.New(7)
	mk := func(n int, scale uint64) *HDR {
		var h HDR
		for i := 0; i < n; i++ {
			h.Record(uint64(rng.Int63n(int64(scale))))
		}
		return &h
	}
	// Three "nodes" of a cluster with different latency profiles.
	a, b, c := mk(500, 1<<16), mk(300, 1<<24), mk(700, 1<<12)

	// (a+b)+c
	ab := a.Clone()
	ab.Merge(b)
	abc1 := ab.Clone()
	abc1.Merge(c)
	// a+(b+c)
	bc := b.Clone()
	bc.Merge(c)
	abc2 := a.Clone()
	abc2.Merge(bc)
	// c+b+a
	abc3 := c.Clone()
	abc3.Merge(b)
	abc3.Merge(a)

	for _, o := range []*HDR{abc2, abc3} {
		if o.Count() != abc1.Count() || o.Sum() != abc1.Sum() || o.Min() != abc1.Min() || o.Max() != abc1.Max() {
			t.Fatalf("merge moments differ: %+v vs %+v", o.Summarize(), abc1.Summarize())
		}
		for _, q := range []float64{0.5, 0.95, 0.99, 0.999, 1} {
			if o.Quantile(q) != abc1.Quantile(q) {
				t.Fatalf("merge quantile %v differs: %d vs %d", q, o.Quantile(q), abc1.Quantile(q))
			}
		}
	}

	// Merging equals recording everything into one histogram.
	if abc1.Quantile(0.99) == 0 {
		t.Fatal("degenerate test: p99 is zero")
	}
	var empty HDR
	empty.Merge(a)
	if empty.Count() != a.Count() || empty.Quantile(0.5) != a.Quantile(0.5) {
		t.Fatal("merge into empty histogram does not reproduce the source")
	}
}

func TestHDRCountLE(t *testing.T) {
	var h HDR
	for v := uint64(0); v < 32; v++ {
		h.Record(v)
	}
	// Linear range is exact.
	if got := h.CountLE(10); got != 11 {
		t.Fatalf("CountLE(10) = %d, want 11", got)
	}
	h.Record(1_000_000)
	h.Record(2_000_000)
	if got := h.CountLE(31); got != 32 {
		t.Fatalf("CountLE(31) = %d, want 32", got)
	}
	if got := h.CountLE(3_000_000); got != 34 {
		t.Fatalf("CountLE(3_000_000) = %d, want 34", got)
	}
}

func TestHDRReset(t *testing.T) {
	var h HDR
	h.Record(100)
	h.Record(200_000)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("reset histogram not empty: %+v", h.Summarize())
	}
	h.Record(7)
	if h.Quantile(1) != 7 || h.Count() != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

func BenchmarkHDRRecord(b *testing.B) {
	rng := simrand.New(1)
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(rng.Int63n(1 << 28))
	}
	var h HDR
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&4095])
	}
}

func BenchmarkHDRMerge(b *testing.B) {
	rng := simrand.New(2)
	var src HDR
	for i := 0; i < 10_000; i++ {
		src.Record(uint64(rng.Int63n(1 << 30)))
	}
	var dst HDR
	dst.Record(1) // pre-size both sides
	dst.Merge(&src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(&src)
	}
}

// TestHDRSub: the difference of two captures of one histogram is the
// distribution of the samples recorded between them, within HDR precision,
// and a reset between the captures saturates at zero.
func TestHDRSub(t *testing.T) {
	rng := simrand.New(11)
	var h, onlyB HDR
	for i := 0; i < 1000; i++ {
		h.Record(uint64(rng.Int63n(1 << 24)))
	}
	base := h.Clone()
	var b []uint64
	var sumB uint64
	for i := 0; i < 700; i++ {
		v := 1<<16 + uint64(rng.Int63n(1<<20))
		b = append(b, v)
		sumB += v
		h.Record(v)
		onlyB.Record(v)
	}
	d := h.Sub(base)
	if d.Count() != uint64(len(b)) || d.Sum() != sumB {
		t.Fatalf("delta count/sum = %d/%d, want %d/%d", d.Count(), d.Sum(), len(b), sumB)
	}
	sorted := append([]uint64(nil), b...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := d.Quantile(q), onlyB.Quantile(q)
		exact := oracleQuantile(sorted, q)
		if got < exact || got > exact+exact>>hdrSubBits || got < want-want>>hdrSubBits || got > want+want>>hdrSubBits {
			t.Errorf("delta Quantile(%v) = %d, oracle %d, B-only histogram %d", q, got, exact, want)
		}
	}
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if d.Min() > lo || d.Min() < lo-lo>>hdrSubBits {
		t.Errorf("delta min %d not within precision below B's min %d", d.Min(), lo)
	}
	if d.Max() < hi || d.Max() > hi+hi>>hdrSubBits || d.Max() > h.Max() {
		t.Errorf("delta max %d not within precision above B's max %d (later max %d)", d.Max(), hi, h.Max())
	}
	if c := h.Sub(nil); c.Count() != h.Count() || c.Quantile(0.9) != h.Quantile(0.9) {
		t.Error("Sub(nil) is not a copy")
	}

	// A reset between the captures: buckets the base filled and the fresh
	// histogram did not saturate at zero instead of wrapping around.
	h.Reset()
	h.Record(5)
	h.Record(1 << 40)
	r := h.Sub(base)
	if r.Count() > 2 || r.Sum() > h.Sum() {
		t.Fatalf("delta across a reset underflowed: count %d sum %d", r.Count(), r.Sum())
	}
	if r.Quantile(1) != 1<<40 || r.Max() != h.Max() {
		t.Fatalf("delta across a reset lost the new maximum: p100 %d max %d", r.Quantile(1), r.Max())
	}
	h.Reset()
	if e := h.Sub(base); e.Count() != 0 || e.Quantile(0.5) != 0 || e.Min() != 0 || e.Max() != 0 {
		t.Fatalf("empty delta across a reset: %+v", e.Summarize())
	}
}
