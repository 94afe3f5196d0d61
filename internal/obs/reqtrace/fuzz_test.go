package reqtrace

import (
	"math"
	"reflect"
	"testing"
)

// TestParseObjectivesRejectsNonFinite: NaN, infinite and out-of-range
// bounds are errors, not a NaN budget or a wrapped cycle threshold.
func TestParseObjectivesRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{
		"err<=nan%", "err<=NaN%", "err<=inf%", "err<=-inf%", "err<=5e-324%",
		"p99<=nan", "p99<=nanms", "p99<=infms", "p99<=+Inf", "p99<=-infs",
		"p99<=1e300s", "p99<=1e300cy", "p99<=18446744073709551616cy", "p99<=1e17ms",
	} {
		if objs, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted: %+v", bad, objs)
		}
	}
	// The largest bounds that fit the cycle counter still parse.
	for spec, want := range map[string]uint64{
		"p99<=18446744073709549568cy": 18446744073709549568,
		"p99<=7.3e10s":                7.3e10 * 250e6,
	} {
		objs, err := ParseObjectives(spec)
		if err != nil || objs[0].ThresholdCycles != want {
			t.Errorf("ParseObjectives(%q) = %+v, %v; want threshold %d", spec, objs, err, want)
		}
	}
}

// FuzzParseObjectives asserts the -slo parser's contract: any input either
// errors or yields objectives with a finite budget in (0, 1), a latency
// threshold of at least one cycle, and a Spec that parses back to the same
// objective — never a panic.
func FuzzParseObjectives(f *testing.F) {
	for _, s := range []string{"p99<=40ms", "neworder:p95<=20ms,err<=2%", "p50<=500us", "p999<=10000000cy",
		"p99.9<=1s", "err<=nan%", "p99<=infms", "p99<=1e300s", "p99<0.000001cy", ":p90<=3", "a:b:p99<=1ms",
		"", ",,", "p99<=", "err<=99.9999999999999999%"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			if math.IsNaN(o.Budget) || !(o.Budget > 0 && o.Budget < 1) {
				t.Fatalf("%q: budget %v outside (0, 1)", spec, o.Budget)
			}
			if o.Quantile != 0 && o.ThresholdCycles < 1 {
				t.Fatalf("%q: latency objective with threshold %d", spec, o.ThresholdCycles)
			}
			back, err := ParseObjectives(o.Spec)
			if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], o) {
				t.Fatalf("%q: Spec %q re-parses to %+v, %v; want %+v", spec, o.Spec, back, err, o)
			}
		}
	})
}
