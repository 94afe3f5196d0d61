package cluster

import "testing"

// FuzzParseLBPolicy asserts the -lb parser's contract: any input either
// errors or yields a policy whose String() is the input and parses back to
// the same policy — never a panic.
func FuzzParseLBPolicy(f *testing.F) {
	for _, s := range []string{"rr", "least", "weighted", "", "RR", " least", "least\x00",
		"random", "LBPolicy(3)", "weighted,rr", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseLBPolicy(s)
		if err != nil {
			return
		}
		if p.String() != s {
			t.Fatalf("ParseLBPolicy(%q) = %v, which prints as %q", s, p, p.String())
		}
		if back, err := ParseLBPolicy(p.String()); err != nil || back != p {
			t.Fatalf("%v does not round-trip: %v, %v", p, back, err)
		}
	})
}
