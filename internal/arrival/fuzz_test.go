package arrival

import "testing"

// FuzzParsePattern asserts the -arrival parser's contract: any input either
// errors or yields a pattern whose String() is the input and parses back to
// the same pattern — never a panic.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{"poisson", "bursty", "diurnal", "flash", "", "off", "Poisson",
		"flash ", "Pattern(4)", "poisson,flash", "\x00", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePattern(s)
		if err != nil {
			return
		}
		if p.String() != s {
			t.Fatalf("ParsePattern(%q) = %v, which prints as %q", s, p, p.String())
		}
		if back, err := ParsePattern(p.String()); err != nil || back != p {
			t.Fatalf("%v does not round-trip: %v, %v", p, back, err)
		}
	})
}
