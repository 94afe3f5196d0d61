package memsys

import "testing"

// FuzzParseMemModel asserts the -memmodel parser's contract: any input
// either errors or yields a model whose String() is the input and parses
// back to the same model — never a panic.
func FuzzParseMemModel(f *testing.F) {
	for _, s := range []string{"fixed", "loaded", "", "Fixed", " loaded", "loaded\x00",
		"MemModel(2)", "fixed,loaded", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMemModel(s)
		if err != nil {
			return
		}
		if m.String() != s {
			t.Fatalf("ParseMemModel(%q) = %v, which prints as %q", s, m, m.String())
		}
		if back, err := ParseMemModel(m.String()); err != nil || back != m {
			t.Fatalf("%v does not round-trip: %v, %v", m, back, err)
		}
	})
}
