package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// BENCHMARK.json must declare exactly the workloads and metrics the
// benchmark prints, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(declared, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}

	b := bench{layers: newLayerProfile()}
	same := func(kind string, decls []decl, printed map[string]metric) {
		seen := map[string]bool{}
		for _, d := range decls {
			seen[d.Name] = true
			m, ok := printed[d.Name]
			if !ok {
				t.Errorf("%s metric %s is declared but not printed", kind, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s metric %s: declared unit %q, printed %q", kind, d.Name, d.Unit, m.Unit)
			}
		}
		var extra []string
		for k := range printed {
			if !seen[k] {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics printed but not declared: %v", kind, extra)
		}
	}
	same("end_to_end", spec.EndToEnd, b.endToEnd())
	same("per_layer", spec.PerLayer, b.perLayer())

	// setup_s carries the largest bound, so work moved into set-up shows.
	var setup float64
	for _, d := range spec.EndToEnd {
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound > setup {
			t.Errorf("%s bound %.2f exceeds setup_s bound %.2f", d.Name, d.Bound, setup)
		}
	}
}
