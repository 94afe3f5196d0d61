package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/obs/attr"
)

// AttrSummary renders a memory-attribution report as fixed-width text: the
// sampling header, the sharing-pattern mix, and the hot-line / hot-object
// tables. It is the human-readable companion to the -attr JSON artifact.
func AttrSummary(w io.Writer, r *attr.Report) {
	if r == nil {
		return
	}
	mode := "exact (every line tracked)"
	if !r.Exact {
		mode = fmt.Sprintf("sampled 1/%d (scale counts by %d)", r.ScaleFactor, r.ScaleFactor)
	}
	fmt.Fprintf(w, "Memory attribution — %d lines tracked, %s\n", r.LinesTracked, mode)
	fmt.Fprintf(w, "%d events in %d epochs", r.Events, r.Epochs)
	if r.Resamples > 0 {
		fmt.Fprintf(w, ", %d resamples", r.Resamples)
	}
	if r.TruncatedEpochs > 0 {
		fmt.Fprintf(w, ", %d epoch summaries dropped", r.TruncatedEpochs)
	}
	fmt.Fprintln(w)
	t := r.Totals
	fmt.Fprintf(w, "totals: %d GetS, %d GetM, %d upgrades, %d C2C, %d writebacks, %d invalidations\n",
		t.GetS, t.GetM, t.Upgrades, t.C2C, t.Writebacks, t.Invals)

	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s | %10s | %12s | %10s | %6s\n", "pattern", "lines", "events", "c2c", "c2c%")
	fmt.Fprintln(w, strings.Repeat("-", 68))
	var c2cTotal uint64
	for _, ps := range r.PatternMix {
		c2cTotal += ps.C2C
	}
	for _, name := range attr.PatternNames() {
		ps, ok := r.PatternMix[name]
		if !ok {
			continue
		}
		pct := 0.0
		if c2cTotal > 0 {
			pct = 100 * float64(ps.C2C) / float64(c2cTotal)
		}
		fmt.Fprintf(w, "%-18s | %10d | %12d | %10d | %5.1f%%\n", name, ps.Lines, ps.Events, ps.C2C, pct)
	}

	if len(r.HotLines) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "hot lines (top %d by events):\n", len(r.HotLines))
		fmt.Fprintf(w, "%-14s | %-18s | %-24s | %2s/%2s | %8s | %8s | %8s | %8s\n",
			"addr", "pattern", "label", "rd", "wr", "gets", "getm", "c2c", "inval")
		fmt.Fprintln(w, strings.Repeat("-", 112))
		for _, h := range r.HotLines {
			fmt.Fprintf(w, "%#14x | %-18s | %-24s | %2d/%2d | %8d | %8d | %8d | %8d\n",
				h.Addr, h.Pattern, trunc(h.Label, 24), h.Readers, h.Writers, h.GetS, h.GetM, h.C2C, h.Invals)
		}
	}

	if len(r.HotObjects) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "hot objects/sites (top %d by events):\n", len(r.HotObjects))
		fmt.Fprintf(w, "%-28s | %8s | %8s | %8s | %8s | %8s | %8s\n",
			"label", "lines", "gets", "getm", "upgrades", "c2c", "inval")
		fmt.Fprintln(w, strings.Repeat("-", 92))
		for _, h := range r.HotObjects {
			fmt.Fprintf(w, "%-28s | %8d | %8d | %8d | %8d | %8d | %8d\n",
				trunc(h.Label, 28), h.Lines, h.GetS, h.GetM, h.Upgrades, h.C2C, h.Invals)
		}
	}
}

// RunSummaries prints an observed run's attribution and request-latency
// summaries, each after a blank line, for whichever of the two it
// collected. A nil run prints nothing.
func RunSummaries(w io.Writer, r *core.SessionRun, attrTop int) {
	if r == nil {
		return
	}
	if r.Obs != nil && r.Obs.Attr != nil {
		fmt.Fprintln(w)
		AttrSummary(w, r.Obs.Attr.BuildReport(attrTop))
	}
	if r.Latency != nil {
		fmt.Fprintln(w)
		LatencySummary(w, r.Latency.BuildReport())
	}
}
