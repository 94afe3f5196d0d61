// obsdiff compares two run artifacts and prints ranked regression triage.
//
//	go run ./cmd/obsdiff BENCH_base.json BENCH_head.json
//	go run ./cmd/obsdiff -json -o triage.json clean-report.json faulted-report.json
//	go run ./cmd/obsdiff -top 10 base.folded head.folded
//
// The artifact format (perfcheck BENCH report, simulator JSON report,
// metrics snapshot, folded profile) is auto-detected; both files must be
// the same format. Output is a ranked Markdown table by default, JSON with
// -json; -o writes atomically instead of printing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obsdiff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam; it returns the process
// exit code: 2 for a usage error, 1 for a failed diff or (with -fail) a
// significant delta, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the triage report as JSON instead of Markdown")
	out := fs.String("o", "", "write the report to this file (atomic rename) instead of stdout")
	minRel := fs.Float64("min-rel", 0.02, "noise floor: drop deltas with relative change below this")
	minAbs := fs.Float64("min-abs", 0, "drop deltas whose larger side is below this absolute value")
	top := fs.Int("top", 0, "keep only the top-N ranked deltas (0 = all)")
	fail := fs.Bool("fail", false, "exit 1 when any significant delta survives the filters")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: obsdiff [flags] <artifact-a> <artifact-b>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	rep, err := obsdiff.DiffFiles(fs.Arg(0), fs.Arg(1), obsdiff.Options{
		MinRel: *minRel, MinAbs: *minAbs, Top: *top,
	})
	if err != nil {
		fmt.Fprintf(stderr, "obsdiff: %v\n", err)
		return 1
	}

	buf := rep.Markdown()
	if *asJSON {
		buf = rep.JSON()
	}
	if *out != "" {
		if err := obs.AtomicWriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintf(stderr, "obsdiff: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "obsdiff: wrote %s (%d deltas)\n", *out, len(rep.Deltas))
	} else {
		stdout.Write(buf)
	}
	if *fail && len(rep.Deltas) > 0 {
		return 1
	}
	return 0
}
