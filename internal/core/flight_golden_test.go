package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

var updateFlightGolden = flag.Bool("update-flight-golden", false,
	"rewrite testdata/flight_golden.sha256 from this run")

const flightGoldenPath = "testdata/flight_golden.sha256"

// flightGoldenDigests runs a short seeded ECperf system with a full -trace
// tracer sharing its events with the flight recorder, under a fault schedule
// whose two windows each trigger a dump, and returns the SHA-256 of the
// Chrome trace and of every dump bundle, keyed by artifact name.
//
// The schedule covers every argument type the trace renders: the partition
// window carries a peer (integer) and the lock storm a magnitude (float);
// bus events carry a source (string) and an address.
func flightGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	const warmup, measure = 2_000_000, 24_000_000
	sys := BuildSystem(SystemParams{
		Kind: ECperf, Processors: 15, Seed: 20030208,
		FaultSchedule: &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Partition, At: 4_000_000, Duration: 3_000_000, Peer: 1},
			{Kind: fault.DBLockStorm, At: 8_000_000, Duration: 4_000_000, Magnitude: 2.5},
		}},
	})
	dir := t.TempDir()
	ob, rec := flightrec.FromFlags(flightFlags(dir), "golden",
		&obs.Observer{Tracer: obs.NewTracer(obs.AllComponents())})
	AttachFlight(sys, rec)
	ObserveRun(sys, ob, nil, warmup, measure)
	if err := rec.Err(); err != nil {
		t.Fatalf("flight recorder: %v", err)
	}
	if len(rec.Dumps()) < 2 {
		t.Fatalf("want a dump per fault window, got %+v", rec.Dumps())
	}

	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, ob.Tracer); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{"trace.json": sum(trace.Bytes())}
	for _, d := range rec.Dumps() {
		buf, err := os.ReadFile(d.Path)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(d.Path)] = sum(buf)
	}
	return got
}

// TestFlightTraceGolden pins the exact bytes of the Chrome trace and the
// flight-recorder dump bundles of a seeded faulted run against committed
// digests: any change to event recording, argument rendering, or bundle
// layout that alters a single output byte fails here. Regenerate with
// -update-flight-golden only for an intended output change.
func TestFlightTraceGolden(t *testing.T) {
	got := flightGoldenDigests(t)
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)

	if *updateFlightGolden {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[n], n)
		}
		if err := os.MkdirAll(filepath.Dir(flightGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flightGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(flightGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-flight-golden)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if w, ok := want[n]; !ok {
			t.Errorf("%s: not in %s", n, flightGoldenPath)
		} else if w != got[n] {
			t.Errorf("%s: sha256 %s, golden %s", n, got[n], w)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: in %s but not produced", n, flightGoldenPath)
		}
	}
}
