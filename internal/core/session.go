package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/reqtrace"
)

// Session is one driver invocation's observability, built once from the
// standard flags: the host profile, the heartbeat, the -inspect server, and
// for every observed run its observer, flight recorder and latency
// collector. It writes the artifacts and their manifests at the end.
//
// It lives in core rather than obs because it owns flight recorders, and
// flightrec depends on obs.
type Session struct {
	Command  string
	Flags    *obs.Flags
	Progress *obs.Heartbeat
	Inspect  *obs.Inspector

	host    *obs.HostProfile
	stderr  io.Writer
	started time.Time

	mu   sync.Mutex // guards runs: Observe is called from concurrent sweep cells
	runs []*SessionRun
}

// SessionRun is one observed run of a session.
type SessionRun struct {
	Label   string
	Obs     *obs.Observer
	Flight  *flightrec.Recorder
	Latency *reqtrace.Collector
	// Snap is the measurement-window metrics delta, set when Session.Run
	// finishes the run; nil falls back to the live registry.
	Snap *obs.Snapshot

	sys *System
}

// NewSession starts the host profile, the heartbeat and the inspector the
// flags ask for, labelled command. A malformed -slo is reported here, before
// any simulation runs. hp may be nil. Close the session when done.
func NewSession(command string, f *obs.Flags, hp *obs.HostProfile, stderr io.Writer) (*Session, error) {
	if _, err := NewLatencyCollector(f); err != nil {
		return nil, err
	}
	if hp != nil {
		if err := hp.Start(); err != nil {
			return nil, err
		}
	}
	s := &Session{Command: command, Flags: f, host: hp, stderr: stderr, started: time.Now()}
	s.Progress = obs.StartHeartbeat(stderr, command, f.Heartbeat)
	if f.Inspect != "" {
		in, err := obs.StartInspector(f.Inspect, command, s.Progress)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("starting inspector: %w", err)
		}
		s.Inspect = in
		fmt.Fprintf(stderr, "inspector listening on http://%s\n", in.Addr())
	}
	return s, nil
}

// Close stops the heartbeat (flushing its last line), the inspector and the
// host profile. It is idempotent.
func (s *Session) Close() {
	s.Progress.Stop()
	s.Inspect.Close()
	if s.host != nil {
		s.host.Stop()
		s.host = nil
	}
}

// Attach wires the session's per-run observability into a built system:
// an observer when any artifact was requested, the flight recorder, and
// the latency collector. label names the run in the artifacts. A nil
// session attaches nothing and returns nil.
func (s *Session) Attach(sys *System, label string) *SessionRun {
	if s == nil {
		return nil
	}
	return s.attach(sys, label, s.Command)
}

func (s *Session) attach(sys *System, label, flightLabel string) *SessionRun {
	r := s.add(&SessionRun{Label: label, sys: sys})
	r.Obs, r.Flight = flightrec.FromFlags(s.Flags, flightLabel, r.Obs)
	r.Flight.SetInspector(s.Inspect)
	AttachObserver(sys, r.Obs)
	r.Latency, _ = NewLatencyCollector(s.Flags) // validated by NewSession
	if r.Latency != nil {
		// Latency tracking implies Flags.Enabled, so there is an observer to
		// carry the report renderer to -inspect and the artifacts.
		sys.Engine.SetReqTrace(r.Latency)
		r.Obs.LatencyReport = r.Latency.ReportJSON
	}
	AttachFlight(sys, r.Flight)
	return r
}

// Observe registers an observed run with no timing system behind it (the
// trace-driven cache sweeps) and returns its observer. It is safe for
// concurrent use.
func (s *Session) Observe(label string) *obs.Observer {
	return s.add(&SessionRun{Label: label}).Obs
}

// add appends r to the session's runs, with an observer when any artifact
// was requested; the run's index is its trace pid.
func (s *Session) add(r *SessionRun) *SessionRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Flags.Enabled() {
		r.Obs = s.Flags.NewObserver(len(s.runs))
		r.Obs.Inspect = s.Inspect
	}
	s.runs = append(s.runs, r)
	return r
}

// Runs returns the session's observed runs in the order they were added.
func (s *Session) Runs() []*SessionRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*SessionRun(nil), s.runs...)
}

// Run runs sys through spec (see Run) with the session's heartbeat, and
// keeps the metrics delta for the artifacts when sys was attached. A nil
// session runs sys plainly.
func (s *Session) Run(sys *System, spec RunSpec) error {
	if s == nil {
		_, err := Run(sys, spec)
		return err
	}
	spec.Progress = s.Progress
	snap, err := Run(sys, spec)
	for _, r := range s.Runs() {
		if r.sys == sys {
			r.Snap = snap
		}
	}
	return err
}

// ObservePoints runs one fully observed scaling point per workload at
// procs processors and seed — the extra runs the artifact flags ask of the
// sweep drivers — when any artifact was requested. Workloads are kept
// apart by pid on the trace timeline and by scope in the folded profile,
// and each gets its own flight recorder, so dumps never mix timelines.
func (s *Session) ObservePoints(procs int, seed uint64, o Opts) {
	if !s.Flags.Enabled() {
		return
	}
	for _, kind := range []Kind{SPECjbb, ECperf} {
		fmt.Fprintf(s.stderr, "observed run: %s, %d processors, seed %d...\n", kind, procs, seed)
		s.Inspect.SetNote(fmt.Sprintf("observed run: %s, %d processors", kind, procs))
		sys := BuildSystem(o.systemParams(kind, procs, seed))
		s.attach(sys, kind.String(), s.Command+"-"+kind.String())
		s.Run(sys, RunSpec{Warmup: o.WarmupCycles, Measure: o.MeasureCycles})
	}
}

// Finish writes every requested artifact of the session's runs, each with
// a manifest beside it, then reports the flight recorders' dumps on
// stderr. m supplies the run-specific manifest fields; an empty Command
// defaults to the session's, and Git, Started and WallSeconds are filled
// in here.
func (s *Session) Finish(m obs.Manifest) error {
	runs := s.Runs()
	if s.Flags.Enabled() {
		if m.Command == "" {
			m.Command = s.Command
		}
		m.Git = obs.GitDescribe()
		m.Started = s.started
		m.WallSeconds = time.Since(s.started).Seconds()
		labels := make([]string, len(runs))
		observers := make([]*obs.Observer, len(runs))
		snaps := make([]*obs.Snapshot, len(runs))
		for i, r := range runs {
			labels[i], observers[i], snaps[i] = r.Label, r.Obs, r.Snap
		}
		if err := s.Flags.WriteArtifacts(labels, observers, snaps, &m); err != nil {
			return fmt.Errorf("writing observability artifacts: %w", err)
		}
	}
	for _, r := range runs {
		if sum := r.Flight.Summary(); sum != "" {
			fmt.Fprintln(s.stderr, sum)
		}
	}
	return nil
}

// NewLatencyCollector builds a request-latency collector from the
// observability flags, or nil when latency tracking was not requested —
// the nil collector keeps the engine's zero-overhead path. A malformed
// -slo spec is a user error and is returned as one.
func NewLatencyCollector(f *obs.Flags) (*reqtrace.Collector, error) {
	if f == nil || !f.LatencyEnabled() {
		return nil, nil
	}
	objs, err := reqtrace.ParseObjectives(f.SLO)
	if err != nil {
		return nil, fmt.Errorf("parsing -slo: %w", err)
	}
	return reqtrace.NewCollector(reqtrace.Options{
		IntervalCycles: f.LatencyInterval,
		Objectives:     objs,
	}), nil
}

// AttachFlight binds a flight recorder to an assembled system: the fault
// schedule arms the window trigger, and the engine's latency collector (if
// one is attached) feeds the SLO-burn trigger and the in-flight span table.
// Run then ticks the recorder at slice boundaries. A nil recorder leaves
// the system untouched.
//
// Call after BuildSystem and after attaching the latency collector, before
// the first Run.
func AttachFlight(sys *System, rec *flightrec.Recorder) {
	if rec == nil {
		return
	}
	sys.Flight = rec
	rec.SetSchedule(sys.Params.FaultSchedule)
	rec.SetCollector(sys.Engine.ReqTrace())
}
