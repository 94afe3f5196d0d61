package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// CyclesPerMicrosecond converts the simulated 250 MHz cycle clock to the
// microsecond timestamps the Chrome trace_event format expects.
const CyclesPerMicrosecond = 250.0

// DefaultMaxEvents caps a tracer's buffer; past it events are counted as
// dropped rather than recorded, so a runaway trace cannot exhaust memory.
const DefaultMaxEvents = 1 << 20

// DefaultMemSample records one in every N bus transactions when memory
// tracing is on. Bus transactions outnumber every other traced event by
// orders of magnitude; sampling keeps them visible without drowning the
// trace. Set SampleEvery(CompMem, 1) for an exhaustive record.
const DefaultMemSample = 16

// Event is one trace_event record on the simulated clock. Time and Dur are
// in cycles; they are converted to microseconds only at export.
//
// An event is fixed-width: up to MaxArgs typed annotations live inline (a
// key, a value kind and a 64-bit value each, plus one shared string slot),
// so recording one allocates nothing. Key names and values become text only
// when the event is rendered for export or a flight-recorder dump.
type Event struct {
	Name string
	// Pid/Tid place the event on a Perfetto track: Pid groups a machine or
	// workload, Tid is a thread ID or CPU within it. They are int32 so the
	// whole event fits in 104 B.
	Pid, Tid int32
	Comp     Component
	// Phase is 'X' (complete span) or 'i' (instant).
	Phase byte

	nargs uint8
	keys  [MaxArgs]ArgKey
	kinds [MaxArgs]argKind
	Time  uint64
	Dur   uint64
	vals  [MaxArgs]uint64
	str   string // the value of the (at most one) Str argument
}

// MaxArgs is how many annotations an Event holds inline.
const MaxArgs = 4

// ArgKey names an event annotation. The set is closed: every key the
// simulator records is declared here, and argKeyNames renders it.
type ArgKey uint8

const (
	KeyKind ArgKey = iota
	KeyPeer
	KeyMagnitude
	KeyReason
	KeySrc
	KeyAddr
	KeyLock
	KeyReqBytes
	KeyRespBytes
	KeyLiveBytes
	KeyCopiedObjs
	KeyFreedBytes
	KeyWorkers
	KeyLastDispatch
	numArgKeys
)

var argKeyNames = [numArgKeys]string{
	KeyKind:         "kind",
	KeyPeer:         "peer",
	KeyMagnitude:    "magnitude",
	KeyReason:       "reason",
	KeySrc:          "src",
	KeyAddr:         "addr",
	KeyLock:         "lock",
	KeyReqBytes:     "req_bytes",
	KeyRespBytes:    "resp_bytes",
	KeyLiveBytes:    "live_bytes",
	KeyCopiedObjs:   "copied_objs",
	KeyFreedBytes:   "freed_bytes",
	KeyWorkers:      "workers",
	KeyLastDispatch: "last_dispatch",
}

// String returns the key's name as it appears in exported traces.
func (k ArgKey) String() string { return argKeyNames[k] }

// argKind is the type of an annotation's value.
type argKind uint8

const (
	argU64 argKind = iota
	argStr
	argF64
)

// Arg is one typed event annotation; build it with U64, Str or F64.
type Arg struct {
	Key  ArgKey
	kind argKind
	num  uint64 // U64 value, or F64 bits
	str  string
}

// U64 annotates an event with an unsigned integer.
func U64(k ArgKey, v uint64) Arg { return Arg{Key: k, kind: argU64, num: v} }

// Str annotates an event with a string. An event holds at most one.
func Str(k ArgKey, v string) Arg { return Arg{Key: k, kind: argStr, str: v} }

// F64 annotates an event with a float.
func F64(k ArgKey, v float64) Arg { return Arg{Key: k, kind: argF64, num: math.Float64bits(v)} }

// SetArgs stores args inline in the event, replacing any it held. It panics
// on more than MaxArgs args or more than one Str: both are programming
// errors at a fixed instrumentation site.
func (e *Event) SetArgs(args ...Arg) {
	if len(args) > MaxArgs {
		panic("obs: too many event args")
	}
	e.nargs = uint8(len(args))
	e.str = ""
	strs := 0
	for i := range args {
		a := &args[i]
		e.keys[i], e.kinds[i], e.vals[i] = a.Key, a.kind, a.num
		if a.kind == argStr {
			if strs++; strs > 1 {
				panic("obs: more than one string arg on an event")
			}
			e.str = a.str
		}
	}
}

// Tracer records simulated-time events. A nil *Tracer is valid and
// disabled: every method returns immediately, so instrumentation sites pay
// one nil check when tracing is off.
//
// The tracer is not safe for concurrent use; one run owns one tracer.
type Tracer struct {
	enabled [numComponents]bool
	sample  [numComponents]uint64 // record 1 in N (0/1 = all)
	seen    [numComponents]uint64

	events  []Event
	max     int
	dropped uint64

	// ring, when set, receives every admitted event in addition to (or, with
	// ringOnly, instead of) the linear buffer — the flight recorder's view of
	// the recent past. The ring overwrites oldest entries, so it keeps
	// recording after the linear buffer hits its cap.
	ring     *EventRing
	ringOnly bool

	// Pid is the default process track for events recorded through this
	// tracer; procNames label pid tracks in the exported trace.
	Pid       int
	procNames map[int]string
	tidNames  map[[2]int]string
}

// NewTracer returns a tracer with the given components enabled.
func NewTracer(comps []Component) *Tracer {
	t := &Tracer{max: DefaultMaxEvents, procNames: map[int]string{}, tidNames: map[[2]int]string{}}
	for _, c := range comps {
		if int(c) < int(numComponents) {
			t.enabled[c] = true
		}
	}
	t.sample[CompMem] = DefaultMemSample
	return t
}

// NewRingTracer returns a tracer that records only into a bounded event
// ring: the flight recorder's always-on mode, where memory stays capped by
// eviction rather than by refusing new events. Component enablement and
// sampling behave exactly like NewTracer's.
func NewRingTracer(comps []Component, capacity int) *Tracer {
	t := NewTracer(comps)
	t.ring = NewEventRing(capacity)
	t.ringOnly = true
	return t
}

// SetRing attaches a ring that mirrors every admitted event — used when a
// full -trace buffer and the flight recorder share one tracer.
func (t *Tracer) SetRing(r *EventRing) {
	if t != nil {
		t.ring = r
	}
}

// Ring returns the attached event ring (nil if none).
func (t *Tracer) Ring() *EventRing {
	if t == nil {
		return nil
	}
	return t.ring
}

// SetMaxEvents overrides the event cap.
func (t *Tracer) SetMaxEvents(n int) {
	if t != nil && n > 0 {
		t.max = n
	}
}

// SampleEvery records one in n events of the component (n <= 1 records
// all). Only the memory component defaults to sampling.
func (t *Tracer) SampleEvery(c Component, n uint64) {
	if t != nil && int(c) < int(numComponents) {
		t.sample[c] = n
	}
}

// Enabled reports whether the component is traced. Call it before building
// expensive arguments; Span and Instant re-check internally.
func (t *Tracer) Enabled(c Component) bool {
	return t != nil && t.enabled[c]
}

// NameProcess labels a pid track in the exported trace.
func (t *Tracer) NameProcess(pid int, name string) {
	if t != nil {
		t.procNames[pid] = name
	}
}

// NameThread labels a (pid, tid) track in the exported trace.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t != nil {
		t.tidNames[[2]int{pid, tid}] = name
	}
}

func (t *Tracer) admit(c Component) bool {
	if t == nil || !t.enabled[c] {
		return false
	}
	if n := t.sample[c]; n > 1 {
		t.seen[c]++
		if t.seen[c]%n != 0 {
			return false
		}
	}
	return true
}

// record stores an admitted event: always into the ring when one is
// attached, and into the linear buffer unless this is a ring-only tracer or
// the buffer is at its cap (counted as dropped).
func (t *Tracer) record(e *Event) {
	t.ring.Push(e)
	if t.ringOnly {
		return
	}
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, *e)
}

// Span records a complete [start, end) interval on track (t.Pid, tid).
func (t *Tracer) Span(c Component, name string, tid int, start, end uint64, args ...Arg) {
	if !t.admit(c) {
		return
	}
	if end < start {
		end = start
	}
	e := Event{
		Name: name, Comp: c, Phase: 'X', Pid: int32(t.Pid), Tid: int32(tid),
		Time: start, Dur: end - start,
	}
	e.SetArgs(args...)
	t.record(&e)
}

// Instant records a point event on track (t.Pid, tid).
func (t *Tracer) Instant(c Component, name string, tid int, at uint64, args ...Arg) {
	if !t.admit(c) {
		return
	}
	e := Event{Name: name, Comp: c, Phase: 'i', Pid: int32(t.Pid), Tid: int32(tid), Time: at}
	e.SetArgs(args...)
	t.record(&e)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// MaxEvents returns the linear buffer's event cap.
func (t *Tracer) MaxEvents() int {
	if t == nil {
		return 0
	}
	return t.max
}

// Dropped returns how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the recorded events (for tests and merging).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// WriteChromeTrace writes the tracers' merged events as Chrome trace_event
// JSON (the "JSON array format"), loadable in Perfetto or chrome://tracing.
// Cycle timestamps become microseconds at the simulated 250 MHz clock.
func WriteChromeTrace(w io.Writer, tracers ...*Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		// Track-name metadata first, in deterministic order.
		pids := make([]int, 0, len(t.procNames))
		for pid := range t.procNames {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			emit(fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%s}}`,
				pid, quoteJSON(t.procNames[pid])))
		}
		keys := make([][2]int, 0, len(t.tidNames))
		for k := range t.tidNames {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			emit(fmt.Sprintf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`,
				k[0], k[1], quoteJSON(t.tidNames[k])))
		}
		for i := range t.events {
			emit(formatEvent(&t.events[i]))
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ChromeTraceEvents renders a plain event slice as Chrome trace_event JSON
// bytes — the flight recorder's dump path, where events come from a ring
// rather than live tracers. procNames (may be nil) labels pid tracks.
func ChromeTraceEvents(events []Event, procNames map[int]string) []byte {
	var b strings.Builder
	b.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	pids := make([]int, 0, len(procNames))
	for pid := range procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		emit(fmt.Sprintf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, quoteJSON(procNames[pid])))
	}
	for i := range events {
		emit(formatEvent(&events[i]))
	}
	b.WriteString("\n]\n")
	return []byte(b.String())
}

func formatEvent(e *Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"%c","pid":%d,"tid":%d,"ts":%.3f`,
		quoteJSON(e.Name), quoteJSON(e.Comp.String()), e.Phase, e.Pid, e.Tid,
		float64(e.Time)/CyclesPerMicrosecond)
	if e.Phase == 'X' {
		fmt.Fprintf(&b, `,"dur":%.3f`, float64(e.Dur)/CyclesPerMicrosecond)
	}
	if e.Phase == 'i' {
		b.WriteString(`,"s":"t"`)
	}
	if e.nargs > 0 {
		b.WriteString(`,"args":{`)
		for i := 0; i < int(e.nargs); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(quoteJSON(e.keys[i].String()))
			b.WriteByte(':')
			switch e.kinds[i] {
			case argStr:
				b.WriteString(quoteJSON(e.str))
			case argF64:
				fmt.Fprintf(&b, "%g", math.Float64frombits(e.vals[i]))
			default:
				fmt.Fprintf(&b, "%d", e.vals[i])
			}
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

// quoteJSON escapes a string for embedding in JSON output. Names here are
// short ASCII identifiers; the escape covers the general case anyway.
func quoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
