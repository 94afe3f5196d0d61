// Package osmodel is the timing layer of the simulator: a Solaris-like
// thread scheduler over P simulated processors that plays recorded
// operation traces (internal/trace) through per-processor cores
// (internal/cpu) and a coherent memory hierarchy (internal/memsys).
//
// It reproduces the measurement views the paper took on real hardware:
//
//   - psrset: workload threads are restricted to a processor set; OS
//     daemon threads run on every processor (which is why Figure 8 shows
//     cache-to-cache transfers even with the application bound to one CPU).
//   - mpstat: every processor cycle is attributed to user, system, I/O
//     wait, idle, or GC idle (Figure 5).
//   - cpustat: CPI decomposition comes from the cores, bus counters from
//     the coherence layer (Figures 6, 7, 8).
//
// Scheduling is deterministic: FIFO ready queue, fixed quantum, stable
// tie-breaking — so a whole experiment replays exactly from a seed.
package osmodel

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/evq"
	"repro/internal/fault"
	"repro/internal/ifetch"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// OpSource supplies a thread's operations. NextOp is called lazily, at the
// simulated time the thread is about to run the operation, so functional
// recording order tracks simulated time order. Returning nil ends the
// thread.
type OpSource interface {
	NextOp(tid int, now uint64) *trace.Op
}

// Config parameterizes the engine.
type Config struct {
	CPUs int
	// PSet is the processor set the measured workload is bound to
	// (psrset). Accounting in Results covers only these CPUs.
	PSet []int
	// Quantum is the scheduling time slice in cycles.
	Quantum uint64
	// Slice caps how many cycles one engine dispatch executes before
	// control returns to the global loop. It is an engine granule, not a
	// scheduling policy: small slices keep engine order close to simulated
	// time order so that critical sections on different processors that
	// overlap in simulated time actually contend. A sliced thread resumes
	// at the front of the ready queue with its remaining quantum.
	Slice uint64
	// SpinCycles is the adaptive-mutex spin time charged busy on
	// contended spin locks before blocking.
	SpinCycles uint64
	// HandoffCycles is the delay from release to resumption for spinning
	// waiters (the lock word changes hands; the spinner notices at once).
	HandoffCycles uint64
	// MonitorHandoff is the delay for blocked (sleeping) waiters: a full
	// wakeup and dispatch through the scheduler, as for Java monitors and
	// pool semaphores. It is an order of magnitude more than a spin
	// handoff, which is why convoys on hot monitors flatten throughput.
	MonitorHandoff uint64

	// Core is the per-processor timing configuration.
	Core cpu.Config
	// GCThreads is the collector's parallelism. The JVMs of the paper's
	// era collected with ONE thread while every other processor idled
	// (§4.1); setting this above 1 models the parallel collectors that
	// followed, for the GC ablation. Collector work is split across up to
	// GCThreads processors of the processor set.
	GCThreads int
}

// DefaultConfig returns engine defaults for an n-processor machine with
// the workload bound to all n processors.
func DefaultConfig(n int) Config {
	pset := make([]int, n)
	for i := range pset {
		pset[i] = i
	}
	return Config{
		CPUs:           n,
		PSet:           pset,
		Quantum:        400_000,
		Slice:          1_500,
		SpinCycles:     3_000,
		HandoffCycles:  300,
		MonitorHandoff: 2_000,
		Core:           cpu.DefaultConfig(),
		GCThreads:      1,
	}
}

// Modes is the per-mode cycle accounting of one or more processors
// (the mpstat view).
type Modes struct {
	User, System, IOWait, Idle, GCIdle uint64
}

// Busy returns user+system cycles.
func (m *Modes) Busy() uint64 { return m.User + m.System }

// Total returns all accounted cycles.
func (m *Modes) Total() uint64 { return m.User + m.System + m.IOWait + m.Idle + m.GCIdle }

// Add accumulates another accounting.
func (m *Modes) Add(o *Modes) {
	m.User += o.User
	m.System += o.System
	m.IOWait += o.IOWait
	m.Idle += o.Idle
	m.GCIdle += o.GCIdle
}

type threadState uint8

const (
	stReady threadState = iota
	stRunning
	stBlockedLock
	stBlockedIO
	stSleeping
	stDone
)

type thread struct {
	id      int
	name    string
	source  OpSource
	mask    uint64 // allowed CPUs bitmask
	state   threadState
	op      *trace.Op
	opStart uint64 // dispatch time of the current op (for response times)
	idx     int
	mode    bool // true = kernel mode (set by instruction segments)
	// lockBlockedAt is the time the thread blocked on a monitor (for wait
	// accounting at grant time).
	lockBlockedAt uint64
	// lastCPU implements soft affinity (Solaris keeps threads where their
	// cache state is); -1 before first dispatch. A stolen thread keeps its
	// home for a few dispatches (hysteresis) so transient steals do not
	// permanently scramble the thread-to-processor partition.
	lastCPU  int
	stealRun int
	// quantumLeft is the unexpired part of the thread's time slice across
	// engine slices.
	quantumLeft uint64
	// bound marks a thread requeued by engine slicing mid-quantum: it is
	// logically still running on lastCPU and no other processor may take
	// it. Genuinely ready threads (woken, or past their quantum) are
	// unbound and may migrate immediately.
	bound bool
	// readyAt is the simulated time the thread became ready. Processors
	// run at skewed local clocks; one whose clock is behind must not
	// dispatch a thread that is not ready yet in its own past.
	readyAt uint64
	// locksHeld defers quantum preemption while the thread is inside a
	// critical section (preemption control), preventing artificial lock
	// convoys.
	locksHeld int
	// span is the open latency span of the current operation (nil when the
	// operation is untracked or no collector is attached).
	span *reqtrace.Span
	// extFrom is the time the thread blocked on a co-simulated peer, for
	// charging the external round trip to the span at wake.
	extFrom uint64
}

type lockState struct {
	held    bool
	spin    bool
	owner   *thread
	waiters []*thread
}

type semState struct {
	available int
	waiters   []*thread
}

// idleSentinel marks a processor that is not in an idle stretch.
const idleSentinel = ^uint64(0)

// Engine is the machine: processors, scheduler, locks, and accounting.
type Engine struct {
	cfg    Config
	hier   *memsys.Hierarchy
	layout *ifetch.CodeLayout
	net    *netsim.Network

	cores  []*cpu.Core
	freeAt []uint64
	// idleFrom marks processors in a speculative idle stretch: the idle
	// gap is charged lazily when the processor next dispatches, so a
	// wakeup can pull the processor back to the wake time with accounting
	// intact. idleSentinel means "not idle". idleIO captures whether the
	// stretch counts as I/O wait (outstanding I/O when it began).
	idleFrom []uint64
	idleIO   []bool
	acct     []Modes
	inPSet   []bool

	threads []*thread
	readyQ  []*thread
	// events holds sleeping threads keyed by wake time. Its (time, push
	// order) total order keeps dispatch independent of the heap layout.
	events evq.Queue[*thread]

	// Per-run scratch state reused across stop-the-world collections.
	gcWorkers   []int
	gcWorkerEnd []uint64

	locks map[uint64]*lockState
	sems  map[uint64]*semState

	ioBlocked int

	// OnExternalCall fires when a thread calls a co-simulated peer
	// (netsim.Network.AddExternalPeer): the cluster coordinator delivers
	// the request to the other machine and later wakes the thread with
	// WakeExternal. The thread blocks indefinitely otherwise.
	OnExternalCall func(tid int, peer uint8, reqBytes, respBytes uint32, t uint64)
	// OnOpComplete fires when any operation finishes playback, with its
	// completion time — the cluster coordinator uses it to send replies.
	OnOpComplete func(op *trace.Op, tid int, t uint64)

	// Measurement counters (cleared by ResetStats).
	businessOps                uint64
	opsByTag                   map[string]uint64
	latByTag                   map[string]*obs.HDR
	gcWall                     uint64
	gcCount                    uint64
	gcPauses                   obs.HDR
	lockWaitCycles             uint64
	lockBlocks                 uint64
	lockAcquires               uint64
	waitMon, waitSpin, waitSem uint64

	// Observability (nil when disabled — the zero-overhead default).
	tracer *obs.Tracer
	prof   *obs.Profiler
	rt     *reqtrace.Collector

	// Fault injection (nil when disabled): gc-storm windows amplify
	// stop-the-world pauses.
	faults *fault.Injector

	// Watchdog (0 = disabled): see watchdog.go.
	watchdogCycles uint64
	lastDispatch   uint64
	wdReport       *WatchdogReport
}

// threadTrackBase offsets thread IDs away from CPU IDs on the trace
// timeline, so processor tracks (GC, bus) and thread tracks (locks, ops,
// network) never collide.
const threadTrackBase = 100

// AttachObs wires an observer through the machine: the engine and its bus
// get the tracer, every core gets the profiler with component names
// resolved from the code layout, and thread/CPU tracks are labeled. Call
// it once, before Run.
func (e *Engine) AttachObs(o *obs.Observer) {
	if o == nil {
		return
	}
	e.tracer = o.Tracer
	e.prof = o.Profiler
	e.hier.Bus().Tracer = o.Tracer
	// Only processor-set cores feed the profiler: Results aggregates the
	// Figure 6/7 CPI decomposition over the processor set, and the profile
	// must total to exactly the same cycles.
	for _, p := range e.cfg.PSet {
		e.cores[p].Prof = o.Profiler
	}
	for _, comp := range e.layout.Components() {
		o.Profiler.NameComponent(int(comp.ID), comp.Name)
	}
	if o.Tracer != nil {
		for i := 0; i < e.cfg.CPUs; i++ {
			o.Tracer.NameThread(o.Tracer.Pid, i, fmt.Sprintf("cpu%d", i))
		}
		for _, th := range e.threads {
			o.Tracer.NameThread(o.Tracer.Pid, threadTrackBase+th.id,
				fmt.Sprintf("%s#%d", th.name, th.id))
		}
	}
}

// GCPauses returns the distribution of stop-the-world pause lengths in
// cycles since the last ResetStats (the jvm.gc.pause_cycles metric).
func (e *Engine) GCPauses() *obs.HDR { return &e.gcPauses }

// SetReqTrace attaches a request-latency collector: every tracked operation
// gets a span decomposed into phase segments as the engine plays it. nil
// (the default) keeps the zero-overhead path; an attached collector is
// passive — it never changes scheduling, timing, or RNG draws. Call it
// before Run.
func (e *Engine) SetReqTrace(rt *reqtrace.Collector) { e.rt = rt }

// ReqTrace returns the attached latency collector, or nil.
func (e *Engine) ReqTrace() *reqtrace.Collector { return e.rt }

// NewEngine builds a machine. The hierarchy must have cfg.CPUs slots; the
// layout provides code components; net resolves NetCall items (may be nil
// for single-machine workloads).
func NewEngine(cfg Config, hier *memsys.Hierarchy, layout *ifetch.CodeLayout, net *netsim.Network, rng *simrand.Rand) *Engine {
	if hier.Config().CPUs != cfg.CPUs {
		panic(fmt.Sprintf("osmodel: hierarchy has %d CPUs, engine %d", hier.Config().CPUs, cfg.CPUs))
	}
	if len(cfg.PSet) == 0 || len(cfg.PSet) > cfg.CPUs {
		panic("osmodel: invalid processor set")
	}
	e := &Engine{
		cfg:      cfg,
		hier:     hier,
		layout:   layout,
		net:      net,
		freeAt:   make([]uint64, cfg.CPUs),
		idleFrom: make([]uint64, cfg.CPUs),
		idleIO:   make([]bool, cfg.CPUs),
		acct:     make([]Modes, cfg.CPUs),
		inPSet:   make([]bool, cfg.CPUs),
		locks:    make(map[uint64]*lockState),
		sems:     make(map[uint64]*semState),
		opsByTag: make(map[string]uint64),
		latByTag: make(map[string]*obs.HDR),
	}
	for _, c := range cfg.PSet {
		if c < 0 || c >= cfg.CPUs {
			panic("osmodel: processor set member out of range")
		}
		e.inPSet[c] = true
	}
	for i := 0; i < cfg.CPUs; i++ {
		gen := ifetch.NewGen(layout, rng.Derive(uint64(i)))
		e.cores = append(e.cores, cpu.NewCore(cfg.Core, i, hier, gen))
		e.idleFrom[i] = idleSentinel
	}
	return e
}

// AddThread registers a workload thread restricted to the processor set.
// It returns the thread ID.
func (e *Engine) AddThread(name string, src OpSource) int {
	var mask uint64
	for _, c := range e.cfg.PSet {
		mask |= 1 << uint(c)
	}
	return e.addThread(name, src, mask)
}

// AddPinnedThread registers a thread pinned to one CPU (OS daemons run one
// per processor, outside the processor set).
func (e *Engine) AddPinnedThread(name string, src OpSource, cpuID int) int {
	if cpuID < 0 || cpuID >= e.cfg.CPUs {
		panic("osmodel: pin target out of range")
	}
	return e.addThread(name, src, 1<<uint(cpuID))
}

func (e *Engine) addThread(name string, src OpSource, mask uint64) int {
	th := &thread{id: len(e.threads), name: name, source: src, mask: mask, state: stReady, lastCPU: -1}
	e.threads = append(e.threads, th)
	e.readyQ = append(e.readyQ, th)
	return th.id
}

func (e *Engine) wakeAt(th *thread, t uint64) {
	e.events.Push(t, th)
	// If an eligible processor is sitting in an idle stretch that covers
	// t, pull it back so the thread is dispatched at its wake time —
	// preferring its cache-warm home processor.
	pull := -1
	if th.lastCPU >= 0 && th.mask&(1<<uint(th.lastCPU)) != 0 &&
		e.idleFrom[th.lastCPU] != idleSentinel && e.idleFrom[th.lastCPU] <= t {
		pull = th.lastCPU
	} else {
		for i := 0; i < e.cfg.CPUs; i++ {
			if th.mask&(1<<uint(i)) != 0 && e.idleFrom[i] != idleSentinel && e.idleFrom[i] <= t {
				pull = i
				break
			}
		}
	}
	if pull >= 0 && e.freeAt[pull] > t {
		e.freeAt[pull] = t
	}
}

func (e *Engine) drainEvents(now uint64) {
	for e.events.Len() > 0 {
		if at, _ := e.events.Peek(); at > now {
			break
		}
		at, th := e.events.Pop()
		if th.state == stBlockedIO {
			e.ioBlocked--
		}
		th.state = stReady
		th.bound = false
		th.readyAt = at
		e.readyQ = append(e.readyQ, th)
	}
}

func (e *Engine) nextEventTime() (uint64, bool) {
	if e.events.Len() == 0 {
		return 0, false
	}
	at, _ := e.events.Peek()
	return at, true
}

// pickThread removes and returns the best ready thread for cpuID: first a
// thread that last ran here (soft affinity — its cache state is warm) or
// has never run, then any unbound eligible thread (a bound thread is still
// mid-quantum on its own processor and is never stolen).
func (e *Engine) pickThread(cpuID int, now uint64) *thread {
	bit := uint64(1) << uint(cpuID)
	steal := -1
	pick := -1
	for i, th := range e.readyQ {
		if th.mask&bit == 0 || th.readyAt > now {
			continue
		}
		if th.lastCPU == cpuID || th.lastCPU == -1 {
			pick = i
			break
		}
		if steal == -1 && !th.bound {
			steal = i
		}
	}
	if pick == -1 && steal >= 0 {
		pick = steal
	}
	if pick == -1 {
		return nil
	}
	th := e.readyQ[pick]
	e.readyQ = append(e.readyQ[:pick], e.readyQ[pick+1:]...)
	if th.lastCPU == cpuID || th.lastCPU == -1 {
		th.stealRun = 0
		th.lastCPU = cpuID
	} else {
		th.stealRun++
		if th.stealRun >= 4 {
			// Persistent imbalance: adopt the new home. Transient steals
			// keep the old home so the thread-to-processor partition does
			// not scramble (cache-affinity hysteresis).
			th.stealRun = 0
			th.lastCPU = cpuID
		}
	}
	// This processor has moved on: another thread it sliced mid-quantum
	// and has now left waiting for a while is genuinely preempted, not
	// "still running", and becomes fair game for idle processors. Without
	// this, a busy home CPU strands a pile of bound threads for whole
	// quanta while the rest of the machine idles. The grace period keeps
	// briefly-parked threads home (cache affinity).
	grace := e.cfg.Quantum / 4
	for _, other := range e.readyQ {
		if other.bound && other.lastCPU == cpuID && now > other.readyAt+grace {
			other.bound = false
		}
	}
	return th
}

// flushIdle charges the pending idle stretch of a processor up to `to`,
// attributed as it was when the stretch began.
func (e *Engine) flushIdle(cpuID int, to uint64) {
	if e.idleFrom[cpuID] == idleSentinel {
		return
	}
	e.chargeIdleAs(cpuID, e.idleFrom[cpuID], to, e.idleIO[cpuID])
	e.idleFrom[cpuID] = idleSentinel
}

func (e *Engine) chargeIdleAs(cpuID int, from, to uint64, io bool) {
	if to <= from {
		return
	}
	if io {
		e.acct[cpuID].IOWait += to - from
	} else {
		e.acct[cpuID].Idle += to - from
	}
}

func (e *Engine) chargeBusy(cpuID int, kernel bool, cycles uint64) {
	if kernel {
		e.acct[cpuID].System += cycles
	} else {
		e.acct[cpuID].User += cycles
	}
}

// Run advances the simulation until every processor reaches the horizon (in
// cycles) or no runnable work remains.
func (e *Engine) Run(horizon uint64) {
	for {
		// Pick the earliest-free CPU.
		c := 0
		for i := 1; i < e.cfg.CPUs; i++ {
			if e.freeAt[i] < e.freeAt[c] {
				c = i
			}
		}
		t := e.freeAt[c]
		if t >= horizon {
			for i := 0; i < e.cfg.CPUs; i++ {
				if e.idleFrom[i] != idleSentinel && horizon > e.idleFrom[i] {
					e.chargeIdleAs(i, e.idleFrom[i], horizon, e.idleIO[i])
					e.idleFrom[i] = horizon
				}
			}
			return
		}
		e.drainEvents(t)
		th := e.pickThread(c, t)
		if th == nil {
			if e.watchdogCycles > 0 && e.checkWatchdog(t) {
				return
			}
			// Nothing eligible now: advance to the next moment anything
			// can change — an event, another CPU finishing its run, or a
			// foreign ready thread becoming stealable.
			next := horizon
			if et, ok := e.nextEventTime(); ok && et < next {
				next = et
			}
			for i := 0; i < e.cfg.CPUs; i++ {
				if e.freeAt[i] > t && e.freeAt[i] < next {
					next = e.freeAt[i]
				}
			}
			if next <= t {
				next = t + 1
			}
			if e.idleFrom[c] == idleSentinel {
				e.idleFrom[c] = t
				e.idleIO[c] = e.ioBlocked > 0
			}
			e.freeAt[c] = next
			continue
		}
		e.flushIdle(c, t)
		e.lastDispatch = t
		e.runThread(th, c, t)
	}
}

// runThread executes th on CPU c from time t until its engine slice ends,
// it blocks, or it completes, updating freeAt[c].
func (e *Engine) runThread(th *thread, c int, start uint64) {
	core := e.cores[c]
	t := start
	th.state = stRunning
	if th.quantumLeft == 0 {
		th.quantumLeft = e.cfg.Quantum
	}
	slice := e.cfg.Slice
	if slice == 0 || slice > th.quantumLeft {
		slice = th.quantumLeft
	}
	deadline := start + slice

	// requeue returns the thread to the ready queue: to the front with its
	// remaining quantum after an engine slice, to the back with a fresh
	// quantum when the quantum expired (and no lock is held — preemption
	// control defers preemption inside critical sections).
	requeue := func() {
		th.state = stReady
		th.readyAt = t
		elapsed := t - start
		if elapsed >= th.quantumLeft && th.locksHeld == 0 {
			// Quantum expired: a real preemption point; any processor may
			// pick the thread up.
			th.quantumLeft = 0
			th.bound = false
			e.readyQ = append(e.readyQ, th)
			return
		}
		if elapsed >= th.quantumLeft {
			th.quantumLeft = 0
		} else {
			th.quantumLeft -= elapsed
		}
		// Engine-slice boundary: still logically running here. Front-insert
		// by shifting in place: the queue is short and this avoids a fresh
		// backing array per slice (the dominant allocation site of a run).
		th.bound = true
		e.readyQ = append(e.readyQ, nil)
		copy(e.readyQ[1:], e.readyQ)
		e.readyQ[0] = th
	}

	for {
		if t >= deadline {
			requeue()
			break
		}
		if th.op == nil {
			op := th.source.NextOp(th.id, t)
			if op == nil {
				th.state = stDone
				break
			}
			th.op = op
			th.opStart = t
			th.idx = 0
			if e.rt != nil {
				th.span = e.rt.Begin(op, t)
			}
		}
		if th.idx >= len(th.op.Items) {
			if len(th.op.Items) == 0 {
				// A zero-item operation must still consume time, or a
				// source that keeps returning them would wedge the engine.
				t++
			}
			if th.op.Business {
				e.businessOps++
				e.opsByTag[th.op.Tag]++
				h := e.latByTag[th.op.Tag]
				if h == nil {
					h = &obs.HDR{}
					e.latByTag[th.op.Tag] = h
				}
				if t > th.opStart {
					h.Record(t - th.opStart)
				}
				if e.tracer.Enabled(obs.CompWorkload) {
					e.tracer.Span(obs.CompWorkload, th.op.Tag, threadTrackBase+th.id,
						th.opStart, t)
				}
			}
			if e.OnOpComplete != nil {
				e.OnOpComplete(th.op, th.id, t)
			}
			if th.span != nil {
				e.rt.End(th.span, t)
				th.span = nil
			}
			th.op = nil
			continue
		}
		it := &th.op.Items[th.idx]
		switch it.Kind {
		case trace.KindInstr:
			kernel := e.layout.Component(it.Comp).Kernel
			th.mode = kernel
			var base0 uint64
			if th.span != nil {
				base0 = core.Counters.BaseCycles
			}
			cy := core.ExecInstr(it.Comp, uint64(it.N), t)
			if th.span != nil {
				// Split the segment the way the core accounted it: retired
				// work is CPU, fetch stalls are memory time.
				base := core.Counters.BaseCycles - base0
				if base > cy {
					base = cy
				}
				th.span.AddSplit(base, cy-base)
			}
			e.chargeBusy(c, kernel, cy)
			t += cy
			th.idx++

		case trace.KindRead:
			cy := core.Load(it.Addr, uint64(it.N), t)
			th.span.Add(reqtrace.PhaseMemStall, cy)
			e.chargeBusy(c, th.mode, cy)
			t += cy
			th.idx++

		case trace.KindWrite:
			cy := core.Store(it.Addr, uint64(it.N), t)
			th.span.Add(reqtrace.PhaseMemStall, cy)
			e.chargeBusy(c, th.mode, cy)
			t += cy
			th.idx++

		case trace.KindLockAcq:
			ls := e.lock(it.ID)
			e.lockAcquires++
			if !ls.held {
				ls.held = true
				ls.owner = th
				th.locksHeld++
				th.idx++
				continue
			}
			if ls.owner == th {
				panic("osmodel: recursive lock acquisition: " + th.name)
			}
			// Contended. Adaptive (spin) locks burn busy cycles first —
			// kernel time for kernel locks — then block.
			if it.Aux == 1 {
				ls.spin = true
				e.chargeBusy(c, th.mode, e.cfg.SpinCycles)
				th.span.Add(reqtrace.PhaseLockWait, e.cfg.SpinCycles)
				t += e.cfg.SpinCycles
			}
			e.lockBlocks++
			ls.waiters = append(ls.waiters, th)
			th.state = stBlockedLock
			th.lockBlockedAt = t
			th.quantumLeft = 0
			core.DrainStoreBuffer()
			e.freeAt[c] = t
			return

		case trace.KindLockRel:
			ls := e.lock(it.ID)
			if !ls.held || ls.owner != th {
				panic("osmodel: release of lock not held: " + th.name)
			}
			th.locksHeld--
			if len(ls.waiters) > 0 {
				next := ls.waiters[0]
				ls.waiters = ls.waiters[1:]
				ls.owner = next
				next.locksHeld++
				// Direct handoff: the waiter resumes past its acquire item.
				next.idx++
				handoff := e.cfg.MonitorHandoff
				if ls.spin {
					handoff = e.cfg.HandoffCycles
				}
				grant := t + handoff
				// Per-CPU clocks may skew by up to a quantum; a release
				// observed "before" the block is a zero wait.
				if grant > next.lockBlockedAt {
					e.lockWaitCycles += grant - next.lockBlockedAt
					next.span.Add(reqtrace.PhaseLockWait, grant-next.lockBlockedAt)
					if ls.spin {
						e.waitSpin += grant - next.lockBlockedAt
					} else {
						e.waitMon += grant - next.lockBlockedAt
					}
					if e.tracer.Enabled(obs.CompOS) {
						kind := "monitor"
						if ls.spin {
							kind = "spin"
						}
						e.tracer.Span(obs.CompOS, "lock.wait", threadTrackBase+next.id,
							next.lockBlockedAt, grant,
							obs.Str(obs.KeyKind, kind), obs.U64(obs.KeyLock, it.ID))
					}
				}
				e.wakeAt(next, grant)
			} else {
				ls.held = false
				ls.owner = nil
			}
			th.idx++

		case trace.KindSemAcq:
			ss, ok := e.sems[it.ID]
			if !ok {
				ss = &semState{available: int(it.Aux)}
				e.sems[it.ID] = ss
			}
			e.lockAcquires++
			if ss.available > 0 {
				ss.available--
				th.idx++
				continue
			}
			// Pool exhausted: wait for a unit.
			e.lockBlocks++
			ss.waiters = append(ss.waiters, th)
			th.state = stBlockedLock
			th.lockBlockedAt = t
			th.quantumLeft = 0
			core.DrainStoreBuffer()
			e.freeAt[c] = t
			return

		case trace.KindSemRel:
			ss := e.sems[it.ID]
			if ss == nil {
				panic("osmodel: release of unknown semaphore")
			}
			if len(ss.waiters) > 0 {
				next := ss.waiters[0]
				ss.waiters = ss.waiters[1:]
				next.idx++ // the unit passes directly to the waiter
				grant := t + e.cfg.MonitorHandoff
				if grant > next.lockBlockedAt {
					e.lockWaitCycles += grant - next.lockBlockedAt
					next.span.Add(reqtrace.PhaseLockWait, grant-next.lockBlockedAt)
					e.waitSem += grant - next.lockBlockedAt
					if e.tracer.Enabled(obs.CompOS) {
						e.tracer.Span(obs.CompOS, "lock.wait", threadTrackBase+next.id,
							next.lockBlockedAt, grant,
							obs.Str(obs.KeyKind, "sem"), obs.U64(obs.KeyLock, it.ID))
					}
				}
				e.wakeAt(next, grant)
			} else {
				ss.available++
			}
			th.idx++

		case trace.KindNetCall:
			if e.net == nil {
				panic("osmodel: NetCall with no network configured")
			}
			th.idx++
			th.state = stBlockedIO
			th.quantumLeft = 0
			e.ioBlocked++
			if e.net.External(it.Peer) {
				// Co-simulated peer: the coordinator wakes us. The whole
				// round trip lands in the span's net phase at wake time;
				// the remote breakdown belongs to the peer machine's own
				// collector.
				th.extFrom = t
				if e.OnExternalCall == nil {
					panic("osmodel: external peer with no coordinator attached")
				}
				e.OnExternalCall(th.id, it.Peer, uint32(it.ID), it.Aux, t)
			} else {
				done, det := e.net.RoundTripDetail(it.Peer, t, uint32(it.ID), it.Aux)
				if th.span != nil {
					rtt := done - t
					remote := det.Queue + det.Service
					if remote > rtt {
						remote = rtt
					}
					th.span.Add(reqtrace.PhaseNet, rtt-remote)
					th.span.Add(reqtrace.PhaseDBQueue, det.Queue)
					th.span.Add(reqtrace.PhaseDBService, det.Service)
				}
				if e.tracer.Enabled(obs.CompNet) {
					e.tracer.Span(obs.CompNet, "net.call", threadTrackBase+th.id, t, done,
						obs.U64(obs.KeyPeer, uint64(it.Peer)),
						obs.U64(obs.KeyReqBytes, it.ID),
						obs.U64(obs.KeyRespBytes, uint64(it.Aux)))
				}
				e.wakeAt(th, done)
			}
			core.DrainStoreBuffer()
			e.freeAt[c] = t
			return

		case trace.KindThink:
			th.idx++
			th.state = stSleeping
			th.quantumLeft = 0
			th.span.Add(reqtrace.PhaseThink, uint64(it.N))
			e.wakeAt(th, t+uint64(it.N))
			e.freeAt[c] = t
			return

		case trace.KindGCPause:
			th.idx++
			t = e.stopTheWorld(c, t, it.GC)
			// After the world restarts the thread gets a fresh slice.
			start = t
			th.quantumLeft = e.cfg.Quantum
			deadline = t + slice

		default:
			panic("osmodel: unknown trace item kind")
		}
	}
	e.freeAt[c] = t
}

// stopTheWorld quiesces all processors, runs the collector's recorded work
// (on one processor, or split across GCThreads processors of the set), and
// charges GC idle to every non-collecting processor. It returns the time
// the world restarts.
func (e *Engine) stopTheWorld(c int, t uint64, gc *trace.GC) uint64 {
	// All processors must reach a safepoint: the collector starts when the
	// busiest processor finishes its current run.
	stwStart := t
	for i := 0; i < e.cfg.CPUs; i++ {
		if e.freeAt[i] > stwStart {
			stwStart = e.freeAt[i]
		}
	}
	// The triggering processor is parked at the trigger time; quiescence
	// waiting is charged uniformly below.
	e.freeAt[c] = t

	// Choose the collector processors: the triggering CPU plus the first
	// GCThreads-1 others of the processor set. The selection reuses the
	// engine's scratch slice across collections.
	workers := append(e.gcWorkers[:0], c)
	for _, p := range e.cfg.PSet {
		if len(workers) >= e.cfg.GCThreads || e.cfg.GCThreads <= 1 {
			break
		}
		if p != c {
			workers = append(workers, p)
		}
	}
	e.gcWorkers = workers

	// Split the collector's work round-robin by item and play each share
	// on its processor. Collector cycles are user-mode JVM time. The world
	// restarts when the slowest worker finishes (natural imbalance stands
	// in for synchronization overhead).
	var prevPhase string
	if e.prof != nil {
		prevPhase = e.prof.PushSubPhase("gc")
	}
	stwEnd := stwStart
	if cap(e.gcWorkerEnd) < len(workers) {
		e.gcWorkerEnd = make([]uint64, len(workers))
	}
	workerEnd := e.gcWorkerEnd[:len(workers)]
	for wi, wc := range workers {
		core := e.cores[wc]
		gt := stwStart
		for i := wi; i < len(gc.Items); i += len(workers) {
			it := &gc.Items[i]
			switch it.Kind {
			case trace.KindInstr:
				cy := core.ExecInstr(it.Comp, uint64(it.N), gt)
				e.chargeBusy(wc, false, cy)
				gt += cy
			case trace.KindRead:
				cy := core.Load(it.Addr, uint64(it.N), gt)
				e.chargeBusy(wc, false, cy)
				gt += cy
			case trace.KindWrite:
				cy := core.Store(it.Addr, uint64(it.N), gt)
				e.chargeBusy(wc, false, cy)
				gt += cy
			default:
				panic("osmodel: collector trace may contain only instructions and data references")
			}
		}
		workerEnd[wi] = gt
		if gt > stwEnd {
			stwEnd = gt
		}
	}

	// A gc-storm fault amplifies the pause: the same collection holds the
	// world stopped GCFactor times longer (heap pressure and fragmentation
	// forcing extra passes). The extension is pure stall — the collectors
	// idle through it — so non-storm runs are byte-identical.
	if f := e.faults.GCFactor(stwStart); f > 1 && stwEnd > stwStart {
		extended := stwStart + uint64(float64(stwEnd-stwStart)*f)
		for wi, wc := range workers {
			e.acct[wc].GCIdle += extended - workerEnd[wi]
			workerEnd[wi] = extended
		}
		stwEnd = extended
	}

	isWorker := func(i int) bool {
		for _, w := range workers {
			if w == i {
				return true
			}
		}
		return false
	}
	// Every non-collecting processor idles from the end of its own work
	// (or the trigger time) to the restart; collectors idle only for their
	// share of the imbalance (ignored — it is small).
	for i := 0; i < e.cfg.CPUs; i++ {
		if isWorker(i) {
			continue
		}
		from := e.freeAt[i]
		if e.idleFrom[i] != idleSentinel {
			// The processor was idling; everything before the trigger is
			// ordinary idle, the rest is GC idle.
			mark := t
			if e.idleFrom[i] > mark {
				mark = e.idleFrom[i]
			}
			e.flushIdle(i, mark)
			from = mark
		}
		if from < t {
			from = t
		}
		if stwEnd > from {
			e.acct[i].GCIdle += stwEnd - from
		}
		e.freeAt[i] = stwEnd
	}
	e.flushIdle(c, t)
	e.freeAt[c] = stwEnd
	e.gcWall += stwEnd - stwStart
	e.gcCount++
	e.gcPauses.Record(stwEnd - stwStart)
	if e.rt != nil {
		// The pause freezes the whole machine: nothing dispatches before
		// stwEnd, so every request in flight absorbs the full pause. That is
		// the jvm.gc.pause charge — overlap, not a disjoint slice, since a
		// request blocked on a remote tier is stalled by the pause and the
		// wire at once.
		pause := stwEnd - stwStart
		e.rt.RecordGCPause(pause)
		for _, oth := range e.threads {
			oth.span.Add(reqtrace.PhaseGC, pause)
		}
	}
	if e.prof != nil {
		e.prof.SetPhase(prevPhase)
	}
	if e.tracer.Enabled(obs.CompJVM) {
		name := "gc.minor"
		if gc.Major {
			name = "gc.major"
		}
		e.tracer.Span(obs.CompJVM, name, c, stwStart, stwEnd,
			obs.U64(obs.KeyLiveBytes, gc.LiveBytes),
			obs.U64(obs.KeyCopiedObjs, gc.CopiedObjs),
			obs.U64(obs.KeyFreedBytes, gc.FreedBytes),
			obs.U64(obs.KeyWorkers, uint64(len(workers))))
	}
	return stwEnd
}

func (e *Engine) lock(id uint64) *lockState {
	ls, ok := e.locks[id]
	if !ok {
		ls = &lockState{}
		e.locks[id] = ls
	}
	return ls
}

// WakeExternal unblocks a thread that is waiting on a co-simulated peer
// (see OnExternalCall). The wake time is clamped to be non-regressive.
func (e *Engine) WakeExternal(tid int, at uint64) {
	th := e.threads[tid]
	if th.state != stBlockedIO {
		panic("osmodel: WakeExternal on a thread that is not waiting externally")
	}
	if th.span != nil && at > th.extFrom {
		th.span.Add(reqtrace.PhaseNet, at-th.extFrom)
	}
	e.wakeAt(th, at)
}

// Now returns the latest point any processor has reached.
func (e *Engine) Now() uint64 {
	var m uint64
	for _, f := range e.freeAt {
		if f > m {
			m = f
		}
	}
	return m
}

// ResetStats zeroes all measurement state (mode accounting, CPI counters,
// cache/bus statistics, operation counts, GC wall time) while leaving the
// machine warm — caches, locks, threads, and schedules are untouched. Call
// it at the warm-up/measurement boundary.
func (e *Engine) ResetStats() {
	for i := range e.acct {
		e.acct[i] = Modes{}
	}
	for _, c := range e.cores {
		c.ResetCounters()
	}
	e.hier.ResetStats()
	e.businessOps = 0
	e.opsByTag = make(map[string]uint64)
	e.latByTag = make(map[string]*obs.HDR)
	e.gcWall = 0
	e.gcCount = 0
	e.gcPauses.Reset()
	e.lockWaitCycles = 0
	e.lockBlocks = 0
	e.lockAcquires = 0
	e.waitMon, e.waitSpin, e.waitSem = 0, 0, 0
	// Latency spans reset with everything else: completed spans are dropped
	// and the time series re-anchors at the boundary. In-flight spans stay
	// open and complete into the fresh window, exactly like opsByTag counts
	// boundary-spanning operations at completion time.
	e.rt.Reset(e.Now())
}

// Results summarizes the measurement window (since the last ResetStats).
type Results struct {
	BusinessOps uint64
	OpsByTag    map[string]uint64
	// LatencyByTag holds per-operation-type response-time histograms in
	// cycles (ECperf's specification bounds the 90th percentile; the paper
	// relaxed it, §2.2 — these histograms let either policy be checked).
	LatencyByTag map[string]*obs.HDR
	// PSet accounting, summed over the processor set.
	Modes Modes
	// CPU aggregates CPI decomposition over the processor set's cores.
	CPU            cpu.Counters
	GCWall         uint64
	GCCount        uint64
	LockWaitCycles uint64
	// LockBlocks / LockAcquires count contended vs total monitor
	// acquisitions.
	LockBlocks   uint64
	LockAcquires uint64
	// Wait cycles by lock class: Java-style monitors, kernel spin locks,
	// pool semaphores.
	WaitMonitor, WaitSpin, WaitSem uint64
}

// Results snapshots the measurement counters.
func (e *Engine) Results() Results {
	r := Results{
		BusinessOps:    e.businessOps,
		OpsByTag:       make(map[string]uint64, len(e.opsByTag)),
		LatencyByTag:   e.latByTag,
		GCWall:         e.gcWall,
		GCCount:        e.gcCount,
		LockWaitCycles: e.lockWaitCycles,
		LockBlocks:     e.lockBlocks,
		LockAcquires:   e.lockAcquires,
		WaitMonitor:    e.waitMon,
		WaitSpin:       e.waitSpin,
		WaitSem:        e.waitSem,
	}
	for k, v := range e.opsByTag {
		r.OpsByTag[k] = v
	}
	for i := 0; i < e.cfg.CPUs; i++ {
		if !e.inPSet[i] {
			continue
		}
		r.Modes.Add(&e.acct[i])
		r.CPU.Add(&e.cores[i].Counters)
	}
	return r
}

// Hierarchy returns the machine's memory system.
func (e *Engine) Hierarchy() *memsys.Hierarchy { return e.hier }

// DebugThreads returns one line per thread (state, home CPU, flags) — a
// scheduler-health diagnostic.
func (e *Engine) DebugThreads() []string {
	names := []string{"ready", "running", "blk-lock", "blk-io", "sleeping", "done"}
	var out []string
	for _, th := range e.threads {
		inQ := 0
		for _, q := range e.readyQ {
			if q == th {
				inQ++
			}
		}
		out = append(out, fmt.Sprintf("%s#%d state=%s home=%d bound=%v readyAt=%d qleft=%d inQ=%d locksHeld=%d",
			th.name, th.id, names[th.state], th.lastCPU, th.bound, th.readyAt, th.quantumLeft, inQ, th.locksHeld))
	}
	return out
}

// ThreadsDone reports whether every thread has finished.
func (e *Engine) ThreadsDone() bool {
	for _, th := range e.threads {
		if th.state != stDone {
			return false
		}
	}
	return true
}
