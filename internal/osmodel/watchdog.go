package osmodel

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Simulated-time watchdog. A fault-injection run deliberately pushes the
// scheduler into corners — every worker blocked on a crashed backend, lock
// convoys under storm pressure — where a modeling bug turns into a silent
// hang: the engine idles cycle by cycle to the horizon with nothing
// runnable. The watchdog turns that hang into a diagnosis. It fires on two
// conditions, checked only when a processor finds nothing to dispatch:
//
//   - Provable deadlock: no thread is ready, no wake event is pending, and
//     no thread is waiting on external I/O (which the cluster coordinator
//     could still complete) — yet threads remain blocked on locks. Lock
//     grants only come from running threads, so no progress is possible,
//     ever.
//   - Stall (livelock or lost wakeup): no thread has been dispatched for
//     more than the configured number of cycles even though the run is not
//     finished.
//
// On either, Run stores a WatchdogReport — thread states, the lock table,
// pending events — and returns instead of spinning to the horizon. Callers
// check WatchdogTripped after Run.

// WatchdogReport is the state snapshot taken when the watchdog fires.
type WatchdogReport struct {
	// Reason is "deadlock" or "stall".
	Reason string
	// Cycle is the simulated time the watchdog fired.
	Cycle uint64
	// LastDispatch is the last simulated time any thread was dispatched.
	LastDispatch uint64
	// Threads and Locks are the DebugThreads / DebugLocks dumps.
	Threads []string
	Locks   []string
	// PendingEvents is the number of queued wake events.
	PendingEvents int
}

// String renders the report as a multi-line diagnostic.
func (r *WatchdogReport) String() string {
	s := fmt.Sprintf("osmodel watchdog: %s at cycle %d (last dispatch %d, %d pending events)\nthreads:\n",
		r.Reason, r.Cycle, r.LastDispatch, r.PendingEvents)
	for _, t := range r.Threads {
		s += "  " + t + "\n"
	}
	s += "locks:\n"
	if len(r.Locks) == 0 {
		s += "  (none held or waited on)\n"
	}
	for _, l := range r.Locks {
		s += "  " + l + "\n"
	}
	return s
}

// SetWatchdog arms the watchdog: if no thread is dispatched for `cycles`
// simulated cycles while work remains, Run snapshots a diagnostic report
// and returns. 0 disarms. Provable deadlocks are reported immediately
// regardless of the threshold (but only while armed).
func (e *Engine) SetWatchdog(cycles uint64) { e.watchdogCycles = cycles }

// WatchdogTripped returns the diagnostic report if the watchdog fired, or
// nil. It stays set across Run slices so a driver can check once at the end.
func (e *Engine) WatchdogTripped() *WatchdogReport { return e.wdReport }

// SetFaults attaches a fault injector; gc-storm windows in its schedule
// then amplify stop-the-world pauses. nil detaches.
func (e *Engine) SetFaults(inj *fault.Injector) { e.faults = inj }

// checkWatchdog runs in the scheduler's idle branch (nothing dispatchable
// at time t). It reports true when Run should abort.
func (e *Engine) checkWatchdog(t uint64) bool {
	if e.wdReport != nil {
		return true // already tripped in an earlier slice
	}
	reason := ""
	if e.provableDeadlock() {
		reason = "deadlock"
	} else if t > e.lastDispatch && t-e.lastDispatch > e.watchdogCycles && !e.ThreadsDone() {
		reason = "stall"
	}
	if reason == "" {
		return false
	}
	e.wdReport = &WatchdogReport{
		Reason:        reason,
		Cycle:         t,
		LastDispatch:  e.lastDispatch,
		Threads:       e.DebugThreads(),
		Locks:         e.DebugLocks(),
		PendingEvents: e.events.Len(),
	}
	e.tracer.Instant(obs.CompFault, "watchdog."+reason, 0, t,
		obs.U64(obs.KeyLastDispatch, e.lastDispatch))
	return true
}

// provableDeadlock reports whether no future progress is possible: nothing
// ready, no wake event queued, no thread that the cluster coordinator
// could still wake externally — but blocked threads remain.
func (e *Engine) provableDeadlock() bool {
	if len(e.readyQ) > 0 || e.events.Len() > 0 {
		return false
	}
	blocked := false
	for _, th := range e.threads {
		switch th.state {
		case stBlockedIO:
			// An external wake may still arrive.
			return false
		case stBlockedLock:
			blocked = true
		case stDone:
		default:
			// Ready/running/sleeping threads reach the queue or event heap,
			// both empty — inconsistent with those states, so be
			// conservative and do not claim a deadlock.
			return false
		}
	}
	return blocked
}

// DebugLocks returns one line per lock or semaphore with an owner or
// waiters — the companion to DebugThreads for deadlock diagnosis.
func (e *Engine) DebugLocks() []string {
	var out []string
	ids := make([]uint64, 0, len(e.locks))
	for id := range e.locks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ls := e.locks[id]
		if !ls.held && len(ls.waiters) == 0 {
			continue
		}
		owner := "-"
		if ls.owner != nil {
			owner = fmt.Sprintf("%s#%d", ls.owner.name, ls.owner.id)
		}
		var waiters []string
		for _, w := range ls.waiters {
			waiters = append(waiters, fmt.Sprintf("%s#%d", w.name, w.id))
		}
		out = append(out, fmt.Sprintf("lock %#x held=%v spin=%v owner=%s waiters=%v",
			id, ls.held, ls.spin, owner, waiters))
	}
	ids = ids[:0]
	for id := range e.sems {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ss := e.sems[id]
		if len(ss.waiters) == 0 {
			continue
		}
		var waiters []string
		for _, w := range ss.waiters {
			waiters = append(waiters, fmt.Sprintf("%s#%d", w.name, w.id))
		}
		out = append(out, fmt.Sprintf("sem %#x available=%d waiters=%v", id, ss.available, waiters))
	}
	return out
}
