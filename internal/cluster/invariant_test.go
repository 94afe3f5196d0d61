package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/simrand"
)

// openChecker verifies the open cluster's request bookkeeping at an event
// boundary. It reuses its scratch set across calls, so checking every tick
// of a long run stays cheap.
type openChecker struct {
	seen map[*openReq]bool
}

// check returns the first broken invariant, or nil:
//   - conservation: Offered == Shed + Completed + Failed + in flight, where
//     in flight is counted from where requests are, not from Stats;
//   - location: a request in flight is queued at a node or held by a busy
//     worker, and each busy worker's request has exactly one pending call or
//     done event (arrival events are not yet offered);
//   - free list: no request appears on it twice, and none on it is still
//     queued at a node or referenced by a pending event.
func (c *openChecker) check(s *OpenSim) error {
	if c.seen == nil {
		c.seen = make(map[*openReq]bool)
	}
	clear(c.seen)
	for _, r := range s.free {
		if c.seen[r] {
			return fmt.Errorf("request %p on the free list twice", r)
		}
		c.seen[r] = true
	}
	queued, busy := uint64(0), uint64(0)
	for _, n := range s.nodes {
		for _, r := range n.queue[n.head:] {
			if c.seen[r] {
				return fmt.Errorf("request %p queued at node %d is on the free list", r, n.id)
			}
		}
		queued += uint64(n.depth())
		busy += uint64(n.busy)
	}
	var pending uint64
	var bad error
	s.events.Each(func(at uint64, e event) {
		if e.req == nil || bad != nil {
			return
		}
		if c.seen[e.req] {
			bad = fmt.Errorf("request %p has a pending event at %d but is on the free list", e.req, at)
		}
		if e.kind == evCall || e.kind == evDone {
			pending++
		}
	})
	if bad != nil {
		return bad
	}
	st := s.Stats
	if st.Offered != st.Shed+st.Completed+st.Failed+queued+busy {
		return fmt.Errorf("conservation: offered %d != shed %d + completed %d + failed %d + queued %d + busy %d",
			st.Offered, st.Shed, st.Completed, st.Failed, queued, busy)
	}
	if pending != busy {
		return fmt.Errorf("%d busy workers but %d pending call/done events", busy, pending)
	}
	return nil
}

// invariantCase is one configuration the checker runs over.
type invariantCase struct {
	name  string
	cfg   OpenConfig
	sched *fault.Schedule
}

// invariantCases are the benchmark's six cells (0.5x, 1x and 3x offered,
// controls on and off) plus a node crash, a shard partition, and the
// closed-loop population under the fault demo.
func invariantCases(horizon uint64) []invariantCase {
	var cs []invariantCase
	for _, on := range []bool{true, false} {
		for _, m := range []float64{0.5, 1, 3} {
			cfg := withRate(DefaultOpenConfig(), m)
			cfg.Controls.Enabled = on
			cs = append(cs, invariantCase{name: fmt.Sprintf("%gx-controls-%v", m, on), cfg: cfg})
		}
	}
	window := func(k fault.Kind, peer uint8) *fault.Schedule {
		return &fault.Schedule{Events: []fault.Event{{Kind: k, At: horizon / 3, Duration: horizon / 6, Peer: peer}}}
	}
	cs = append(cs,
		invariantCase{"crash", withRate(DefaultOpenConfig(), 1), window(fault.NodeCrash, NodePeer(0))},
		invariantCase{"partition", withRate(DefaultOpenConfig(), 1), window(fault.Partition, ShardPeer(0))})
	closed := DefaultOpenConfig()
	closed.ClosedClients = 16
	closed.ThinkCycles = 4_000_000
	cs = append(cs, invariantCase{"closed-loop-demo", closed, fault.Demo(horizon/5, 3*horizon/5)})
	return cs
}

// runChecked runs c with the checker at every tick and after the drain,
// returning the tick count and the first failure. corrupt, when set,
// breaks the sim just before the check at tick breakAt; the undo it
// returns restores the sim right after, so the run goes on unharmed.
func runChecked(t *testing.T, c invariantCase, horizon uint64, breakAt int, corrupt func(*OpenSim) (undo func())) (ticks int, err error) {
	t.Helper()
	s, nerr := NewOpen(c.cfg, 20030208)
	if nerr != nil {
		t.Fatal(nerr)
	}
	if c.sched != nil {
		if verr := c.sched.Validate(); verr != nil {
			t.Fatal(verr)
		}
		s.SetFaults(fault.NewInjector(c.sched, simrand.New(20030209)))
	}
	var ck openChecker
	s.SetTick(1_000_000, func(at uint64, sim *OpenSim) {
		ticks++
		undo := func() {}
		if corrupt != nil && ticks == breakAt {
			undo = corrupt(sim)
		}
		if e := ck.check(sim); e != nil && err == nil {
			err = fmt.Errorf("tick %d (cycle %d): %w", ticks, at, e)
		}
		undo()
	})
	s.Run(horizon)
	if e := ck.check(s); e != nil && err == nil {
		err = fmt.Errorf("after the drain: %w", e)
	}
	return ticks, err
}

// TestOpenInvariantEveryTick runs the checker at every tick of every
// configuration, and after the drain.
func TestOpenInvariantEveryTick(t *testing.T) {
	const horizon = 100_000_000
	for _, c := range invariantCases(horizon) {
		t.Run(c.name, func(t *testing.T) {
			ticks, err := runChecked(t, c, horizon, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ticks < 100 {
				t.Fatalf("only %d ticks checked", ticks)
			}
		})
	}
}

// TestOpenInvariantCatchesCorruption breaks the bookkeeping at one tick in
// each way the checker guards against and expects it to fire there.
func TestOpenInvariantCatchesCorruption(t *testing.T) {
	const horizon = 40_000_000
	c := invariantCases(horizon)[1] // 1x, controls on: requests queue and free
	// freeOne puts r on the free list and returns the undo.
	freeOne := func(s *OpenSim, r *openReq) func() {
		n := len(s.free)
		s.free = append(s.free, r)
		return func() { s.free = s.free[:n] }
	}
	broken := []struct {
		name    string
		corrupt func(*OpenSim) func()
	}{
		{"bumped-offered", func(s *OpenSim) func() {
			s.Stats.Offered++
			return func() { s.Stats.Offered-- }
		}},
		{"duplicate-free-entry", func(s *OpenSim) func() { return freeOne(s, s.free[0]) }},
		{"queued-request-freed", func(s *OpenSim) func() {
			for _, n := range s.nodes {
				if n.depth() > 0 {
					return freeOne(s, n.queue[n.head])
				}
			}
			return func() {} // nothing queued: the checker must not fire
		}},
		{"in-service-request-freed", func(s *OpenSim) func() {
			var r *openReq
			s.events.Each(func(_ uint64, e event) {
				if e.kind == evCall && r == nil {
					r = e.req
				}
			})
			return freeOne(s, r)
		}},
	}
	const breakAt = 20
	for _, b := range broken {
		t.Run(b.name, func(t *testing.T) {
			_, err := runChecked(t, c, horizon, breakAt, b.corrupt)
			if err == nil {
				t.Fatal("checker did not fire")
			}
			if !strings.HasPrefix(err.Error(), fmt.Sprintf("tick %d ", breakAt)) {
				t.Fatalf("checker fired away from the corrupted tick: %v", err)
			}
			t.Log(err)
		})
	}
}
