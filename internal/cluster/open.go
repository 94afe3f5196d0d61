// open.go is the open-system face of the cluster package: N app-server
// nodes behind a load balancer over sharded database backends, fed by an
// open arrival process instead of a fixed population of closed-loop
// drivers.
//
// Where Coordinator co-simulates two full memory-system engines in
// lockstep, OpenSim is a discrete-event queueing model of the whole
// machine room — the level of detail at which overload behavior lives:
// bounded queues, load-balancer routing, per-backend concurrency limits,
// timeouts, retries, and client patience. Each resolved request is
// recorded in a reqtrace collector, so goodput-vs-offered-load and
// p99-vs-load curves fall out of the same HDR/SLO pipeline as the
// closed-loop workloads.
//
// Determinism: every stochastic decision draws from streams derived from
// one seed, events are ordered by (time, insertion sequence), and the
// optional collector is passive — the same seed produces byte-identical
// results with observability on or off.
package cluster

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/db"
	"repro/internal/evq"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/obs/reqtrace"
	"repro/internal/simrand"
)

// Peer-id conventions for fault schedules aimed at the open topology:
// shard k is peer ShardPeerBase+k, node i is peer NodePeerBase+i.
const (
	ShardPeerBase uint8 = 1
	NodePeerBase  uint8 = 100
)

// ShardPeer returns the fault-schedule peer id of shard k.
func ShardPeer(k int) uint8 { return ShardPeerBase + uint8(k) }

// NodePeer returns the fault-schedule peer id of node i.
func NodePeer(i int) uint8 { return NodePeerBase + uint8(i) }

// LBPolicy selects the load balancer's routing discipline.
type LBPolicy uint8

const (
	// RoundRobin rotates across healthy nodes.
	RoundRobin LBPolicy = iota
	// LeastInFlight routes to the healthy node with the fewest queued plus
	// in-service requests.
	LeastInFlight
	// Weighted is smooth weighted round-robin over Config.Weights.
	Weighted
)

// String names the policy as accepted by ParseLBPolicy.
func (p LBPolicy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case LeastInFlight:
		return "least"
	case Weighted:
		return "weighted"
	default:
		return fmt.Sprintf("LBPolicy(%d)", uint8(p))
	}
}

// ParseLBPolicy parses rr|least|weighted.
func ParseLBPolicy(s string) (LBPolicy, error) {
	switch s {
	case "rr":
		return RoundRobin, nil
	case "least":
		return LeastInFlight, nil
	case "weighted":
		return Weighted, nil
	}
	return 0, fmt.Errorf("cluster: unknown lb policy %q (want rr|least|weighted)", s)
}

// WorkClass is one entry of the request mix.
type WorkClass struct {
	Name   string
	Weight float64 // mix fraction (normalized over the mix)
	// Priority orders brown-out shedding: 0 is revenue-critical and never
	// shed by degradation; higher numbers shed earlier.
	Priority int
	// CPUCycles is the mean app-server compute per request.
	CPUCycles uint64
	// DBCalls is the number of synchronous shard round trips.
	DBCalls int
	// Request/response sizes on the client and shard wires.
	ReqBytes, RespBytes     uint32
	DBReqBytes, DBRespBytes uint32
}

// DefaultMix is a three-class e-commerce mix: critical orders, bulk
// browsing, and optional recommendations (the first brown-out victim).
func DefaultMix() []WorkClass {
	return []WorkClass{
		{Name: "order", Weight: 0.3, Priority: 0, CPUCycles: 150_000, DBCalls: 3,
			ReqBytes: 512, RespBytes: 2048, DBReqBytes: 256, DBRespBytes: 1024},
		{Name: "browse", Weight: 0.5, Priority: 1, CPUCycles: 75_000, DBCalls: 1,
			ReqBytes: 256, RespBytes: 4096, DBReqBytes: 128, DBRespBytes: 1024},
		{Name: "recommend", Weight: 0.2, Priority: 2, CPUCycles: 250_000, DBCalls: 2,
			ReqBytes: 256, RespBytes: 2048, DBReqBytes: 256, DBRespBytes: 1024},
	}
}

// Controls bundles the adaptive overload controllers. Enabled=false is the
// naive baseline: unbounded-ish queues, no queue-delay admission, no
// concurrency limit, no retry budget, no degradation — timeouts and
// retries only, the configuration that collapses under overload.
type Controls struct {
	Enabled bool
	CoDel   fault.CoDelConfig
	AIMD    fault.AIMDConfig
	Retry   fault.RetryBudgetConfig
	Brown   fault.BrownoutConfig
}

// DefaultControls returns the controllers at their package defaults,
// enabled.
func DefaultControls() Controls {
	return Controls{
		Enabled: true,
		CoDel:   fault.DefaultCoDelConfig(),
		AIMD:    fault.DefaultAIMDConfig(),
		Retry:   fault.DefaultRetryBudgetConfig(),
		Brown:   fault.DefaultBrownoutConfig(),
	}
}

// OpenConfig parameterizes the open-system topology.
type OpenConfig struct {
	Nodes          int // app-server nodes
	WorkersPerNode int // service parallelism per node
	QueueCap       int // bounded per-node queue (ignored when controls off)
	Shards         int // database shards
	Shard          db.Config
	LB             LBPolicy
	Weights        []float64 // per-node weights for Weighted (nil = equal)
	Link           netsim.Link
	Mix            []WorkClass
	Policy         fault.Policy // timeout / retry / breaker parameters
	// DeadlineCycles is client patience: completions later than this after
	// the client sent the request are wasted work, excluded from goodput.
	DeadlineCycles uint64
	Controls       Controls

	// Arrival drives open-system traffic. It is ignored in closed-loop
	// mode (ClosedClients > 0), where each client sends, waits for its
	// response, thinks ~Exp(ThinkCycles), and sends again.
	Arrival       arrival.Config
	ClosedClients int
	ThinkCycles   float64
}

// uncappedQueue stands in for "unbounded" when controls are off; the naive
// baseline still cannot queue infinitely (memory), it just queues far past
// any useful deadline.
const uncappedQueue = 1 << 20

// DefaultOpenConfig is a 4-node / 2-shard machine room on the default
// Ethernet, with a 25 ms client deadline and controls on. The deadline
// clears the worst-case bounded-queue delay (~11 ms at QueueCap 64) plus
// service with room to spare, so with controls on a request the system
// chose to serve is a request the client still wants.
func DefaultOpenConfig() OpenConfig {
	return OpenConfig{
		Nodes:          4,
		WorkersPerNode: 8,
		QueueCap:       64,
		Shards:         2,
		Shard:          db.DefaultDatabaseConfig(),
		LB:             LeastInFlight,
		Link:           netsim.DefaultLink(),
		Mix:            DefaultMix(),
		Policy:         fault.DefaultPolicy(),
		DeadlineCycles: 6_250_000,
		Controls:       DefaultControls(),
		Arrival:        arrival.Config{Pattern: arrival.Poisson, Rate: 5e-5}.Defaults(),
	}
}

// Validate rejects topologies that cannot run.
func (c OpenConfig) Validate() error {
	if c.Nodes <= 0 || c.Nodes > 64 {
		return fmt.Errorf("cluster: nodes %d outside 1..64", c.Nodes)
	}
	if c.WorkersPerNode <= 0 {
		return fmt.Errorf("cluster: need at least one worker per node")
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("cluster: queue capacity must be positive")
	}
	if c.Shards <= 0 || c.Shards > 64 {
		return fmt.Errorf("cluster: shards %d outside 1..64", c.Shards)
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("cluster: empty work mix")
	}
	totalW := 0.0
	for _, m := range c.Mix {
		if m.Weight <= 0 || m.Name == "" {
			return fmt.Errorf("cluster: work class %q needs a name and positive weight", m.Name)
		}
		totalW += m.Weight
	}
	if totalW <= 0 {
		return fmt.Errorf("cluster: work mix has no weight")
	}
	if c.LB == Weighted && c.Weights != nil && len(c.Weights) != c.Nodes {
		return fmt.Errorf("cluster: %d weights for %d nodes", len(c.Weights), c.Nodes)
	}
	if c.DeadlineCycles == 0 {
		return fmt.Errorf("cluster: client deadline must be positive")
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Controls.Enabled {
		if err := c.Controls.CoDel.Validate(); err != nil {
			return err
		}
		if err := c.Controls.AIMD.Validate(); err != nil {
			return err
		}
		if err := c.Controls.Retry.Validate(); err != nil {
			return err
		}
		if err := c.Controls.Brown.Validate(); err != nil {
			return err
		}
	}
	if c.ClosedClients > 0 {
		if !(c.ThinkCycles > 0) {
			return fmt.Errorf("cluster: closed-loop mode needs positive think time")
		}
		return nil
	}
	if c.ClosedClients < 0 {
		return fmt.Errorf("cluster: negative client population")
	}
	return c.Arrival.Validate()
}

// meanShardService returns the mean per-call shard service time (no
// jitter; jitter is mean-preserving around 1).
func (c OpenConfig) meanShardService(m WorkClass) float64 {
	return float64(c.Shard.BaseServiceCycles) +
		c.Shard.PerByteCycles*float64(m.DBReqBytes+m.DBRespBytes)
}

// Capacity estimates the topology's saturation throughput in requests per
// cycle: the tighter of worker-occupancy capacity (app tier) and shard
// service capacity (database tier), over the mean of the mix.
func (c OpenConfig) Capacity() float64 {
	totalW, occ, dbWork := 0.0, 0.0, 0.0
	for _, m := range c.Mix {
		svc := c.meanShardService(m)
		perCall := float64(c.Link.TransferCycles(m.DBReqBytes)) + svc +
			float64(c.Link.TransferCycles(m.DBRespBytes))
		occ += m.Weight * (float64(m.CPUCycles) + float64(m.DBCalls)*perCall)
		dbWork += m.Weight * float64(m.DBCalls) * svc
		totalW += m.Weight
	}
	occ /= totalW
	dbWork /= totalW
	nodeCap := float64(c.Nodes*c.WorkersPerNode) / occ
	shardCap := float64(c.Shards*c.Shard.Workers) / dbWork
	if shardCap < nodeCap {
		return shardCap
	}
	return nodeCap
}

// shed cause indexes.
const (
	shedNoNode = iota
	shedQueue
	shedBrownout
	shedCoDel
	numShedCauses
)

// OpenStats is the run's accounting. Conservation invariant at every
// event boundary: Offered == Shed + Completed + Failed + InFlight().
type OpenStats struct {
	Offered   uint64 // requests that arrived at the load balancer
	Shed      uint64 // rejected without service (all causes)
	Completed uint64 // served to completion (includes Late)
	Failed    uint64 // exhausted retries against the shards (".fail")
	Late      uint64 // completed after the client's deadline (wasted work)

	ShedByCause [numShedCauses]uint64 // no-node, queue-full, brownout, codel

	Attempts    uint64 // shard call attempts issued
	Timeouts    uint64 // attempts abandoned at the caller's timeout
	FastFails   uint64 // attempts refused by a crashed shard
	LostCalls   uint64 // attempts lost to partitions / packet loss
	LimiterHits uint64 // attempts refused by the AIMD limit
	BreakerHits uint64 // attempts refused by an open breaker
	Retries     uint64 // attempts beyond each call's first

	WastedDBCycles uint64 // shard service burned on attempts the caller abandoned
}

// Good returns completions the client was still waiting for.
func (s OpenStats) Good() uint64 { return s.Completed - s.Late }

// openReq is one request in flight through the topology.
type openReq struct {
	class  int
	shard  int
	client int    // closed-loop client index, -1 in open mode
	sendAt uint64 // client send time (span start)
	nodeAt uint64 // enqueue time at the chosen node
	node   int    // serving node, set at dispatch

	callIdx int // shard calls completed so far
	attempt int // attempts made for the current call
	ok      bool

	cpu, net, dbq, dbs, think uint64 // phase accumulators
}

const (
	evArrival = iota
	evCall    // the request's worker issues its next shard call attempt
	evDone
	evTick
)

// event is one scheduled occurrence; the queue keys it by time and breaks
// ties by scheduling order. Call and done events belong to the request's
// serving node (req.node).
type event struct {
	kind uint8
	req  *openReq
}

// openNode is one app server: a bounded FIFO, a worker pool, and its
// overload controllers.
type openNode struct {
	id    int
	peer  uint8
	queue []*openReq
	head  int // pop index into queue (compacted periodically)
	busy  int

	codel *fault.CoDel
	brown *fault.Brownout

	admitted uint64 // requests enqueued at this node
}

func (n *openNode) depth() int { return len(n.queue) - n.head }

func (n *openNode) popFront() *openReq {
	r := n.queue[n.head]
	n.queue[n.head] = nil
	n.head++
	if n.head > 4096 && n.head*2 > len(n.queue) {
		n.queue = append(n.queue[:0], n.queue[n.head:]...)
		n.head = 0
	}
	return r
}

// OpenSim is the open-system cluster simulation.
type OpenSim struct {
	cfg    OpenConfig
	cum    []float64 // cumulative mix weights
	rng    *simrand.Rand
	arr    *arrival.Source
	faults *fault.Injector
	coll   *reqtrace.Collector

	now    uint64
	events evq.Queue[event]
	// free holds resolved requests for reuse; alive is route's scratch.
	free  []*openReq
	alive []*openNode

	nodes    []*openNode
	shards   []*db.Server
	limiters []*fault.AIMD        // per shard, nil when controls off
	budgets  []*fault.RetryBudget // per node, nil when controls off
	breakers [][]*fault.Breaker   // [node][shard]

	lbNext int       // round-robin cursor
	wrrCur []float64 // smooth-WRR current weights
	wrrSum float64

	tickEvery uint64
	onTick    func(t uint64, s *OpenSim)

	// errRespBytes sizes the response wire transfer of failed requests.
	errRespBytes uint32
	failClass    []string // per mix class: its ".fail" latency class

	Stats OpenStats
}

// NewOpen builds the topology; every RNG stream derives from seed.
func NewOpen(cfg OpenConfig, seed uint64) (*OpenSim, error) {
	if !cfg.Controls.Enabled {
		cfg.QueueCap = uncappedQueue
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := simrand.New(seed)
	s := &OpenSim{cfg: cfg, rng: root.Derive(1), errRespBytes: 64}

	total := 0.0
	for _, m := range cfg.Mix {
		total += m.Weight
	}
	acc := 0.0
	for _, m := range cfg.Mix {
		acc += m.Weight / total
		s.cum = append(s.cum, acc)
		s.failClass = append(s.failClass, m.Name+".fail")
	}

	if cfg.ClosedClients == 0 {
		src, err := arrival.New(cfg.Arrival, root.Derive(2))
		if err != nil {
			return nil, err
		}
		s.arr = src
	}

	for i := 0; i < cfg.Nodes; i++ {
		n := &openNode{id: i, peer: NodePeer(i)}
		if cfg.Controls.Enabled {
			n.codel = fault.NewCoDel(cfg.Controls.CoDel)
			n.brown = fault.NewBrownout(cfg.Controls.Brown)
		}
		s.nodes = append(s.nodes, n)
	}
	for k := 0; k < cfg.Shards; k++ {
		s.shards = append(s.shards, db.NewServer(cfg.Shard, root.Derive(uint64(10+k))))
	}
	if cfg.Controls.Enabled {
		for range s.shards {
			s.limiters = append(s.limiters, fault.NewAIMD(cfg.Controls.AIMD))
		}
		for range s.nodes {
			s.budgets = append(s.budgets, fault.NewRetryBudget(cfg.Controls.Retry))
		}
	}
	s.breakers = make([][]*fault.Breaker, cfg.Nodes)
	for i := range s.breakers {
		s.breakers[i] = make([]*fault.Breaker, cfg.Shards)
		for k := range s.breakers[i] {
			s.breakers[i][k] = fault.NewBreaker(&s.cfg.Policy)
		}
	}
	if cfg.LB == Weighted {
		s.wrrCur = make([]float64, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			w := 1.0
			if cfg.Weights != nil {
				w = cfg.Weights[i]
			}
			s.wrrSum += w
		}
	}
	return s, nil
}

// SetFaults arms a fault injector over the topology's peer-id space
// (ShardPeer/NodePeer). nil disarms.
func (s *OpenSim) SetFaults(inj *fault.Injector) { s.faults = inj }

// SetCollector attaches a passive latency collector (nil detaches). The
// collector never perturbs the simulation: same seed, same results, with
// or without it.
func (s *OpenSim) SetCollector(c *reqtrace.Collector) { s.coll = c }

// SetTick arranges fn to run every interval cycles while the simulation
// has work, for heartbeat and inspection snapshots.
func (s *OpenSim) SetTick(interval uint64, fn func(t uint64, s *OpenSim)) {
	s.tickEvery = interval
	s.onTick = fn
}

// Config returns the (validated, possibly adjusted) configuration.
func (s *OpenSim) Config() OpenConfig { return s.cfg }

// Now returns the simulation clock.
func (s *OpenSim) Now() uint64 { return s.now }

// InFlight returns requests admitted but not yet resolved.
func (s *OpenSim) InFlight() uint64 {
	return s.Stats.Offered - s.Stats.Shed - s.Stats.Completed - s.Stats.Failed
}

// schedule pushes an event at time at.
func (s *OpenSim) schedule(at uint64, kind uint8, r *openReq) {
	s.events.Push(at, event{kind: kind, req: r})
}

// newReq draws a request's class and shard (one Float64 + one Intn, in
// arrival order, independent of topology configuration). It reuses a
// released request when the free list has one.
func (s *OpenSim) newReq(sendAt uint64, client int) *openReq {
	u := s.rng.Float64()
	class := len(s.cum) - 1
	for i, c := range s.cum {
		if u < c {
			class = i
			break
		}
	}
	var r *openReq
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = new(openReq)
	}
	*r = openReq{class: class, shard: s.rng.Intn(s.cfg.Shards), client: client, sendAt: sendAt}
	return r
}

// pushArrival schedules req's arrival at the load balancer: send time plus
// the client-side request transfer.
func (s *OpenSim) pushArrival(r *openReq) {
	wire := s.cfg.Link.TransferCycles(s.cfg.Mix[r.class].ReqBytes)
	r.net += wire
	s.schedule(r.sendAt+wire, evArrival, r)
}

// Run feeds arrivals until the horizon, then drains every request still in
// the system (no new work; queues and workers run dry). It returns the
// final clock.
func (s *OpenSim) Run(horizon uint64) uint64 {
	if s.cfg.ClosedClients > 0 {
		for i := 0; i < s.cfg.ClosedClients; i++ {
			at := uint64(s.rng.Exp(s.cfg.ThinkCycles))
			if at < horizon {
				s.pushArrival(s.newReq(at, i))
			}
		}
	} else {
		if at := s.arr.Next(); at < horizon {
			s.pushArrival(s.newReq(at, -1))
		}
	}
	if s.tickEvery > 0 && s.onTick != nil {
		s.schedule(s.tickEvery, evTick, nil)
	}
	for s.events.Len() > 0 {
		at, e := s.events.Pop()
		s.now = at
		switch e.kind {
		case evArrival:
			s.Stats.Offered++
			// Keep the open arrival process primed.
			if s.arr != nil {
				if next := s.arr.Next(); next < horizon {
					s.pushArrival(s.newReq(next, -1))
				}
			}
			s.admit(e.req, at)
		case evCall:
			s.stepCall(e.req, at)
		case evDone:
			n := s.nodes[e.req.node]
			n.busy--
			s.finalize(e.req, at, horizon)
			s.dispatch(n, at)
		case evTick:
			s.onTick(at, s)
			if s.events.Len() > 0 {
				s.schedule(at+s.tickEvery, evTick, nil)
			}
		}
	}
	return s.now
}

// route picks a healthy node for an arrival at t, or nil when every node
// is down.
func (s *OpenSim) route(t uint64) *openNode {
	alive := s.alive[:0]
	for _, n := range s.nodes {
		if down, _ := s.faults.PeerDown(n.peer, t); !down {
			alive = append(alive, n)
		}
	}
	s.alive = alive
	if len(alive) == 0 {
		return nil
	}
	switch s.cfg.LB {
	case LeastInFlight:
		best := alive[0]
		for _, n := range alive[1:] {
			if n.depth()+n.busy < best.depth()+best.busy {
				best = n
			}
		}
		return best
	case Weighted:
		// Smooth weighted round-robin (nginx): add each weight, pick the
		// largest accumulated, subtract the total.
		var best *openNode
		for _, n := range alive {
			w := 1.0
			if s.cfg.Weights != nil {
				w = s.cfg.Weights[n.id]
			}
			s.wrrCur[n.id] += w
			if best == nil || s.wrrCur[n.id] > s.wrrCur[best.id] {
				best = n
			}
		}
		s.wrrCur[best.id] -= s.wrrSum
		return best
	default: // RoundRobin
		n := alive[s.lbNext%len(alive)]
		s.lbNext++
		return n
	}
}

// shed resolves a request without service and frees it.
func (s *OpenSim) shed(r *openReq, t uint64, cause int) {
	s.Stats.Shed++
	s.Stats.ShedByCause[cause]++
	s.coll.Complete("shed", r.sendAt, t, &[reqtrace.NumPhases]uint64{reqtrace.PhaseNet: r.net})
	s.closedNext(r, t)
	s.free = append(s.free, r)
}

// admit runs a request through the load balancer and node admission.
func (s *OpenSim) admit(r *openReq, t uint64) {
	n := s.route(t)
	if n == nil {
		s.shed(r, t, shedNoNode)
		return
	}
	if n.brown != nil && n.brown.DropClass(s.cfg.Mix[r.class].Priority) {
		s.shed(r, t, shedBrownout)
		return
	}
	if n.busy >= s.cfg.WorkersPerNode && n.depth() >= s.cfg.QueueCap {
		s.shed(r, t, shedQueue)
		return
	}
	r.nodeAt = t
	n.queue = append(n.queue, r)
	n.admitted++
	s.dispatch(n, t)
}

// dispatch starts queued work on free workers, applying the CoDel
// admission check and feeding the brown-out controller at each dequeue.
func (s *OpenSim) dispatch(n *openNode, t uint64) {
	for n.busy < s.cfg.WorkersPerNode && n.depth() > 0 {
		r := n.popFront()
		qdelay := t - r.nodeAt
		if n.brown != nil {
			n.brown.Observe(t, qdelay)
		}
		if n.codel != nil && n.codel.OnDequeue(t, qdelay) {
			s.shed(r, t, shedCoDel)
			continue
		}
		s.startService(n, r, t)
	}
}

// startService occupies a worker with the request's visit. The visit is a
// chain of events — app CPU, then each shard call attempt issued at its
// own simulated time — so shard arrivals happen in time order and the
// backends see honest queueing rather than batched future bookings.
func (s *OpenSim) startService(n *openNode, r *openReq, t uint64) {
	n.busy++
	r.node = n.id
	m := s.cfg.Mix[r.class]
	cpu := m.CPUCycles
	if s.cfg.Shard.Jitter > 0 {
		cpu = uint64(float64(cpu) * (1 - s.cfg.Shard.Jitter + s.rng.Exp(s.cfg.Shard.Jitter)))
	}
	// A recently crashed node serves its drain-down with cold caches.
	if f := s.faults.ServiceFactor(n.peer, t); f > 1 {
		cpu = uint64(float64(cpu) * f)
	}
	r.cpu += cpu
	r.callIdx, r.attempt = 0, 0
	r.ok = true
	if m.DBCalls == 0 {
		s.schedule(t+cpu, evDone, r)
		return
	}
	s.schedule(t+cpu, evCall, r)
}

// stepCall runs one shard call attempt at its issue time t and schedules
// the request's next step: the next attempt after backoff, the next call,
// or completion.
func (s *OpenSim) stepCall(r *openReq, t uint64) {
	n := s.nodes[r.node]
	m := s.cfg.Mix[r.class]
	br := s.breakers[n.id][r.shard]
	var lim *fault.AIMD
	if s.limiters != nil {
		lim = s.limiters[r.shard]
	}
	var budget *fault.RetryBudget
	if s.budgets != nil {
		budget = s.budgets[n.id]
	}
	if r.attempt == 0 && budget != nil {
		budget.Earn()
	}
	r.attempt++
	s.Stats.Attempts++
	if r.attempt > 1 {
		s.Stats.Retries++
	}
	res := s.attempt(n, r, br, lim, ShardPeer(r.shard), m, t)
	if res.success {
		r.callIdx++
		r.attempt = 0
		if r.callIdx >= m.DBCalls {
			s.schedule(res.doneAt, evDone, r)
			return
		}
		s.schedule(res.doneAt, evCall, r)
		return
	}
	if r.attempt >= s.cfg.Policy.MaxAttempts || (budget != nil && !budget.Allow()) {
		r.ok = false
		s.schedule(res.doneAt, evDone, r)
		return
	}
	back := uint64(s.cfg.Policy.Backoff(r.attempt, s.rng))
	r.think += back
	s.schedule(res.doneAt+back, evCall, r)
}

// attemptResult is one shard attempt's outcome.
type attemptResult struct {
	success bool
	doneAt  uint64
}

// attempt issues a single shard call attempt at time t.
func (s *OpenSim) attempt(n *openNode, r *openReq, br *fault.Breaker, lim *fault.AIMD, peer uint8, m WorkClass, t uint64) attemptResult {
	const localRejectCycles = 2_000
	pol := &s.cfg.Policy
	timeout := uint64(pol.TimeoutCycles)

	// Client-side concurrency limit: refused attempts never leave the node.
	if lim != nil && !lim.TryAcquire(t) {
		s.Stats.LimiterHits++
		r.think += localRejectCycles
		return attemptResult{doneAt: t + localRejectCycles}
	}
	// Circuit breaker: while open, fail locally without touching the wire.
	if !br.Allow(t) {
		s.Stats.BreakerHits++
		r.think += localRejectCycles
		return attemptResult{doneAt: t + localRejectCycles}
	}
	lf := s.faults.LinkFactor(peer, t)
	scale := func(c uint64) uint64 {
		if lf > 1 {
			return uint64(float64(c) * lf)
		}
		return c
	}
	switch s.faults.CallOutcome(peer, t) {
	case fault.FastFail:
		// Connection refused by a crashed shard: one bare round trip.
		rtt := scale(2 * s.cfg.Link.LatencyCycles)
		r.net += rtt
		br.Record(t+rtt, false)
		if lim != nil {
			lim.Hold(t + rtt)
			lim.Outcome(t+rtt, rtt, false)
		}
		s.Stats.FastFails++
		return attemptResult{doneAt: t + rtt}
	case fault.Lost:
		// Partition or packet loss: the caller burns its full timeout.
		r.think += timeout
		br.Record(t+timeout, false)
		if lim != nil {
			lim.Hold(t + timeout)
			lim.Outcome(t+timeout, timeout, false)
		}
		s.Stats.LostCalls++
		return attemptResult{doneAt: t + timeout}
	}
	reqX := scale(s.cfg.Link.TransferCycles(m.DBReqBytes))
	respX := scale(s.cfg.Link.TransferCycles(m.DBRespBytes))
	done, q, svc := s.shards[r.shard].RespondDetail(t+reqX, m.DBReqBytes, m.DBRespBytes)
	rtt := done + respX - t
	if rtt > timeout {
		// The caller abandons the attempt; the shard still does the work.
		// That divergence — servers burning cycles on answers nobody will
		// read — is the raw material of congestion collapse.
		r.think += timeout
		s.Stats.Timeouts++
		s.Stats.WastedDBCycles += svc
		br.Record(t+timeout, false)
		if lim != nil {
			lim.Hold(t + timeout)
			lim.Outcome(t+timeout, rtt, false)
		}
		return attemptResult{doneAt: t + timeout}
	}
	r.net += reqX + respX
	r.dbq += q
	r.dbs += svc
	br.Record(done+respX, true)
	if lim != nil {
		lim.Hold(done)
		lim.Outcome(done+respX, rtt, true)
	}
	return attemptResult{success: true, doneAt: done + respX}
}

// finalize resolves a served request at worker-free time done: the
// response crosses the wire, the client judges it against its deadline,
// its latency (if collected) is recorded, and the request is freed.
func (s *OpenSim) finalize(r *openReq, done uint64, horizon uint64) {
	m := s.cfg.Mix[r.class]
	class := m.Name
	respBytes := m.RespBytes
	if !r.ok {
		class = s.failClass[r.class]
		respBytes = s.errRespBytes
	}
	respX := s.cfg.Link.TransferCycles(respBytes)
	r.net += respX
	end := done + respX

	if r.ok {
		s.Stats.Completed++
		if end-r.sendAt > s.cfg.DeadlineCycles {
			s.Stats.Late++
		}
	} else {
		s.Stats.Failed++
	}
	s.coll.Complete(class, r.sendAt, end, &[reqtrace.NumPhases]uint64{
		reqtrace.PhaseCPU: r.cpu, reqtrace.PhaseNet: r.net, reqtrace.PhaseDBQueue: r.dbq,
		reqtrace.PhaseDBService: r.dbs, reqtrace.PhaseThink: r.think,
	})
	s.closedNextAt(r, end, horizon)
	s.free = append(s.free, r)
}

// closedNext reschedules a closed-loop client after a request resolved
// without a horizon bound (sheds resolve inside Run's arrival window).
func (s *OpenSim) closedNext(r *openReq, t uint64) {
	s.closedNextAt(r, t, ^uint64(0))
}

// closedNextAt schedules the client's next request after thinking.
func (s *OpenSim) closedNextAt(r *openReq, t uint64, horizon uint64) {
	if r.client < 0 {
		return
	}
	at := t + uint64(s.rng.Exp(s.cfg.ThinkCycles))
	if at < horizon {
		s.pushArrival(s.newReq(at, r.client))
	}
}

// NodeSnap is one node's live state.
type NodeSnap struct {
	ID            int    `json:"id"`
	Queue         int    `json:"queue"`
	Busy          int    `json:"busy"`
	Admitted      uint64 `json:"admitted"`
	BrownLevel    int    `json:"brownout_level"`
	CoDelDropping bool   `json:"codel_dropping"`
	CoDelDrops    uint64 `json:"codel_drops"`
	Down          bool   `json:"down,omitempty"`
}

// ShardSnap is one shard's live state.
type ShardSnap struct {
	ID       int     `json:"id"`
	Limit    float64 `json:"aimd_limit"`
	InFlight int     `json:"in_flight"`
	Util     float64 `json:"utilization"`
	Served   uint64  `json:"served"`
	Down     bool    `json:"down,omitempty"`
}

// OpenSnapshot is the topology's live state at one instant, for heartbeat
// lines and the /overload inspection page.
type OpenSnapshot struct {
	Now    uint64      `json:"cycle"`
	Stats  OpenStats   `json:"stats"`
	Nodes  []NodeSnap  `json:"nodes"`
	Shards []ShardSnap `json:"shards"`
}

// Snapshot captures the live state at time t.
func (s *OpenSim) Snapshot(t uint64) OpenSnapshot {
	snap := OpenSnapshot{Now: t, Stats: s.Stats}
	for _, n := range s.nodes {
		ns := NodeSnap{ID: n.id, Queue: n.depth(), Busy: n.busy, Admitted: n.admitted}
		if n.brown != nil {
			ns.BrownLevel = n.brown.Level()
		}
		if n.codel != nil {
			ns.CoDelDropping = n.codel.Dropping()
			ns.CoDelDrops = n.codel.Stats.Drops
		}
		ns.Down, _ = s.faults.PeerDown(n.peer, t)
		snap.Nodes = append(snap.Nodes, ns)
	}
	for k, sh := range s.shards {
		ss := ShardSnap{ID: k, Util: sh.Utilization(), Served: sh.Served()}
		if s.limiters != nil {
			ss.Limit = s.limiters[k].Limit()
			ss.InFlight = s.limiters[k].InFlight()
		}
		ss.Down, _ = s.faults.PeerDown(ShardPeer(k), t)
		snap.Shards = append(snap.Shards, ss)
	}
	return snap
}
