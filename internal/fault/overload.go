package fault

import (
	"fmt"

	"repro/internal/evq"
)

// This file holds the adaptive overload-control laws the open-system
// cluster uses to survive offered load beyond capacity. Like the Breaker
// and Shedder, each controller is a small deterministic state machine on
// the simulated clock, driven entirely by its caller — no goroutines, no
// wall time — so overloaded runs replay bit-identically from their seed.
//
// Four mechanisms, four failure modes they kill:
//
//   - CoDel (queue-delay admission): unbounded queueing delay. The
//     controller watches how long requests *waited* rather than how many
//     are queued, and starts dropping at the head — at an escalating
//     rate — when the standing delay exceeds the target for a full
//     interval. Head drops propagate the congestion signal to the newest
//     requests' clients, which still have time to care.
//   - AIMD concurrency limit: backend collapse. The per-backend limit
//     grows additively while the backend is fast and halves (bounded
//     below) when it is slow, converging on the highest concurrency the
//     backend sustains — TCP congestion control applied to RPC.
//   - Retry budget: retry storms. Retries spend from a token bucket that
//     refills as a fraction of primary traffic; when failures dominate,
//     the bucket drains and retries stop amplifying the overload.
//   - Brownout: wasted optional work. A stepped degradation level driven
//     by queue delay; each level sheds one more optional work class, so
//     the revenue-critical class keeps its latency long after the
//     decorative ones are gone.

// CoDelConfig parameterizes the queue-delay admission controller.
type CoDelConfig struct {
	// TargetCycles is the acceptable standing queue delay (CoDel's
	// "target", 5 ms in the paper).
	TargetCycles uint64
	// IntervalCycles is how long the delay must stay above target before
	// dropping starts (CoDel's "interval", 100 ms in the paper).
	IntervalCycles uint64
}

// DefaultCoDelConfig scales the classic 5 ms / 100 ms to the 250 MHz
// simulated clock.
func DefaultCoDelConfig() CoDelConfig {
	return CoDelConfig{TargetCycles: 1_250_000, IntervalCycles: 25_000_000}
}

// Validate rejects degenerate configurations.
func (c CoDelConfig) Validate() error {
	if c.TargetCycles == 0 || c.IntervalCycles == 0 {
		return fmt.Errorf("fault: codel target and interval must be positive")
	}
	return nil
}

// CoDelStats counts controller decisions.
type CoDelStats struct {
	Drops uint64 // head drops
}

// CoDel is the controlled-delay admission controller, consulted at every
// dequeue with the dequeued request's queue delay. The control law follows
// Nichols & Jacobson: sojourn above target for one full interval enters the
// dropping state; successive drops accelerate as interval/sqrt(n); a
// sojourn below target exits immediately.
type CoDel struct {
	cfg CoDelConfig

	firstAbove uint64 // cycle the delay first exceeded target (0 = below)
	dropping   bool
	dropNext   uint64 // next scheduled drop while in dropping state
	dropCount  int

	Stats CoDelStats
}

// NewCoDel returns an idle controller; cfg must validate.
func NewCoDel(cfg CoDelConfig) *CoDel { return &CoDel{cfg: cfg} }

// controlLaw returns the time of drop n after t.
func (c *CoDel) controlLaw(t uint64, n int) uint64 {
	return t + uint64(float64(c.cfg.IntervalCycles)/sqrtf(n))
}

// OnDequeue decides the fate of a request dequeued at cycle now after
// waiting qdelay cycles: false admits it, true drops it. Callers drop the
// request and immediately try the next one.
func (c *CoDel) OnDequeue(now, qdelay uint64) (drop bool) {
	if qdelay < c.cfg.TargetCycles {
		// Standing delay resolved: leave dropping state, reset tracking.
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.cfg.IntervalCycles
	}
	if c.dropping {
		if now >= c.dropNext {
			c.dropCount++
			c.dropNext = c.controlLaw(c.dropNext, c.dropCount)
			c.Stats.Drops++
			return true
		}
		return false
	}
	if now >= c.firstAbove {
		// Delay stood above target for a full interval: start dropping.
		c.dropping = true
		c.dropCount = 1
		c.dropNext = c.controlLaw(now, c.dropCount)
		c.Stats.Drops++
		return true
	}
	return false
}

// Dropping reports whether the controller is in its dropping state.
func (c *CoDel) Dropping() bool { return c.dropping }

// sqrtf is an integer-friendly Newton sqrt for the control law (avoids
// importing math for one call; exact enough for drop pacing).
func sqrtf(n int) float64 {
	x := float64(n)
	if x <= 0 {
		return 1
	}
	g := x
	for i := 0; i < 20; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// AIMDConfig parameterizes the adaptive concurrency limiter.
type AIMDConfig struct {
	// MinLimit/MaxLimit bound the concurrency limit.
	MinLimit, MaxLimit float64
	// Increase is the additive limit growth per fast completion.
	Increase float64
	// DecreaseFactor multiplies the limit on a congestion signal (0, 1).
	DecreaseFactor float64
	// LatencyThresholdCycles is the round-trip time above which a
	// completion counts as a congestion signal, as do failures.
	LatencyThresholdCycles uint64
	// CooldownCycles rate-limits multiplicative decreases so one slow
	// burst does not collapse the limit to the floor.
	CooldownCycles uint64
}

// DefaultAIMDConfig suits a backend with ~0.5 ms fast-path responses: the
// congestion threshold is 1.2 ms — comfortably above a healthy round trip
// but below the 1.6 ms call timeout, so the limiter reacts to slowness
// before callers start abandoning — decreases halve, and at most one
// decrease fires per 10 ms.
func DefaultAIMDConfig() AIMDConfig {
	return AIMDConfig{
		MinLimit:               2,
		MaxLimit:               256,
		Increase:               0.05,
		DecreaseFactor:         0.5,
		LatencyThresholdCycles: 300_000,
		CooldownCycles:         2_500_000,
	}
}

// Validate rejects configurations that cannot converge.
func (c AIMDConfig) Validate() error {
	if c.MinLimit < 1 || c.MaxLimit < c.MinLimit {
		return fmt.Errorf("fault: aimd limits must satisfy 1 <= min <= max")
	}
	if c.Increase <= 0 {
		return fmt.Errorf("fault: aimd increase must be positive")
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		return fmt.Errorf("fault: aimd decrease factor %g outside (0, 1)", c.DecreaseFactor)
	}
	if c.LatencyThresholdCycles == 0 {
		return fmt.Errorf("fault: aimd latency threshold must be positive")
	}
	return nil
}

// AIMD is the adaptive concurrency limiter: the control law and the slots
// it admits. A discrete-event caller knows when a call's slot frees only
// when it issues the call, so each slot is held until a release time on
// the caller's clock (Hold) and freed once the clock passes it
// (TryAcquire). Completions feed the law through Outcome.
type AIMD struct {
	cfg          AIMDConfig
	limit        float64
	lastDecrease uint64
	held         evq.Queue[struct{}] // held slots, keyed by release time
}

// NewAIMD starts the limiter at the midpoint of its range; cfg must
// validate.
func NewAIMD(cfg AIMDConfig) *AIMD {
	return &AIMD{cfg: cfg, limit: (cfg.MinLimit + cfg.MaxLimit) / 2}
}

// Limit returns the current concurrency limit (floor it for admission).
func (l *AIMD) Limit() float64 { return l.limit }

// TryAcquire frees the slots released at or before now and reports whether
// the limit has room for one more. It takes no slot: the caller holds one
// with Hold once it knows the call's release time.
func (l *AIMD) TryAcquire(now uint64) bool {
	for l.held.Len() > 0 {
		if at, _ := l.held.Peek(); at > now {
			break
		}
		l.held.Pop()
	}
	return l.held.Len() < int(l.limit)
}

// Hold takes a slot until cycle release.
func (l *AIMD) Hold(release uint64) { l.held.Push(release, struct{}{}) }

// InFlight returns the slots held, as of the last TryAcquire.
func (l *AIMD) InFlight() int { return l.held.Len() }

// Outcome feeds one completed call: ok is the logical result, rtt its
// round-trip cycles, now the completion cycle. Slow or failed calls cut the
// limit (at most once per cooldown); fast successes grow it.
func (l *AIMD) Outcome(now, rtt uint64, ok bool) {
	if !ok || rtt > l.cfg.LatencyThresholdCycles {
		if now >= l.lastDecrease+l.cfg.CooldownCycles {
			l.limit *= l.cfg.DecreaseFactor
			if l.limit < l.cfg.MinLimit {
				l.limit = l.cfg.MinLimit
			}
			l.lastDecrease = now
		}
		return
	}
	l.limit += l.cfg.Increase
	if l.limit > l.cfg.MaxLimit {
		l.limit = l.cfg.MaxLimit
	}
}

// RetryBudgetConfig parameterizes the retry token bucket.
type RetryBudgetConfig struct {
	// Ratio is the tokens earned per primary request — the steady-state
	// retry fraction the budget permits (0.1 = 10% retry amplification).
	Ratio float64
	// Burst is the bucket capacity in tokens.
	Burst float64
}

// DefaultRetryBudgetConfig allows 10% steady-state retries with a burst of
// 20 — enough to ride out a blip, nothing like a storm.
func DefaultRetryBudgetConfig() RetryBudgetConfig {
	return RetryBudgetConfig{Ratio: 0.1, Burst: 20}
}

// Validate rejects empty budgets.
func (c RetryBudgetConfig) Validate() error {
	if c.Ratio <= 0 || c.Ratio > 1 {
		return fmt.Errorf("fault: retry budget ratio %g outside (0, 1]", c.Ratio)
	}
	if c.Burst < 1 {
		return fmt.Errorf("fault: retry budget burst must be at least 1")
	}
	return nil
}

// RetryBudget is the token bucket that bounds retry amplification. Earn is
// called once per primary (first-attempt) request; Allow gates each retry.
type RetryBudget struct {
	cfg    RetryBudgetConfig
	tokens float64
}

// NewRetryBudget returns a full bucket; cfg must validate.
func NewRetryBudget(cfg RetryBudgetConfig) *RetryBudget {
	return &RetryBudget{cfg: cfg, tokens: cfg.Burst}
}

// Earn credits the budget for one primary request.
func (b *RetryBudget) Earn() {
	b.tokens += b.cfg.Ratio
	if b.tokens > b.cfg.Burst {
		b.tokens = b.cfg.Burst
	}
}

// Allow spends one token for a retry, reporting whether one was available.
func (b *RetryBudget) Allow() bool {
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Tokens returns the current bucket level.
func (b *RetryBudget) Tokens() float64 { return b.tokens }

// BrownoutConfig parameterizes stepped degradation.
type BrownoutConfig struct {
	// MaxLevel is the deepest degradation level (work classes carry a
	// Priority; level L sheds every class with 0 < Priority <= L).
	MaxLevel int
	// EngageDelayCycles is the queue delay that steps the level up;
	// DisengageDelayCycles (< Engage) steps it down.
	EngageDelayCycles, DisengageDelayCycles uint64
	// HoldCycles is the minimum dwell between level changes, damping
	// oscillation.
	HoldCycles uint64
}

// DefaultBrownoutConfig engages at 18 ms of queue delay, disengages below
// 4 ms, and moves at most once per 25 ms. The engage threshold sits above
// the worst delay a default bounded queue can hold under any admitted mix,
// so steady overload (which the queue cap and CoDel absorb by shedding
// uniformly) does not brown the service — only genuine capacity loss (a
// crashed node draining with cold caches, a seized shard) pushes delay
// high enough to start shedding optional work. Setting the threshold
// below the cap's worst all-critical-mix delay instead causes lock-in:
// degradation shifts the queue toward expensive critical requests, whose
// own standing delay then holds the controller engaged forever.
func DefaultBrownoutConfig() BrownoutConfig {
	return BrownoutConfig{
		MaxLevel:             2,
		EngageDelayCycles:    4_500_000,
		DisengageDelayCycles: 1_000_000,
		HoldCycles:           6_250_000,
	}
}

// Validate rejects inverted thresholds.
func (c BrownoutConfig) Validate() error {
	if c.MaxLevel < 1 {
		return fmt.Errorf("fault: brownout needs at least one level")
	}
	if c.DisengageDelayCycles >= c.EngageDelayCycles {
		return fmt.Errorf("fault: brownout disengage threshold must be below engage threshold")
	}
	return nil
}

// Brownout is the stepped degradation controller. Observe feeds it queue
// delays (typically at every dequeue); DropClass answers admission-time
// questions about optional work.
type Brownout struct {
	cfg        BrownoutConfig
	level      int
	lastChange uint64
}

// NewBrownout returns an un-degraded controller; cfg must validate.
func NewBrownout(cfg BrownoutConfig) *Brownout { return &Brownout{cfg: cfg} }

// Level returns the current degradation level (0 = full service).
func (b *Brownout) Level() int { return b.level }

// Observe feeds one queue-delay measurement at cycle now and moves the
// level at most one step, respecting the hold time.
func (b *Brownout) Observe(now, qdelay uint64) {
	if now < b.lastChange+b.cfg.HoldCycles {
		return
	}
	switch {
	case qdelay >= b.cfg.EngageDelayCycles && b.level < b.cfg.MaxLevel:
		b.level++
		b.lastChange = now
	case qdelay <= b.cfg.DisengageDelayCycles && b.level > 0:
		b.level--
		b.lastChange = now
	}
}

// DropClass reports whether a request of the given priority should be shed
// at the current level. Priority 0 is never shed.
func (b *Brownout) DropClass(priority int) bool {
	return priority > 0 && priority <= b.level
}
