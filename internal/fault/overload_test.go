package fault

import "testing"

func TestOverloadConfigValidation(t *testing.T) {
	if err := DefaultCoDelConfig().Validate(); err != nil {
		t.Errorf("default codel config invalid: %v", err)
	}
	if err := DefaultAIMDConfig().Validate(); err != nil {
		t.Errorf("default aimd config invalid: %v", err)
	}
	if err := DefaultRetryBudgetConfig().Validate(); err != nil {
		t.Errorf("default retry budget config invalid: %v", err)
	}
	if err := DefaultBrownoutConfig().Validate(); err != nil {
		t.Errorf("default brownout config invalid: %v", err)
	}
	bad := []error{
		CoDelConfig{TargetCycles: 0, IntervalCycles: 1}.Validate(),
		AIMDConfig{MinLimit: 0, MaxLimit: 10, Increase: 1, DecreaseFactor: 0.5, LatencyThresholdCycles: 1}.Validate(),
		AIMDConfig{MinLimit: 2, MaxLimit: 10, Increase: 1, DecreaseFactor: 1.5, LatencyThresholdCycles: 1}.Validate(),
		RetryBudgetConfig{Ratio: 0, Burst: 10}.Validate(),
		BrownoutConfig{MaxLevel: 1, EngageDelayCycles: 100, DisengageDelayCycles: 200}.Validate(),
	}
	for i, err := range bad {
		if err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

// TestCoDelBelowTargetNeverDrops: short queue delays pass untouched.
func TestCoDelBelowTargetNeverDrops(t *testing.T) {
	cfg := DefaultCoDelConfig()
	c := NewCoDel(cfg)
	for now := uint64(0); now < 100*cfg.IntervalCycles; now += cfg.IntervalCycles / 10 {
		if c.OnDequeue(now, cfg.TargetCycles/2) {
			t.Fatalf("dropped at %d with delay below target", now)
		}
	}
	if c.Stats.Drops != 0 {
		t.Errorf("drops = %d, want 0", c.Stats.Drops)
	}
}

// TestCoDelStandingDelayDrops: a standing delay above target for a full
// interval enters the dropping state, and drops accelerate; recovery (a
// sojourn below target) exits immediately.
func TestCoDelStandingDelayDrops(t *testing.T) {
	cfg := DefaultCoDelConfig()
	c := NewCoDel(cfg)
	step := cfg.IntervalCycles / 50
	now := uint64(0)
	// Phase 1: delay persistently 4x target.
	var firstDrop uint64
	for i := 0; i < 1000; i++ {
		now += step
		if c.OnDequeue(now, 4*cfg.TargetCycles) && firstDrop == 0 {
			firstDrop = now
		}
	}
	if firstDrop == 0 {
		t.Fatal("standing delay never triggered a drop")
	}
	if firstDrop < cfg.IntervalCycles {
		t.Errorf("first drop at %d, before a full interval %d elapsed", firstDrop, cfg.IntervalCycles)
	}
	if !c.Dropping() {
		t.Error("controller not in dropping state under standing delay")
	}
	earlyDrops := c.Stats.Drops
	// Drops accelerate: the second half of an equally long overload window
	// must shed at least as many as the first.
	for i := 0; i < 1000; i++ {
		now += step
		c.OnDequeue(now, 4*cfg.TargetCycles)
	}
	lateDrops := c.Stats.Drops - earlyDrops
	if lateDrops < earlyDrops {
		t.Errorf("drops decelerated: %d then %d", earlyDrops, lateDrops)
	}
	// Phase 2: one below-target sojourn resets everything.
	if c.OnDequeue(now+step, cfg.TargetCycles/4) {
		t.Error("dropped a below-target request")
	}
	if c.Dropping() {
		t.Error("controller still dropping after delay recovered")
	}
}

// TestAIMDConverges: fast successes grow the limit to the cap; slow
// responses collapse it multiplicatively but never below the floor, and the
// cooldown bounds the collapse rate.
func TestAIMDConverges(t *testing.T) {
	cfg := DefaultAIMDConfig()
	l := NewAIMD(cfg)
	start := l.Limit()
	now := uint64(0)
	for i := 0; i < 100000; i++ {
		now += 1000
		l.Outcome(now, cfg.LatencyThresholdCycles/2, true)
	}
	if l.Limit() != cfg.MaxLimit {
		t.Errorf("limit %.1f after sustained fast traffic, want cap %.1f", l.Limit(), cfg.MaxLimit)
	}
	if l.Limit() <= start {
		t.Errorf("limit never grew from %.1f", start)
	}
	// One slow burst inside a single cooldown window: exactly one decrease.
	before := l.Limit()
	for i := 0; i < 10; i++ {
		l.Outcome(now+uint64(i), 10*cfg.LatencyThresholdCycles, true)
	}
	if got, want := l.Limit(), before*cfg.DecreaseFactor; got != want {
		t.Errorf("limit %.2f after one congested burst, want single cut to %.2f", got, want)
	}
	// Sustained congestion across cooldowns: floor holds.
	for i := 0; i < 100; i++ {
		now += cfg.CooldownCycles + 1
		l.Outcome(now, 10*cfg.LatencyThresholdCycles, false)
	}
	if l.Limit() != cfg.MinLimit {
		t.Errorf("limit %.2f under sustained congestion, want floor %.2f", l.Limit(), cfg.MinLimit)
	}
}

// TestLimiterHeldSlots: slots held to a release time count against the
// limit until the clock passes that time; then they free and admit again.
func TestLimiterHeldSlots(t *testing.T) {
	cfg := DefaultAIMDConfig()
	cfg.MinLimit, cfg.MaxLimit = 4, 4
	l := NewAIMD(cfg)
	const release = 1000
	for i := 0; i < 4; i++ {
		if !l.TryAcquire(10) {
			t.Fatalf("refused slot %d below the limit of 4", i)
		}
		l.Hold(release + uint64(i))
	}
	if l.TryAcquire(release - 1) {
		t.Fatal("admitted a fifth slot at the limit")
	}
	if got := l.InFlight(); got != 4 {
		t.Fatalf("in flight %d at the limit, want 4", got)
	}
	// At the first release time exactly one slot frees.
	if !l.TryAcquire(release) {
		t.Fatal("refused after a slot's release time")
	}
	if got := l.InFlight(); got != 3 {
		t.Fatalf("in flight %d after one release, want 3", got)
	}
	l.Hold(2 * release)
	if l.TryAcquire(release) {
		t.Fatal("admitted past the limit after re-filling the freed slot")
	}
	// Past every release time, all slots are free again.
	if !l.TryAcquire(2*release) || l.InFlight() != 0 {
		t.Fatalf("in flight %d after every release, want 0", l.InFlight())
	}
}

// TestRetryBudgetStopsStorms: with no primary traffic earning tokens, only
// the initial burst of retries is admitted; steady primary traffic sustains
// the configured retry ratio.
func TestRetryBudgetStopsStorms(t *testing.T) {
	cfg := RetryBudgetConfig{Ratio: 0.1, Burst: 20}
	b := NewRetryBudget(cfg)
	admitted := 0
	for i := 0; i < 1000; i++ {
		if b.Allow() {
			admitted++
		}
	}
	if admitted != int(cfg.Burst) {
		t.Errorf("storm admitted %d retries, want exactly the burst %d", admitted, int(cfg.Burst))
	}
	// Steady state: 10 primaries earn one retry.
	b2 := NewRetryBudget(cfg)
	for i := 0; i < int(cfg.Burst); i++ { // drain the initial burst
		b2.Allow()
	}
	earned := 0
	for i := 0; i < 1000; i++ {
		b2.Earn()
		if b2.Allow() {
			earned++
		}
	}
	if earned < 95 || earned > 105 {
		t.Errorf("steady-state retries %d per 1000 primaries, want ~%d", earned, int(cfg.Ratio*1000))
	}
}

// TestBrownoutSteps: queue pressure walks the level up one step per hold
// period, relief walks it back down, and priority-0 work is never shed.
func TestBrownoutSteps(t *testing.T) {
	cfg := DefaultBrownoutConfig()
	b := NewBrownout(cfg)
	if b.DropClass(2) || b.DropClass(0) {
		t.Fatal("un-degraded controller sheds work")
	}
	now := cfg.HoldCycles
	b.Observe(now, cfg.EngageDelayCycles)
	if b.Level() != 1 {
		t.Fatalf("level %d after first engage, want 1", b.Level())
	}
	// Within the hold period nothing moves.
	b.Observe(now+1, cfg.EngageDelayCycles*10)
	if b.Level() != 1 {
		t.Fatalf("level moved within hold period")
	}
	now += cfg.HoldCycles
	b.Observe(now, cfg.EngageDelayCycles)
	if b.Level() != cfg.MaxLevel {
		t.Fatalf("level %d, want max %d", b.Level(), cfg.MaxLevel)
	}
	// At max level: optional classes shed, critical class survives.
	if !b.DropClass(1) || !b.DropClass(2) {
		t.Error("optional classes not shed at max level")
	}
	if b.DropClass(0) {
		t.Error("priority-0 class shed")
	}
	// Ceiling holds.
	now += cfg.HoldCycles
	b.Observe(now, cfg.EngageDelayCycles)
	if b.Level() != cfg.MaxLevel {
		t.Errorf("level %d exceeded max", b.Level())
	}
	// Relief walks back down.
	for i := 0; i < 2; i++ {
		now += cfg.HoldCycles
		b.Observe(now, cfg.DisengageDelayCycles)
	}
	if b.Level() != 0 {
		t.Errorf("level %d after sustained relief, want 0", b.Level())
	}
}

// TestBreakerHalfOpenProbeFailure is the regression test for the half-open
// probe-failure path: a failed probe must re-open the breaker and restart
// the FULL cooldown from the probe's completion — not resume the old one,
// and not land half-open or closed.
func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	pol := DefaultPolicy()
	b := NewBreaker(&pol)
	// Trip the breaker at t=0.
	for i := 0; i < pol.BreakerFailures; i++ {
		if !b.Allow(0) {
			t.Fatal("closed breaker rejected a call")
		}
		b.Record(0, false)
	}
	if b.State(0) != BreakerOpen {
		t.Fatalf("state %v after %d failures, want open", b.State(0), pol.BreakerFailures)
	}
	// Cooldown elapses; the probe is admitted at t1 and fails at t2.
	t1 := pol.BreakerCooldownCycles
	if !b.Allow(t1) {
		t.Fatal("half-open breaker rejected the probe")
	}
	t2 := t1 + 100_000
	b.Record(t2, false)

	if got := b.State(t2); got != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", got)
	}
	// A fresh full cooldown must run from t2: just before t2+cooldown the
	// breaker still rejects; at t2+cooldown it admits exactly one new probe.
	if b.Allow(t2 + pol.BreakerCooldownCycles - 1) {
		t.Error("breaker admitted a call before the restarted cooldown elapsed")
	}
	// In particular the OLD cooldown (from the original open at t=0) must
	// not apply: t1+cooldown has long passed, yet the breaker stays open.
	if got := b.State(t1 + pol.BreakerCooldownCycles); got != BreakerOpen {
		t.Errorf("state %v at old-cooldown expiry, want open (cooldown must restart)", got)
	}
	t3 := t2 + pol.BreakerCooldownCycles
	if !b.Allow(t3) {
		t.Fatal("breaker rejected the probe after the restarted cooldown")
	}
	// Only one probe at a time.
	if b.Allow(t3) {
		t.Error("second concurrent probe admitted in half-open state")
	}
	// This probe succeeds: breaker closes and stays closed.
	b.Record(t3+100_000, true)
	if got := b.State(t3 + 200_000); got != BreakerClosed {
		t.Errorf("state %v after successful probe, want closed", got)
	}
	if b.Stats.Opens != 2 {
		t.Errorf("opens = %d, want 2 (initial trip + failed probe)", b.Stats.Opens)
	}
}
