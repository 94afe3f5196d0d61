package reqtrace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Objective is one service-level objective, evaluated per interval and over
// the whole measurement window.
//
// A latency objective ("p99<=40ms") demands that at most 1-q of the
// interval's requests exceed the threshold; the allowed fraction is the
// error budget, and an interval's burn rate is the ratio of its actual bad
// fraction to that budget (burn <= 1 means the objective held). An error
// objective ("err<=1%") bounds the fraction of requests landing in error
// classes (shed, *.fail) the same way.
type Objective struct {
	// Spec is the flag text the objective was parsed from, echoed in
	// reports.
	Spec string `json:"spec"`
	// Class scopes the objective to one request class; "*" aggregates all
	// non-error classes.
	Class string `json:"class"`
	// Quantile is the latency quantile (0.5, 0.9, 0.95, 0.99, 0.999); 0
	// marks an error-rate objective.
	Quantile float64 `json:"quantile,omitempty"`
	// ThresholdCycles is the latency bound in simulated cycles (latency
	// objectives only).
	ThresholdCycles uint64 `json:"threshold_cycles,omitempty"`
	// Budget is the allowed bad fraction: 1-Quantile for latency
	// objectives, the bound itself for error objectives.
	Budget float64 `json:"budget"`
}

// ParseObjectives parses a -slo flag value: comma-separated objectives of
// the form [class:]pQQ<=BOUND or [class:]err<=P%, e.g.
//
//	p99<=40ms,neworder:p95<=20ms,err<=2%
//
// Latency bounds take units us, ms, s, or cy (raw simulated cycles). The
// class defaults to "*" (all non-error classes together).
func ParseObjectives(spec string) ([]Objective, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Objective
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		o, err := parseObjective(part)
		if err != nil {
			return nil, fmt.Errorf("slo %q: %w", part, err)
		}
		out = append(out, o)
	}
	return out, nil
}

func parseObjective(s string) (Objective, error) {
	o := Objective{Spec: s, Class: "*"}
	body := s
	if i := strings.LastIndex(s, ":"); i >= 0 {
		o.Class = strings.TrimSpace(s[:i])
		body = s[i+1:]
		if o.Class == "" {
			o.Class = "*"
		}
	}
	var lhs, rhs string
	switch {
	case strings.Contains(body, "<="):
		parts := strings.SplitN(body, "<=", 2)
		lhs, rhs = parts[0], parts[1]
	case strings.Contains(body, "<"):
		parts := strings.SplitN(body, "<", 2)
		lhs, rhs = parts[0], parts[1]
	default:
		return o, fmt.Errorf("missing <= bound")
	}
	lhs = strings.TrimSpace(strings.ToLower(lhs))
	rhs = strings.TrimSpace(strings.ToLower(rhs))

	if lhs == "err" {
		if !strings.HasSuffix(rhs, "%") {
			return o, fmt.Errorf("error objective bound must be a percentage")
		}
		p, err := strconv.ParseFloat(strings.TrimSuffix(rhs, "%"), 64)
		// The negated form also rejects NaN; the quotient rejects a
		// percentage so small that the budget underflows to zero.
		if err != nil || !(p > 0 && p < 100) || p/100 == 0 {
			return o, fmt.Errorf("bad error percentage %q", rhs)
		}
		o.Budget = p / 100
		return o, nil
	}

	q, ok := map[string]float64{
		"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99, "p999": 0.999, "p99.9": 0.999,
	}[lhs]
	if !ok {
		return o, fmt.Errorf("unknown quantile %q (want p50/p90/p95/p99/p999 or err)", lhs)
	}
	o.Quantile = q
	o.Budget = 1 - q

	unit := ""
	num := rhs
	for _, u := range []string{"us", "ms", "cy", "s"} {
		if strings.HasSuffix(rhs, u) {
			unit = u
			num = strings.TrimSuffix(rhs, u)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil || !(v > 0) {
		return o, fmt.Errorf("bad latency bound %q", rhs)
	}
	switch unit {
	case "us":
		v *= obs.CyclesPerMicrosecond
	case "ms", "": // default milliseconds: the natural unit for request SLOs
		v = v * obs.CyclesPerMicrosecond * 1e3
	case "s":
		v = v * obs.CyclesPerMicrosecond * 1e6
	}
	// Go leaves the uint64 conversion of a float at or beyond 2^64 (or
	// infinite) to the implementation, so such bounds are rejected.
	if !(v < math.MaxUint64) {
		return o, fmt.Errorf("latency bound %q exceeds the cycle counter's range", rhs)
	}
	o.ThresholdCycles = uint64(v)
	if o.ThresholdCycles == 0 {
		return o, fmt.Errorf("latency bound rounds to zero cycles")
	}
	return o, nil
}

// IntervalBurn is one interval's SLO accounting.
type IntervalBurn struct {
	Index    int     `json:"index"`
	Requests uint64  `json:"requests"`
	Bad      uint64  `json:"bad"`
	BurnRate float64 `json:"burn_rate"`
	Met      bool    `json:"met"`
}

// SLOResult is one objective's verdict over the measurement window.
type SLOResult struct {
	Objective Objective `json:"objective"`
	// Requests/Bad aggregate the whole window; BudgetBurn is the fraction
	// of the window's total error budget consumed (1.0 = exactly spent).
	Requests   uint64  `json:"requests"`
	Bad        uint64  `json:"bad"`
	BudgetBurn float64 `json:"budget_burn"`
	Met        bool    `json:"met"`
	// WorstBurn/WorstInterval locate the hottest interval; Violations
	// counts intervals whose burn rate exceeded 1.
	WorstBurn     float64        `json:"worst_burn"`
	WorstInterval int            `json:"worst_interval"`
	Violations    int            `json:"violations"`
	Intervals     []IntervalBurn `json:"intervals"`
}

// matches reports whether the objective covers the class. Latency
// objectives on "*" skip error classes (their latency is not a promise);
// error objectives use class counts directly in evaluate.
func (o *Objective) matches(class string) bool {
	if o.Class == "*" {
		return !IsErrorClass(class)
	}
	return o.Class == class
}

// BinBurn returns the worst burn rate any configured objective suffered in
// time-series bin `bin` (0 when the bin is out of range, holds no requests,
// or no objectives are configured). The flight recorder polls it on
// completed bins to decide whether a budget-burn trigger fired.
func (c *Collector) BinBurn(bin int) float64 {
	if c == nil || bin < 0 || bin >= len(c.bins) {
		return 0
	}
	worst := 0.0
	b := c.bins[bin]
	for i := range c.opt.Objectives {
		o := &c.opt.Objectives[i]
		var n, bad uint64
		for class, h := range b.classes {
			if o.Quantile > 0 {
				if !o.matches(class) {
					continue
				}
				n += h.Count()
				bad += h.Count() - h.CountLE(o.ThresholdCycles)
			} else {
				if o.Class != "*" && !strings.HasPrefix(class, o.Class) {
					continue
				}
				n += h.Count()
				if IsErrorClass(class) {
					bad += h.Count()
				}
			}
		}
		if n == 0 {
			continue
		}
		if burn := float64(bad) / float64(n) / o.Budget; burn > worst {
			worst = burn
		}
	}
	return worst
}

// CompletedBins returns the number of time-series bins fully behind `now`
// (bins whose end the clock has passed).
func (c *Collector) CompletedBins(now uint64) int {
	if c == nil || now <= c.origin {
		return 0
	}
	return int((now - c.origin) / c.opt.IntervalCycles)
}

// evaluateSLOs judges every configured objective against the collected
// intervals. Ordering follows the configuration order, so reports are
// deterministic.
func (c *Collector) evaluateSLOs() []SLOResult {
	var out []SLOResult
	for i := range c.opt.Objectives {
		out = append(out, c.evaluate(&c.opt.Objectives[i]))
	}
	return out
}

func (c *Collector) evaluate(o *Objective) SLOResult {
	res := SLOResult{Objective: *o, Met: true, WorstInterval: -1}
	for i, b := range c.bins {
		var n, bad uint64
		// Deterministic accumulation order is irrelevant here — only sums —
		// but iterate sorted anyway to keep the code shape uniform.
		for class, h := range b.classes {
			if o.Quantile > 0 { // latency objective
				if !o.matches(class) {
					continue
				}
				n += h.Count()
				bad += h.Count() - h.CountLE(o.ThresholdCycles)
			} else { // error objective
				if o.Class != "*" && !strings.HasPrefix(class, o.Class) {
					continue
				}
				n += h.Count()
				if IsErrorClass(class) {
					bad += h.Count()
				}
			}
		}
		ib := IntervalBurn{Index: i, Requests: n, Bad: bad, Met: true}
		if n > 0 {
			ib.BurnRate = float64(bad) / float64(n) / o.Budget
			ib.Met = ib.BurnRate <= 1
		}
		if !ib.Met {
			res.Violations++
			res.Met = false
		}
		if ib.BurnRate > res.WorstBurn {
			res.WorstBurn = ib.BurnRate
			res.WorstInterval = i
		}
		res.Requests += n
		res.Bad += bad
		res.Intervals = append(res.Intervals, ib)
	}
	if res.Requests > 0 {
		res.BudgetBurn = float64(res.Bad) / float64(res.Requests) / o.Budget
	}
	return res
}
