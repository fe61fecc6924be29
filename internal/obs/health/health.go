// Package health is the online SLO engine: declarative rules judged
// against the live round-event stream while a run executes, instead of a
// post-hoc sweep over a recorded trace. It exists for the regimes where
// recording everything is impossible — a 10k-node steady-state run is
// healthy or not *now*, against the Theorem-1 pace and the operator's
// latency/queue budgets, and the verdict has to come out of bounded
// per-round state.
//
// The engine consumes three feeds, all on the engine goroutine:
//
//   - Observe: one finalized obs.RoundEvent per round (the Collector's
//     OnEvent hook, or the flight recorder's tee of it);
//   - ObserveMetrics: the engine's own Metrics at the round barrier
//     (sim.Observer.Barrier) — the token-conservation invariant must be
//     checked against engine truth, not against counters the event stream
//     itself derives from;
//   - RoundTiming: per-stage wall times (a sim.TimingSink tee) for the
//     regression-vs-rolling-baseline rule.
//
// Phase-scoped rules (pace, p99, queue, beacons) are evaluated at phase
// boundaries; stall, conservation and stage regression fire the round they
// are observed. Verdicts surface three ways: an OnViolation callback (the
// flight recorder's dump trigger), the sim_health_state gauge plus
// sim_slo_violations_total{rule} counters on the run's Registry, and
// States() snapshots for the /statusz and /healthz surfaces.
package health

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind enumerates the rule types the engine knows how to judge.
type Kind int

const (
	// KindPace is the Theorem-1 schedule floor: after p complete phases
	// the run must average at least min(k, α·(p−1)) delivered tokens per
	// node (the aggregate form of the per-head pace the provenance
	// checker enforces; phase 1 is grace, mirroring Budget.RequiredHeadMin).
	KindPace Kind = iota
	// KindLatencyP99 bounds the p99 of token arrival→collection latency
	// in rounds (arrival-mode runs; fed via ObserveLatency).
	KindLatencyP99
	// KindQueue bounds the outstanding-token queue depth at phase
	// boundaries (arrival-mode runs).
	KindQueue
	// KindBeacons bounds the self-stabilization maintenance budget: mean
	// beacons per round over each phase.
	KindBeacons
	// KindStage flags a per-stage wall-time regression: any stage whose
	// round time exceeds Threshold × its rolling baseline (after a
	// warmup) violates.
	KindStage
	// KindConservation checks the token-conservation invariant each
	// barrier: OutstandingTokens == K + TokensInjected − TokensCollected
	// (arrival-mode runs; vacuous otherwise).
	KindConservation
	// KindStall bounds the engine's no-progress streak; the stall
	// watchdog's own firing (RoundEvent.Stalled) violates regardless of
	// threshold.
	KindStall

	numKinds
)

var kindNames = [numKinds]string{
	"pace", "p99", "queue", "beacons", "stage", "conservation", "stall",
}

// String returns the rule-spec name ("pace", "p99", ...), which is also
// the {rule=...} label on sim_slo_violations_total.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// MarshalJSON encodes the kind by its spec name, so bundles and /statusz
// stay readable and stable across enum reordering.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a spec name back into a Kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("health: unknown rule kind %q", s)
}

// Rule is one declarative SLO clause.
type Rule struct {
	Kind Kind `json:"kind"`
	// Threshold is the clause's bound; meaning depends on Kind (rounds
	// for p99 and stall, tokens for queue, beacons/round for beacons, a
	// slowdown factor for stage). Unused by pace and conservation.
	Threshold float64 `json:"threshold"`
}

// ParseRules parses a comma-separated rule spec, e.g.
//
//	pace,p99<=40,queue<=500,beacons<=1200,stage>2.0,conservation,stall>=50
//
// Clause grammar: bare "pace" and "conservation"; "p99<=F", "queue<=N",
// "beacons<=F" (upper bounds); "stage>F" (slowdown factor, > 1);
// "stall>=N" (streak length, ≥ 1). Whitespace around clauses is ignored;
// an empty spec yields no rules.
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	seen := [numKinds]bool{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		if seen[r.Kind] {
			return nil, fmt.Errorf("health: duplicate %q rule in %q", r.Kind, spec)
		}
		seen[r.Kind] = true
		rules = append(rules, r)
	}
	return rules, nil
}

func parseClause(clause string) (Rule, error) {
	switch clause {
	case "pace":
		return Rule{Kind: KindPace}, nil
	case "conservation":
		return Rule{Kind: KindConservation}, nil
	}
	for _, c := range [...]struct {
		prefix string
		op     string
		kind   Kind
		min    float64
	}{
		{"p99", "<=", KindLatencyP99, 0},
		{"queue", "<=", KindQueue, 0},
		{"beacons", "<=", KindBeacons, 0},
		{"stage", ">", KindStage, 1},
		{"stall", ">=", KindStall, 1},
	} {
		rest, ok := strings.CutPrefix(clause, c.prefix)
		if !ok {
			continue
		}
		val, ok := strings.CutPrefix(rest, c.op)
		if !ok {
			return Rule{}, fmt.Errorf("health: clause %q: want %s%s<value>", clause, c.prefix, c.op)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		// A non-finite threshold judges nothing and cannot be encoded
		// into a postmortem bundle.
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < c.min {
			return Rule{}, fmt.Errorf("health: clause %q: bad threshold %q", clause, val)
		}
		return Rule{Kind: c.kind, Threshold: f}, nil
	}
	return Rule{}, fmt.Errorf("health: unknown rule clause %q", clause)
}

// Violation is one rule breach, delivered to OnViolation as it is judged.
type Violation struct {
	// Rule is the violated rule's spec name ("pace", "p99", ...).
	Rule string
	// Round / Phase locate the judgement (the round whose event or
	// barrier triggered it).
	Round int
	Phase int
	// Value is the observed quantity, Limit the bound it broke.
	Value float64
	Limit float64
	// Detail is a one-line human rendering, e.g. for postmortem output.
	Detail string
}

// State is one rule's running verdict, snapshotted by States().
type State struct {
	Rule Rule `json:"rule"`
	// Violations counts breaches so far; FirstRound is the round of the
	// first one (−1 while clean).
	Violations int `json:"violations"`
	FirstRound int `json:"first_round"`
	// LastValue / LastLimit are the most recent judgement's observed
	// value and bound (whether or not it violated); LastRound is when.
	LastValue float64 `json:"last_value"`
	LastLimit float64 `json:"last_limit"`
	LastRound int     `json:"last_round"`
}

// Healthy reports whether the rule has never been breached.
func (s *State) Healthy() bool { return s.Violations == 0 }

// Config parameterises an Engine.
type Config struct {
	// Rules is the SLO set to enforce (typically from ParseRules).
	Rules []Rule
	// N, K and PhaseLen mirror the run's obs.Config; Alpha is the
	// Theorem-1 progress coefficient for the pace rule (0 disables the
	// floor, matching provenance.Budget semantics).
	N, K, PhaseLen, Alpha int
	// Arrivals marks an arrival-mode run; the conservation and queue
	// rules only bind there.
	Arrivals bool
	// Registry, if non-nil, receives the sim_health_state gauge and
	// sim_slo_violations_total{rule} counters.
	Registry *obs.Registry
	// OnViolation, if set, is called once per breach, on the engine
	// goroutine, after the engine's own state and registry updates.
	OnViolation func(Violation)
	// StageWarmup is how many timed rounds seed the rolling baseline
	// before the stage rule starts judging (default 16).
	StageWarmup int
	// StageMinNanos is the per-round floor below which a stage is never
	// flagged, so microsecond jitter on trivial stages cannot violate
	// (default 200µs).
	StageMinNanos int64
}

// Engine evaluates a rule set online. All Observe* methods must be called
// from the engine goroutine (they are fed by sim.Observer / sim.TimingSink
// callbacks, which the engine serialises); States, Healthy and Violations
// may be called concurrently from other goroutines (the HTTP surfaces).
type Engine struct {
	cfg Config

	mu     sync.Mutex
	states []State
	total  int

	// latency is the engine's own arrival→collection histogram; the p99
	// rule cannot read the run Registry's histogram because the registry
	// is optional and shared across seeds in the experiment harness.
	latency *obs.Histogram

	// phaseBeacons / phaseRounds accumulate the current phase for the
	// beacon-budget rule.
	phaseBeacons int64
	phaseRounds  int

	// baseline is the per-stage rolling (exponentially weighted) mean
	// wall time; warm counts rounds folded in so judging waits for
	// StageWarmup.
	baseline [sim.NumStages]float64
	warm     int

	gauge      *obs.Gauge
	violations [numKinds]*obs.Counter
}

// New builds an engine for one run. A nil return means no rules were
// configured; all Engine methods are nil-safe no-ops, so callers can wire
// the hooks unconditionally.
func New(cfg Config) *Engine {
	if len(cfg.Rules) == 0 {
		return nil
	}
	if cfg.StageWarmup <= 0 {
		cfg.StageWarmup = 16
	}
	if cfg.StageMinNanos <= 0 {
		cfg.StageMinNanos = 200_000
	}
	e := &Engine{cfg: cfg, states: make([]State, len(cfg.Rules))}
	for i, r := range cfg.Rules {
		e.states[i] = State{Rule: r, FirstRound: -1, LastRound: -1}
		if r.Kind == KindLatencyP99 {
			e.latency = obs.NewHistogram(obs.LatencyBuckets)
		}
	}
	if reg := cfg.Registry; reg != nil {
		e.gauge = reg.Gauge("sim_health_state", "1 while every SLO rule holds, 0 after any breach")
		e.gauge.Set(1)
		for _, r := range cfg.Rules {
			e.violations[r.Kind] = reg.Counter(
				`sim_slo_violations_total{rule="`+r.Kind.String()+`"}`,
				"SLO rule breaches judged by the online health engine")
		}
	}
	return e
}

// Rules returns the configured rule set (nil-safe).
func (e *Engine) Rules() []Rule {
	if e == nil {
		return nil
	}
	return e.cfg.Rules
}

// judge records one evaluation of rule index i; violated breaches it.
func (e *Engine) judge(i, round, phase int, value, limit float64, violated bool, detail string) {
	e.mu.Lock()
	s := &e.states[i]
	s.LastValue, s.LastLimit, s.LastRound = value, limit, round
	var v Violation
	if violated {
		s.Violations++
		if s.FirstRound < 0 {
			s.FirstRound = round
		}
		e.total++
		v = Violation{
			Rule: s.Rule.Kind.String(), Round: round, Phase: phase,
			Value: value, Limit: limit, Detail: detail,
		}
	}
	e.mu.Unlock()
	if !violated {
		return
	}
	if c := e.violations[e.cfg.Rules[i].Kind]; c != nil {
		c.Add(1)
	}
	if e.gauge != nil {
		e.gauge.Set(0)
	}
	if e.cfg.OnViolation != nil {
		e.cfg.OnViolation(v)
	}
}

// Observe judges one finalized round event. Phase-scoped rules (pace,
// p99, queue, beacons) are evaluated only when ev.Round closes a phase;
// the stall rule is judged every round.
func (e *Engine) Observe(ev *obs.RoundEvent) {
	if e == nil {
		return
	}
	e.phaseBeacons += int64(ev.Beacons)
	e.phaseRounds++
	boundary := e.cfg.PhaseLen > 0 && (ev.Round+1)%e.cfg.PhaseLen == 0
	phases := 0
	if boundary {
		phases = (ev.Round + 1) / e.cfg.PhaseLen
	}
	for i, r := range e.cfg.Rules {
		switch r.Kind {
		case KindStall:
			limit := r.Threshold
			streak := float64(ev.Stall)
			if ev.Stalled || (limit > 0 && streak >= limit) {
				e.judge(i, ev.Round, ev.Phase, streak, limit, true,
					fmt.Sprintf("no delivery progress for %d rounds (watchdog=%v)", ev.Stall, ev.Stalled))
			} else {
				e.judge(i, ev.Round, ev.Phase, streak, limit, false, "")
			}
		case KindPace:
			if !boundary || e.cfg.Alpha <= 0 || phases <= 1 || e.cfg.N <= 0 || e.cfg.Arrivals {
				continue
			}
			req := e.cfg.Alpha * (phases - 1)
			if req > e.cfg.K {
				req = e.cfg.K
			}
			perNode := float64(ev.Delivered) / float64(e.cfg.N)
			e.judge(i, ev.Round, ev.Phase, perNode, float64(req), perNode < float64(req),
				fmt.Sprintf("%.2f tokens/node after %d phases, Theorem-1 floor min(k, α·(p−1)) = %d", perNode, phases, req))
		case KindLatencyP99:
			if !boundary || e.latency == nil || e.latency.Count() == 0 {
				continue
			}
			p99 := e.latency.Quantile(0.99)
			e.judge(i, ev.Round, ev.Phase, p99, r.Threshold, p99 > r.Threshold,
				fmt.Sprintf("delivery-latency p99 %.1f rounds over budget %.1f", p99, r.Threshold))
		case KindQueue:
			if !boundary || !e.cfg.Arrivals {
				continue
			}
			depth := float64(ev.Outstanding)
			e.judge(i, ev.Round, ev.Phase, depth, r.Threshold, depth > r.Threshold,
				fmt.Sprintf("%d outstanding tokens over queue budget %.0f", ev.Outstanding, r.Threshold))
		case KindBeacons:
			if !boundary || e.phaseRounds == 0 {
				continue
			}
			mean := float64(e.phaseBeacons) / float64(e.phaseRounds)
			e.judge(i, ev.Round, ev.Phase, mean, r.Threshold, mean > r.Threshold,
				fmt.Sprintf("%.1f maintenance beacons/round this phase over budget %.0f", mean, r.Threshold))
		}
	}
	if boundary {
		e.phaseBeacons, e.phaseRounds = 0, 0
	}
}

// ObserveLatency feeds one token's arrival→collection latency (rounds)
// into the p99 rule.
func (e *Engine) ObserveLatency(rounds int) {
	if e == nil || e.latency == nil {
		return
	}
	e.latency.Observe(float64(rounds))
}

// ObserveMetrics judges the token-conservation invariant against the
// engine's own Metrics at round r's barrier: every live token is exactly
// one of {initial batch, injected} minus {collected}. met aliases engine
// storage and is read, not retained.
func (e *Engine) ObserveMetrics(r int, met *sim.Metrics) {
	if e == nil || !e.cfg.Arrivals {
		return
	}
	for i, rule := range e.cfg.Rules {
		if rule.Kind != KindConservation {
			continue
		}
		want := int64(e.cfg.K) + met.TokensInjected - met.TokensCollected
		got := int64(met.OutstandingTokens)
		e.judge(i, r, e.phaseOf(r), float64(got), float64(want), got != want,
			fmt.Sprintf("outstanding=%d but K+injected−collected = %d+%d−%d = %d",
				got, e.cfg.K, met.TokensInjected, met.TokensCollected, want))
	}
}

// RoundTiming judges the per-stage regression rule against a rolling
// baseline and folds this round into it. wall aliases engine storage and
// is read, not retained. Feed it from a sim.TimingSink's RoundEnd.
func (e *Engine) RoundTiming(r int, wall *[sim.NumStages]int64) {
	if e == nil {
		return
	}
	idx := -1
	for i, rule := range e.cfg.Rules {
		if rule.Kind == KindStage {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	factor := e.cfg.Rules[idx].Threshold
	if e.warm >= e.cfg.StageWarmup {
		worst, worstStage := 0.0, -1
		for s := 0; s < int(sim.NumStages); s++ {
			base := e.baseline[s]
			w := float64(wall[s])
			if base <= 0 || wall[s] < e.cfg.StageMinNanos {
				continue
			}
			if ratio := w / base; ratio > worst {
				worst, worstStage = ratio, s
			}
		}
		if worstStage >= 0 {
			e.judge(idx, r, e.phaseOf(r), worst, factor, worst > factor,
				fmt.Sprintf("stage %q ran %.2f× its rolling baseline (budget %.2f×)",
					sim.Stage(worstStage), worst, factor))
		}
	}
	// Fold the round into the baseline after judging, so a spike is
	// compared against history that does not yet include it.
	const decay = 0.9
	for s := 0; s < int(sim.NumStages); s++ {
		if e.warm == 0 {
			e.baseline[s] = float64(wall[s])
		} else {
			e.baseline[s] = decay*e.baseline[s] + (1-decay)*float64(wall[s])
		}
	}
	e.warm++
}

func (e *Engine) phaseOf(r int) int {
	if e.cfg.PhaseLen <= 0 {
		return 0
	}
	return r / e.cfg.PhaseLen
}

// States snapshots every rule's running verdict, in Config.Rules order.
func (e *Engine) States() []State {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]State, len(e.states))
	copy(out, e.states)
	return out
}

// Healthy reports whether no rule has been breached (true for a nil
// engine: no rules, nothing to violate).
func (e *Engine) Healthy() bool {
	if e == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total == 0
}

// Violations returns the total breach count across all rules.
func (e *Engine) Violations() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total
}

// FirstViolated returns the first-breached rule's state: the one with the
// smallest FirstRound (ties broken by rule order). ok is false while the
// run is clean.
func (e *Engine) FirstViolated() (State, bool) {
	if e == nil {
		return State{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	best, ok := State{}, false
	for _, s := range e.states {
		if s.Violations == 0 {
			continue
		}
		if !ok || s.FirstRound < best.FirstRound {
			best, ok = s, true
		}
	}
	return best, ok
}
