package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/ctvg"
	"repro/internal/sim"
)

// Config parameterises a Collector.
type Config struct {
	// N and K size the convergence denominator: Total = N·K delivered
	// (node, token) pairs.
	N, K int
	// PhaseLen is Algorithm 1's phase length T; events carry
	// Phase = Round / PhaseLen. Zero or negative means no phase structure
	// (every round reports phase 0).
	PhaseLen int
	// Sink, if non-nil, receives one JSON event per line per round. The
	// Collector buffers internally; call Flush before reading the sink.
	Sink io.Writer
	// SizeFn is ignored: an event's Bytes is the round's growth of
	// Metrics.BytesSent, which sim.Options.SizeFn charges.
	//
	// Deprecated: set sim.Options.SizeFn instead.
	SizeFn func(*sim.Message) int
	// Registry, if non-nil, additionally maintains cumulative metrics
	// (counters/gauges/histograms) updated once per round.
	Registry *Registry
	// Arrivals marks an arrival-mode run (sim.Options.Arrivals set). The
	// collector then tracks the live token universe — Total becomes
	// N · outstanding rather than the static N·K — and derives the stall
	// series from outstanding work, so quiet arrival gaps do not read as
	// stalls.
	Arrivals bool
	// Keep retains the per-round events in memory for Events() — the
	// input to phase summaries and convergence analysis.
	Keep bool
	// OnEvent, if set, receives every finalized round event, after
	// normalisation and after the sink/registry updates. The event aliases
	// collector storage (its slices are reused across rounds): read-only,
	// valid only during the call — deep-copy anything retained past it.
	// This is the flight recorder's feed; it fires even when the sink has
	// already failed, so in-memory consumers outlive a full disk.
	OnEvent func(*RoundEvent)
}

// regInstruments caches the registry handles so round finalisation does no
// name lookups.
type regInstruments struct {
	rounds       *Counter
	msgs         *Counter
	tokens       *Counter
	bytes        *Counter
	crashes      *Counter
	recoveries   *Counter
	drops        *Counter
	dups         *Counter
	handovers    *Counter
	floodFalls   *Counter
	stalledRuns  *Counter
	firstDeliv   *Counter
	redunDeliv   *Counter
	msgsKind     [sim.NumKinds]*Counter
	tokensKind   [sim.NumKinds]*Counter
	msgsRole     [sim.NumRoles]*Counter
	tokensRole   [sim.NumRoles]*Counter
	headChanges  *Counter
	reaffil      *Counter
	gatewayFlips *Counter
	arrivals     *Counter
	collectedTok *Counter
	elections    *Counter
	adoptions    *Counter
	headMerges   *Counter
	beacons      *Counter
	convReports  *Counter
	delivered    *Gauge
	totalPairs   *Gauge
	heads        *Gauge
	stall        *Gauge
	outstanding  *Gauge
	roundTokens  *Histogram
	latency      *Histogram
	reconverge   *Histogram
}

func newRegInstruments(r *Registry) *regInstruments {
	ri := &regInstruments{
		rounds:       r.Counter("sim_rounds_total", "rounds executed"),
		msgs:         r.Counter("sim_messages_total", "transmissions"),
		tokens:       r.Counter("sim_tokens_total", "communication cost in token units"),
		bytes:        r.Counter("sim_bytes_total", "wire-level cost in bytes"),
		crashes:      r.Counter("sim_crashes_total", "nodes felled by fault injection"),
		recoveries:   r.Counter("sim_recoveries_total", "crashed nodes that rejoined"),
		drops:        r.Counter("sim_drops_total", "deliveries suppressed by link fault injection"),
		dups:         r.Counter("sim_dups_total", "deliveries duplicated by link fault injection"),
		handovers:    r.Counter("sim_handovers_total", "members self-promoted to acting cluster head"),
		floodFalls:   r.Counter("sim_flood_fallbacks_total", "nodes escalated to blind flooding"),
		stalledRuns:  r.Counter("sim_stalled_runs_total", "runs terminated by the stall watchdog"),
		firstDeliv:   r.Counter("sim_first_deliveries_total", "(node, token) pairs first acquired (provenance tracer attached)"),
		redunDeliv:   r.Counter("sim_redundant_deliveries_total", "cost-bearing messages that taught their receiver nothing (provenance tracer attached)"),
		headChanges:  r.Counter("sim_head_changes_total", "nodes whose head-ness flipped between rounds"),
		reaffil:      r.Counter("sim_reaffiliations_total", "members that switched clusters between rounds"),
		gatewayFlips: r.Counter("sim_gateway_flips_total", "nodes entering or leaving gateway duty"),
		arrivals:     r.Counter("sim_token_arrivals_total", "tokens injected by the arrival process"),
		collectedTok: r.Counter("sim_tokens_collected_total", "fully disseminated tokens garbage-collected"),
		elections:    r.Counter("sim_elections_total", "nodes elected themselves cluster head (self-stabilization)"),
		adoptions:    r.Counter("sim_adoptions_total", "orphaned or unaffiliated nodes adopted into a cluster (self-stabilization)"),
		headMerges:   r.Counter("sim_head_merges_total", "heads abdicated to a lower-ID neighbouring head (self-stabilization)"),
		beacons:      r.Counter("sim_maintenance_beacons_total", "maintenance beacons sent by the self-stabilizing protocol"),
		convReports:  r.Counter("sim_convergence_reports_total", "convergence watchdog reports (hierarchy invalid for the configured window)"),
		delivered:    r.Gauge("sim_delivered_pairs", "(node, token) pairs delivered so far"),
		totalPairs:   r.Gauge("sim_total_pairs", "delivery ceiling n*k"),
		heads:        r.Gauge("sim_heads", "current head-set size"),
		stall:        r.Gauge("sim_stall_rounds", "consecutive rounds without delivery progress"),
		outstanding:  r.Gauge("sim_outstanding_tokens", "live (injected, not yet collected) tokens"),
		roundTokens:  r.Histogram("sim_round_tokens", "tokens sent per round", RoundBuckets),
		latency:      r.Histogram("sim_token_latency_rounds", "rounds from token arrival to garbage collection", LatencyBuckets),
		reconverge:   r.Histogram("sim_reconverge_rounds", "rounds the emergent hierarchy spent invalid before reconverging", LatencyBuckets),
	}
	for i := range kindNames {
		ri.msgsKind[i] = r.Counter(`sim_messages_kind_total{kind="`+kindNames[i]+`"}`, "transmissions by message kind")
		ri.tokensKind[i] = r.Counter(`sim_tokens_kind_total{kind="`+kindNames[i]+`"}`, "token cost by message kind")
	}
	for i := range roleNames {
		ri.msgsRole[i] = r.Counter(`sim_messages_role_total{role="`+roleNames[i]+`"}`, "transmissions by sender role")
		ri.tokensRole[i] = r.Counter(`sim_tokens_role_total{role="`+roleNames[i]+`"}`, "token cost by sender role")
	}
	return ri
}

// Collector turns the engine's round records into RoundEvents, streaming
// them to the configured JSONL sink and registry. An event's transmission,
// note, link-fault, delivery and arrival counts are the difference between
// the round's Metrics and the previous round's, so the event stream and
// Metrics share one accounting path. Per-round work (event encoding, churn
// diffing) is O(n) once per round.
//
// A Collector is driven from the engine goroutine (the engine calls its
// Observer once per round even when Workers > 1) and is not otherwise
// goroutine-safe.
type Collector struct {
	cfg Config

	w   *bufio.Writer
	buf []byte
	err error

	cur  RoundEvent
	prev sim.Metrics // the run's Metrics at the previous round's record

	// errRound / lostRounds attribute a sink write failure: the round whose
	// emission first failed, and how many later rounds were dropped because
	// of it. Flush folds both into the returned error, so callers learn not
	// just that a write failed but how much of the stream is missing.
	errRound   int
	lostRounds int

	prevRole    []ctvg.Role
	prevCluster []int

	prevDelivered int
	stall         int

	// liveTok tracks the live token universe in arrival mode: the initial
	// batch plus injected-minus-collected.
	liveTok int

	events []RoundEvent
	reg    *regInstruments
}

// NewCollector builds a collector for one run.
func NewCollector(cfg Config) *Collector {
	c := &Collector{cfg: cfg}
	if cfg.Sink != nil {
		c.w = bufio.NewWriter(cfg.Sink)
	}
	if cfg.Registry != nil {
		c.reg = newRegInstruments(cfg.Registry)
		c.reg.totalPairs.Set(int64(cfg.N * cfg.K))
	}
	c.liveTok = cfg.K
	return c
}

// Observer returns the sim.Observer that feeds this collector. Combine
// hands one round record to it and to other observers.
func (c *Collector) Observer() sim.Observer { return c.observe }

// observe derives round rd.R's event from its record and emits it.
func (c *Collector) observe(rd *sim.Round) {
	met, p := rd.Metrics, &c.prev
	e := &c.cur
	*e = RoundEvent{
		Round:               rd.R,
		Total:               c.cfg.N * c.cfg.K,
		Messages:            met.Messages - p.Messages,
		Tokens:              met.TokensSent - p.TokensSent,
		Bytes:               met.BytesSent - p.BytesSent,
		Delivered:           rd.Delivered,
		Crashed:             append(e.Crashed[:0], rd.Crashed...),
		Recovered:           append(e.Recovered[:0], rd.Recovered...),
		Drops:               met.Drops - p.Drops,
		Dups:                met.Dups - p.Dups,
		Handovers:           met.Handovers - p.Handovers,
		FloodFallbacks:      met.FloodFallbacks - p.FloodFallbacks,
		FirstDeliveries:     int(met.FirstDeliveries - p.FirstDeliveries),
		RedundantDeliveries: int(met.RedundantDeliveries - p.RedundantDeliveries),
		Arrivals:            int(met.TokensInjected - p.TokensInjected),
		Collected:           int(met.TokensCollected - p.TokensCollected),
		Stalled:             met.Stall != nil,
	}
	for i := range e.MsgsByKind {
		e.MsgsByKind[i] = met.MessagesByKind[i] - p.MessagesByKind[i]
		e.TokensByKind[i] = met.TokensByKind[i] - p.TokensByKind[i]
	}
	for i := range e.MsgsByRole {
		e.MsgsByRole[i] = met.MessagesByRole[i] - p.MessagesByRole[i]
		e.TokensByRole[i] = met.TokensByRole[i] - p.TokensByRole[i]
	}
	*p = *met
	if c.cfg.PhaseLen > 0 {
		e.Phase = rd.R / c.cfg.PhaseLen
	}
	if ms := rd.Maintenance; ms != nil {
		e.Elections, e.Adoptions, e.HeadMerges = ms.Elections, ms.Adoptions, ms.HeadMerges
		e.Beacons, e.StabValid, e.Reconverge = ms.BeaconsSent, ms.Valid, ms.Reconverged
	}
	c.liveTok += e.Arrivals - e.Collected
	c.churn(rd.Hier)
	if c.reg != nil {
		for _, t := range rd.Collected {
			c.reg.latency.Observe(float64(rd.R - t.Born))
		}
		if rd.Diverged != nil {
			c.reg.convReports.Inc()
		}
	}
	c.finalize()
}

// churn counts the round's heads and the hierarchy's changes since the
// previous round.
func (c *Collector) churn(h *ctvg.Hierarchy) {
	e := &c.cur
	for v := range h.Role {
		if h.Role[v] == ctvg.Head {
			e.Heads++
		}
	}
	if len(c.prevRole) == len(h.Role) {
		for v := range h.Role {
			wasHead := c.prevRole[v] == ctvg.Head
			isHead := h.Role[v] == ctvg.Head
			if wasHead != isHead {
				e.HeadChanges++
			}
			wasGw := c.prevRole[v] == ctvg.Gateway
			isGw := h.Role[v] == ctvg.Gateway
			if wasGw != isGw {
				e.GatewayFlips++
			}
			// A re-affiliation is a node that is a member now, was
			// affiliated before, and answers to a different head — the
			// n_r of the paper's cost model.
			if h.Role[v] == ctvg.Member && c.prevCluster[v] != ctvg.NoCluster &&
				h.Cluster[v] != c.prevCluster[v] {
				e.Reaffiliations++
			}
		}
	}
	c.prevRole = append(c.prevRole[:0], h.Role...)
	c.prevCluster = append(c.prevCluster[:0], h.Cluster...)
}

// finalize closes the current round: derives idle/stall, emits JSONL,
// updates the registry, and retains the event when configured.
func (c *Collector) finalize() {
	e := &c.cur
	e.Idle = e.Messages == 0
	if c.cfg.Arrivals {
		// Arrival mode: the delivery ceiling tracks the live token universe
		// (it shrinks on GC and grows on injection), and a flat delivered
		// count only counts toward the stall series while tokens are
		// actually outstanding — a drained queue waiting for the next burst
		// is healthy idleness, not a stall (mirrors the engine's watchdog).
		e.Outstanding = c.liveTok
		e.Total = c.cfg.N * c.liveTok
		if e.Delivered == c.prevDelivered && e.Outstanding > 0 {
			c.stall++
		} else {
			c.stall = 0
		}
	} else if e.Delivered <= c.prevDelivered && (e.Total <= 0 || e.Delivered < e.Total) {
		c.stall++
	} else {
		c.stall = 0
	}
	e.Stall = c.stall
	c.prevDelivered = e.Delivered

	if c.w != nil {
		if c.err == nil {
			c.buf = e.AppendJSON(c.buf[:0])
			c.buf = append(c.buf, '\n')
			if _, err := c.w.Write(c.buf); err != nil {
				// Latch the first write error where emission failed, not
				// where Flush happened to notice it: Err() reports it from
				// this round on, and Flush attributes the loss.
				c.err = err
				c.errRound = e.Round
			}
		} else {
			c.lostRounds++
		}
	}
	if c.reg != nil {
		ri := c.reg
		ri.rounds.Inc()
		ri.msgs.Add(e.Messages)
		ri.tokens.Add(e.Tokens)
		ri.bytes.Add(e.Bytes)
		ri.crashes.Add(int64(len(e.Crashed)))
		ri.recoveries.Add(int64(len(e.Recovered)))
		ri.drops.Add(e.Drops)
		ri.dups.Add(e.Dups)
		ri.handovers.Add(int64(e.Handovers))
		ri.floodFalls.Add(int64(e.FloodFallbacks))
		if e.Stalled {
			ri.stalledRuns.Inc()
		}
		ri.firstDeliv.Add(int64(e.FirstDeliveries))
		ri.redunDeliv.Add(int64(e.RedundantDeliveries))
		for i := range ri.msgsKind {
			ri.msgsKind[i].Add(e.MsgsByKind[i])
			ri.tokensKind[i].Add(e.TokensByKind[i])
		}
		for i := range ri.msgsRole {
			ri.msgsRole[i].Add(e.MsgsByRole[i])
			ri.tokensRole[i].Add(e.TokensByRole[i])
		}
		ri.headChanges.Add(int64(e.HeadChanges))
		ri.reaffil.Add(int64(e.Reaffiliations))
		ri.gatewayFlips.Add(int64(e.GatewayFlips))
		ri.arrivals.Add(int64(e.Arrivals))
		ri.collectedTok.Add(int64(e.Collected))
		ri.elections.Add(int64(e.Elections))
		ri.adoptions.Add(int64(e.Adoptions))
		ri.headMerges.Add(int64(e.HeadMerges))
		ri.beacons.Add(int64(e.Beacons))
		if e.Reconverge > 0 {
			ri.reconverge.Observe(float64(e.Reconverge))
		}
		ri.delivered.Set(int64(e.Delivered))
		if c.cfg.Arrivals {
			ri.totalPairs.Set(int64(e.Total))
			ri.outstanding.Set(int64(e.Outstanding))
		}
		ri.heads.Set(int64(e.Heads))
		ri.stall.Set(int64(c.stall))
		ri.roundTokens.Observe(float64(e.Tokens))
	}
	if c.cfg.Keep {
		ev := *e
		ev.Crashed = append([]int(nil), e.Crashed...)
		ev.Recovered = append([]int(nil), e.Recovered...)
		c.events = append(c.events, ev)
	}
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(e)
	}
}

// Flush drains the sink buffer. Call it after the run returns (and before
// reading the sink); it is idempotent.
// A sink write error that surfaced during round emission is returned
// attributed: which round's event failed first and how many later events
// were dropped — so a full disk reports a truncated stream, never passes
// one off as complete (the same contract hinettrace record enforces at
// Close).
func (c *Collector) Flush() error {
	if c.w != nil {
		if err := c.w.Flush(); err != nil && c.err == nil {
			c.err = err
			c.errRound = c.cur.Round
		}
	}
	return c.Err()
}

// Err returns the first sink write error, attributed to the round whose
// emission failed (plus the count of later events dropped because of it),
// or nil. Unlike Flush it never touches the sink, so it is safe to poll
// mid-run from an observer.
func (c *Collector) Err() error {
	if c.err == nil {
		return nil
	}
	if c.lostRounds > 0 {
		return fmt.Errorf("obs: event sink failed at round %d (%d later events dropped): %w",
			c.errRound, c.lostRounds, c.err)
	}
	return fmt.Errorf("obs: event sink failed at round %d: %w", c.errRound, c.err)
}

// Events returns the retained per-round series (Config.Keep must be set;
// call Flush first so the final round is included).
func (c *Collector) Events() []RoundEvent { return c.events }

// LatencyQuantile returns the q-quantile of token delivery latency in
// rounds (arrival to garbage collection), from the registry-backed
// sim_token_latency_rounds histogram. It returns NaN when no registry is
// attached or nothing has been collected yet.
func (c *Collector) LatencyQuantile(q float64) float64 {
	if c.reg == nil {
		return math.NaN()
	}
	return c.reg.latency.Quantile(q)
}

// Combine hands each round record to every non-nil observer, in argument
// order. Nil observers are skipped; a single observer is returned as-is.
func Combine(list ...sim.Observer) sim.Observer {
	var live []sim.Observer
	for _, o := range list {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(rd *sim.Round) {
		for _, o := range live {
			o(rd)
		}
	}
}
