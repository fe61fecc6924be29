// Package sim implements the synchronous round-based execution model shared
// by every dissemination protocol in this repository.
//
// The model follows Kuhn–Lynch–Oshman: computation proceeds in rounds; in
// round r an oblivious adversary fixes the communication graph G_r before
// seeing any payload, every node hands the engine at most one message, and
// each message is delivered to all of the sender's G_r-neighbours at the end
// of the round (wireless local broadcast). Addressed messages are still
// heard by every neighbour — addressing is a protocol-level filter, not a
// transport feature — which matches the paper's ad hoc radio model.
//
// Communication cost is counted in token units, exactly as the paper's
// analysis does ("communication cost is represented by the total number of
// tokens sent"): a transmission carrying s tokens costs s. Raw message
// counts and per-role breakdowns are tracked as well.
//
// Failures are injected through a declarative faults.Plan (crash-stop,
// crash-recovery, head-targeted kills, i.i.d. and bursty link loss,
// duplication); all fault randomness is counter-based, so a faulty run is
// bit-identical whether it executes serially or on Workers goroutines.
package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/token"
	"repro/internal/tvg"
)

// NoAddr marks a broadcast message with no addressed recipient.
const NoAddr = -1

// MsgKind labels the protocol step that produced a message; it is used for
// per-step accounting and for the Fig. 3 execution traces.
type MsgKind byte

const (
	// KindBroadcast is a plain flooding broadcast (flat protocols).
	KindBroadcast MsgKind = iota
	// KindUpload is a member-to-head token upload.
	KindUpload
	// KindRelay is a head/gateway broadcast down and across the hierarchy.
	KindRelay
	// KindCoded is a network-coded packet (random linear combination);
	// its Tokens field holds the GF(2) coefficient vector, not a token
	// set, and its cost comes from Units.
	KindCoded
)

// NumKinds sizes the per-kind accounting arrays.
const NumKinds = 4

// NumRoles sizes the per-role accounting arrays (indexed by ctvg.Role).
const NumRoles = 4

// String returns a short human-readable kind name.
func (k MsgKind) String() string {
	switch k {
	case KindBroadcast:
		return "broadcast"
	case KindUpload:
		return "upload"
	case KindRelay:
		return "relay"
	case KindCoded:
		return "coded"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Message is one transmission. From is filled in by the engine.
type Message struct {
	From   int
	To     int // NoAddr for broadcast; otherwise the intended recipient
	Kind   MsgKind
	Tokens *bitset.Set
	// Units, when positive, overrides the cost accounting: the message is
	// charged Units token-equivalents instead of the payload cardinality.
	// Network-coded packets use it (one token-sized payload regardless of
	// how many coefficients the combination involves).
	Units int
}

// Cost returns the message's size in token units.
func (m *Message) Cost() int {
	if m.Units > 0 {
		return m.Units
	}
	if m.Tokens == nil {
		return 0
	}
	return m.Tokens.Len()
}

// NoteKind labels a protocol-level repair action surfaced through
// View.Note: self-healing protocols report their failover decisions so the
// observability layer can correlate repairs with the faults that caused
// them.
type NoteKind byte

const (
	// NoteHandover: the node promoted itself to acting cluster head after
	// detecting its head's failure.
	NoteHandover NoteKind = iota
	// NoteFloodFallback: the node gave up on the hierarchy and escalated to
	// flooding.
	NoteFloodFallback
)

// NumNoteKinds sizes per-note accounting arrays.
const NumNoteKinds = 2

// String returns a short human-readable note name.
func (k NoteKind) String() string {
	switch k {
	case NoteHandover:
		return "handover"
	case NoteFloodFallback:
		return "flood_fallback"
	default:
		return fmt.Sprintf("note(%d)", byte(k))
	}
}

// View is what a node observes about itself at the start of a round: the
// round number, its current cluster role and head (provided by the
// clustering layer), and its current neighbour list — the paper's system
// model equips every node with "the capability of probing neighbors".
// Nodes do not see the global topology.
type View struct {
	Round int
	Role  ctvg.Role
	Head  int // current cluster head node ID, or ctvg.NoCluster
	// Neighbors is the node's current neighbour list, ascending. It
	// aliases engine storage and must not be modified or retained.
	Neighbors []int

	// id is the observing node's ID; Note reports it to the observer.
	id int
	// pool is the owning shard's message arena; nil outside an engine run
	// (hand-built Views in tests fall back to plain allocation).
	pool *msgPool
	// notes is the owning shard's note buffer; nil outside an engine run
	// (Note is then a no-op).
	notes *[]note
}

// NewMessage returns a zeroed Message for this round's transmission. Inside
// a run it comes from the shard's arena and is recycled at the round
// barrier, so protocols that build their Send result through it allocate
// nothing in steady state. The message (like any Send result) must not be
// retained past the round.
func (v View) NewMessage() *Message {
	if v.pool == nil {
		return new(Message)
	}
	return v.pool.message()
}

// NewSet returns an empty token set with the same arena lifetime as
// NewMessage: use it for message payloads, never for state that outlives
// the round.
func (v View) NewSet() *bitset.Set {
	if v.pool == nil {
		return new(bitset.Set)
	}
	return v.pool.set()
}

// Note reports a repair action taken by the node this round (from Send or
// Deliver). Notes are buffered per shard and replayed to Observer.Noted at
// the round barrier in deterministic order, so the observed stream is
// identical under any Workers setting. Outside an engine run Note is a
// no-op.
func (v View) Note(kind NoteKind) {
	if v.notes == nil {
		return
	}
	*v.notes = append(*v.notes, note{node: v.id, kind: kind})
}

// note is one buffered View.Note emission.
type note struct {
	node int
	kind NoteKind
}

// Node is a per-node protocol state machine.
type Node interface {
	// Send returns the node's transmission for this round, or nil.
	Send(v View) *Message
	// Deliver hands the node every message heard this round (from its
	// current neighbours), ordered by ascending sender ID. Under fault
	// injection a duplicated message appears twice, back to back.
	Deliver(v View, msgs []*Message)
	// Tokens returns the node's collected token set (the paper's TA).
	// The engine treats the result as read-only.
	Tokens() *bitset.Set
}

// Recoverer is implemented by nodes that support crash-recovery. When a
// crashed node's downtime window ends, the engine calls OnRecover once, at
// the top of the rejoin round and before the node's next Send. The
// implementation must reset volatile protocol state (affiliation,
// phase-local bookkeeping) while retaining the token set — the model's
// stable storage. Nodes that do not implement Recoverer rejoin with their
// state untouched.
type Recoverer interface {
	OnRecover(r int)
}

// Protocol builds fresh per-node state machines for a run.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Nodes returns one state machine per node, initialised from the
	// assignment. Implementations must copy the initial sets.
	Nodes(assign *token.Assignment) []Node
}

// Metrics aggregates the accounting of one run.
type Metrics struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Messages is the number of transmissions.
	Messages int64
	// TokensSent is the total communication cost in token units.
	TokensSent int64
	// MessagesByKind / TokensByKind break the totals down per message kind.
	MessagesByKind [NumKinds]int64
	TokensByKind   [NumKinds]int64
	// MessagesByRole / TokensByRole break the totals down by the sender's
	// cluster role at transmission time (indexed by ctvg.Role) — the
	// energy-budget view of the paper's motivation: who pays.
	MessagesByRole [NumRoles]int64
	TokensByRole   [NumRoles]int64
	// BytesSent is the wire-level cost; it is accumulated only when
	// Options.SizeFn is set (see internal/wire for the standard codec).
	BytesSent int64
	// Drops / Dups count deliveries lost and duplicated by fault
	// injection. A dropped delivery still charged its sender.
	Drops int64
	Dups  int64
	// Recoveries counts crash-recovery rejoins.
	Recoveries int
	// FirstDeliveries / RedundantDeliveries are accumulated only when
	// Options.Tracer is set: the number of (node, token) first deliveries
	// recorded by the tracer, and the number of cost-bearing messages
	// heard that taught their receiver nothing new.
	FirstDeliveries     int64
	RedundantDeliveries int64
	// Handovers / FloodFallbacks count the protocol-level repair actions
	// reported through View.Note.
	Handovers      int
	FloodFallbacks int
	// Elections / Adoptions / HeadMerges count the self-stabilizing
	// clustering protocol's repair events, and MaintenanceBeacons its
	// message budget (one beacon per live node per round). All stay 0
	// unless Options.SelfStabilize is set.
	Elections          int
	Adoptions          int
	HeadMerges         int
	MaintenanceBeacons int64
	// ConvergenceReports counts convergence-watchdog firings (the
	// emergent hierarchy stayed invalid for a full watchdog window);
	// Reconvergences counts repaired divergence episodes — invalid
	// streaks that returned to validity.
	ConvergenceReports int
	Reconvergences     int
	// TokensInjected / TokensCollected count, in arrival-mode runs, the
	// dynamically injected tokens (the initial batch excluded) and the
	// tokens garbage-collected after full dissemination.
	TokensInjected  int64
	TokensCollected int64
	// OutstandingTokens is the number of live (injected, not yet collected)
	// tokens when the run ended; PeakOutstanding is the run's high-water
	// queue depth. Both include the initial batch and stay 0 with Arrivals
	// off.
	OutstandingTokens int
	PeakOutstanding   int
	// CompletionRound is the 1-based round count after which every node
	// held all k tokens, or -1 if dissemination did not complete within
	// the executed rounds.
	CompletionRound int
	// Complete reports whether dissemination finished.
	Complete bool
	// Stall is non-nil when the stall watchdog (Options.StallWindow)
	// terminated the run: dissemination made no progress for the whole
	// window and the report says what the run looked like when it gave up.
	Stall *StallReport
}

// String summarises the metrics on one line. The bytes= segment appears
// only when byte-level accounting (Options.SizeFn) charged anything, so
// wire-cost runs are summarised faithfully and token-unit runs stay terse.
func (m *Metrics) String() string {
	done := "incomplete"
	if m.Complete {
		done = fmt.Sprintf("complete@%d", m.CompletionRound)
	} else if m.Stall != nil {
		done = fmt.Sprintf("stalled@%d", m.Stall.Round)
	}
	if m.BytesSent > 0 {
		return fmt.Sprintf("rounds=%d msgs=%d tokens=%d bytes=%d %s",
			m.Rounds, m.Messages, m.TokensSent, m.BytesSent, done)
	}
	return fmt.Sprintf("rounds=%d msgs=%d tokens=%d %s", m.Rounds, m.Messages, m.TokensSent, done)
}

// StallReport is the stall watchdog's diagnostic: why the run was cut
// short, and what the population looked like at that moment.
type StallReport struct {
	// Round is the round index at which the watchdog fired.
	Round int
	// Window is the configured number of zero-progress rounds observed.
	Window int
	// Delivered / Total are the (node, token) pairs delivered versus the
	// n·k needed for completion.
	Delivered, Total int
	// Live, Down and PendingRecovery partition the node population when
	// the watchdog fired: up, permanently crashed, and crashed-but-
	// scheduled-to-rejoin.
	Live, Down, PendingRecovery int
}

// String formats the diagnostic on one line.
func (s *StallReport) String() string {
	return fmt.Sprintf("stalled at round %d: no progress for %d rounds, %d/%d token-pairs delivered, %d live / %d down / %d pending recovery",
		s.Round, s.Window, s.Delivered, s.Total, s.Live, s.Down, s.PendingRecovery)
}

// Observer receives per-round events; used by trace tooling, the Fig. 3
// scenario renderer and the internal/obs metrics layer. Any field may be
// nil.
//
// Event ordering is deterministic regardless of Options.Workers: within a
// round, Recovered fires first (ascending node ID), then Crashed
// (ascending node ID), then RoundStart, then — in self-stabilizing runs
// only — Maintenance and (on the round the convergence watchdog fires)
// Diverged, then Arrived (only in arrival-mode
// runs, ascending arrival sequence), then one Sent per transmission in
// ascending sender ID, then Noted in ascending node ID (per-node emission
// order preserved), then Deliveries (only when Options.Tracer is set),
// then LinkFaults, then Collected (arrival mode, ascending token slot),
// then Progress, then Barrier (once per executed round, with the run's
// Metrics so far), then — at most once per run, as its
// final event — Stalled. Across rounds everything is ascending in r, so
// the full Sent stream is sorted by (round, sender). Parallel runs buffer
// per-shard and merge at the round barrier, so the observed stream is
// bit-identical to a serial run on the same inputs. Callbacks themselves
// are always invoked from the engine goroutine — observers need no
// locking.
type Observer struct {
	// RoundStart is called before messages are collected.
	RoundStart func(r int, g *graph.Graph, h *ctvg.Hierarchy)
	// Sent is called for every non-nil message of round r.
	Sent func(r int, msg *Message)
	// Progress, if set, is called after each round's deliveries with the
	// total number of (node, token) pairs delivered so far — the raw
	// material for convergence curves. The maximum is n·k.
	Progress func(r int, delivered int)
	// Crashed, if set, is called once per crash when fault injection fells
	// node v at the top of round r, in ascending node order within a
	// round. A node may crash again after recovering.
	Crashed func(r int, v int)
	// Recovered, if set, is called once when node v rejoins at the top of
	// round r, in ascending node order within a round.
	Recovered func(r int, v int)
	// Noted, if set, receives the protocol repair actions reported through
	// View.Note this round.
	Noted func(r int, v int, kind NoteKind)
	// Deliveries, if set, receives the tracer's per-round delivery
	// accounting (first deliveries and redundant cost-bearing messages).
	// It fires only when Options.Tracer is set, after Noted and before
	// LinkFaults.
	Deliveries func(r int, first, redundant int)
	// LinkFaults, if set, is called after round r's deliveries whenever
	// fault injection dropped or duplicated at least one delivery, with
	// the round's counts.
	LinkFaults func(r int, drops, dups int)
	// Arrived, if set, is called for every token injected by the arrival
	// process (Options.Arrivals): round, target node, token slot, and the
	// token's global arrival sequence number (sequence numbers distinguish
	// generations when a collected token's slot is reused).
	Arrived func(r, v, tok int, seq int64)
	// Collected, if set, is called once per token garbage-collected at
	// round r's barrier, ascending in token slot, with the token's
	// sequence number and injection round (delivery latency is r - born).
	Collected func(r, tok int, seq int64, born int)
	// Stalled, if set, is called when the stall watchdog terminates the
	// run (see Options.StallWindow).
	Stalled func(r int, rep *StallReport)
	// Maintenance, if set, receives each round's self-stabilizing
	// clustering summary (repair events, beacon budget, validity). It
	// fires only when Options.SelfStabilize is set, right after
	// RoundStart.
	Maintenance func(r int, ms MaintenanceStats)
	// Diverged, if set, is called when the convergence watchdog fires:
	// the emergent hierarchy has not been valid for the configured
	// window. Unlike Stalled the run continues.
	Diverged func(r int, rep *ConvergenceReport)
	// Barrier, if set, is called once per executed round at the round
	// barrier, after Progress and before the completion/stall checks, with
	// the run's Metrics accumulated so far (met.Rounds already counts round
	// r). met aliases engine storage: read-only, valid only during the
	// call — snapshot (struct copy) anything retained past it. This is the
	// flight recorder's feed for mid-run Metrics snapshots; the disabled
	// (nil) path costs one nil check per round and allocates nothing.
	Barrier func(r int, met *Metrics)
}

// Tracer observes individual token deliveries at per-message granularity —
// the raw material for provenance DAGs (see internal/provenance). It is
// deliberately lower-level than Observer: callbacks other than RunStart,
// RoundStart and RoundEnd may run concurrently on shard goroutines.
//
// Contract: RunStart is called once from the engine goroutine before round
// 0, after the shard partition is fixed; the tracer may read every node's
// initial token set there. RoundStart is called from the engine goroutine
// each round (after Observer.RoundStart); hier aliases engine storage and
// is read-only, valid for the duration of the round. Delivered is called
// after nodes[v].Deliver for every live node that heard at least one
// message; when Workers > 1 the calls for distinct shards run concurrently,
// but the shard→node partition is fixed for the whole run, so per-node and
// per-shard tracer state needs no locking. inbox aliases shard scratch and
// tokens aliases node state: both are read-only and must not be retained
// past the call. RoundEnd is called from the engine goroutine at the round
// barrier (after note replay, before the link-fault fold and arena
// recycling); it merges the shard buffers in shard order — ascending node
// order — so tracer output is bit-identical to a serial run, and returns
// the round's first-delivery and redundant-delivery counts, which the
// engine folds into Metrics and Observer.Deliveries.
type Tracer interface {
	RunStart(n, k, shards int, nodes []Node)
	RoundStart(r int, hier *ctvg.Hierarchy)
	Delivered(shard, v int, vw *View, inbox []*Message, tokens *bitset.Set)
	RoundEnd(r int, crashed []bool) (first, redundant int)
}

// ArrivalTracer is the optional tracer extension for arrival-mode runs: a
// Tracer that also implements it receives every injection and every GC
// batch. Injected is called from the engine goroutine right after the token
// is handed to node v (before the round's Send), in ascending arrival
// sequence; Collected is called once per GC round from the engine goroutine
// at the round barrier, after RoundEnd, with the collected slot set (gc
// aliases engine scratch — read-only, not retained). A tracer that records
// first deliveries must prune the collected slots from its per-node known
// sets, or a reused slot's next generation would be silently untraced.
type ArrivalTracer interface {
	Injected(r, v, tok int, seq int64)
	Collected(r int, gc *bitset.Set)
}

// Faults declares the failures injected into a run. It is an alias for
// faults.Plan — see that package for the full model (crash-stop,
// crash-recovery, head-targeted kills, i.i.d. and Gilbert–Elliott bursty
// loss, duplication) and its determinism guarantees. The paper assumes
// reliable links and live nodes; these knobs measure how far each protocol
// degrades beyond that assumption.
type Faults = faults.Plan

// Options controls a run.
type Options struct {
	// MaxRounds bounds the execution (required, > 0).
	MaxRounds int
	// StopWhenComplete ends the run as soon as every node holds all k
	// tokens (checked at the end of each round).
	StopWhenComplete bool
	// Observer, if non-nil, receives per-round events.
	Observer *Observer
	// Tracer, if non-nil, receives per-delivery events for provenance
	// recording (see internal/provenance). The disabled (nil) path costs
	// one pointer comparison per hook site and allocates nothing.
	Tracer Tracer
	// Faults, if non-nil, injects failures; the plan is validated before
	// the run starts and a bad plan is a Run error. Fault randomness is
	// counter-based (pure in round, sender and receiver), so faulty runs
	// parallelise like fault-free ones and stay bit-identical to serial.
	Faults *Faults
	// SizeFn, if set, is evaluated on every transmission and accumulated
	// into Metrics.BytesSent (byte-level cost accounting). When Workers >
	// 1 it is called concurrently from the accounting shards and must be
	// pure (internal/wire.Size is).
	SizeFn func(*Message) int
	// Workers enables within-round parallelism: Send, Deliver and the
	// per-message accounting of distinct nodes run concurrently on up to
	// Workers goroutines (0 or 1 = serial; counts above the node count are
	// clamped to it, so tiny networks never spawn idle shards). Node state
	// is per-node and messages are treated as read-only after Send, so
	// results are bit-identical to the serial engine. Observers are
	// supported: each shard accumulates locally and the engine merges at
	// the round barrier, replaying events in deterministic (round, sender)
	// order (see Observer).
	Workers int
	// StallWindow, when positive, arms the stall watchdog: if the total
	// number of delivered (node, token) pairs does not increase for
	// StallWindow consecutive rounds while dissemination is incomplete,
	// the run terminates with a StallReport in Metrics.Stall instead of
	// spinning to MaxRounds. 0 disables the watchdog.
	StallWindow int
	// Timing, if non-nil, turns on engine self-profiling: every round
	// stage (crash bookkeeping, snapshot/thaw, hierarchy refresh, collect
	// fan-out, observer emit, delivery fan-out, barrier merges, tracer
	// emit, progress scan, arena recycle — see Stage) is measured on the
	// monotonic clock, wall time on the engine goroutine plus per-shard
	// time inside the fan-outs, and handed to the sink once per round at
	// the barrier, merged in shard order exactly like observer events.
	// The per-round record therefore has the same stage structure and
	// count under any Workers setting; only the measured durations differ.
	// The disabled (nil) path costs one nil check per stage edge and
	// allocates nothing (guarded by the repo's alloc-parity tests).
	Timing TimingSink
	// LabelCtx, when set together with Timing, is the base context whose
	// pprof label set the engine's per-stage stage=/shard= labels extend —
	// CLIs put an alg= label there (via runtime/pprof.Do) so CPU profiles
	// attribute samples by both protocol and stage. nil means Background.
	LabelCtx context.Context
	// Arrivals, if non-nil, switches the run into steady-state mode: tokens
	// keep arriving per the configured process (see Arrivals), and tokens
	// held by every live node are garbage-collected at the round barrier so
	// state stays bounded over unbounded runs. Every node must implement
	// Injector and Collectible; the assignment's k tokens form the initial
	// batch (slots 0..k-1). Completion then means: the arrival process is
	// exhausted (past Stop, or MaxTokens reached) and every injected token
	// has been collected. The disabled (nil) path costs one pointer
	// comparison per round and allocates nothing.
	Arrivals *Arrivals
	// Stop, if set, is polled once per round at the round barrier (after
	// Barrier/Stalled events): when it returns true the run ends cleanly
	// at that round, with Metrics and every observer/tracer/timing stream
	// consistent up to and including it. This is the cooperative
	// cancellation hook the CLIs use for SIGINT/SIGTERM handling — the
	// signal goroutine only flips an atomic flag, and all sink flushing
	// stays on the engine goroutine, race-free. The disabled (nil) path
	// costs one nil check per round and allocates nothing.
	Stop func(r int) bool
	// SelfStabilize, if non-nil, replaces the adversary-provided hierarchy
	// with one maintained by the message-passing self-stabilizing
	// clustering protocol (internal/cluster/selfstab): every live node
	// broadcasts one beacon per round over the same faulty links the
	// payload rides, each node recomputes its role from the beacons it
	// heard, and HierarchyAt is never consulted. Head-targeted crashes
	// then fell the *elected* heads. The stability-window cache is
	// bypassed — the emergent hierarchy may change every round. The
	// protocol step fans out over the same shard partition as delivery
	// and merges its counters in shard order, so self-stabilizing runs
	// keep the engine's serial/parallel bit-identity. The disabled (nil)
	// path costs one pointer comparison per round and allocates nothing.
	SelfStabilize *SelfStabilize
}

// Run executes nodes against the dynamic network d for up to
// opts.MaxRounds rounds and returns the metrics. The assignment supplies k
// for the completion check. Nodes must already be initialised (see
// Protocol.Nodes). Run fails up front — before any round executes — on a
// node/network size mismatch, a non-positive MaxRounds (or, with a burst
// channel, one past faults.MaxBurstRound), or an invalid fault plan.
func Run(d ctvg.Dynamic, nodes []Node, assign *token.Assignment, opts Options) (*Metrics, error) {
	n := d.N()
	if len(nodes) != n {
		return nil, fmt.Errorf("sim: %d nodes for a %d-vertex network", len(nodes), n)
	}
	if opts.MaxRounds <= 0 {
		return nil, fmt.Errorf("sim: MaxRounds must be positive (got %d)", opts.MaxRounds)
	}
	inj, err := faults.New(opts.Faults, n)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if opts.Faults != nil && opts.Faults.Burst != nil && opts.MaxRounds-1 > faults.MaxBurstRound {
		return nil, fmt.Errorf("sim: MaxRounds %d runs past faults.MaxBurstRound %d, the last round a burst channel answers", opts.MaxRounds, faults.MaxBurstRound)
	}
	workers := workersFor(opts, n)
	parallelRun := workers > 1
	k := assign.K
	obs := opts.Observer
	met := &Metrics{CompletionRound: -1}
	outbox := make([]*Message, n)
	views := make([]View, n)

	// Steady-state arrival mode: all bookkeeping hangs off one pointer, so
	// the batch path below pays a nil comparison per round and nothing else.
	var arr *arrState
	if opts.Arrivals != nil {
		if err := opts.Arrivals.validate(n); err != nil {
			return nil, err
		}
		if arr, err = newArrState(opts.Arrivals, n, k, nodes); err != nil {
			return nil, err
		}
		met.OutstandingTokens = arr.liveCount()
		met.PeakOutstanding = arr.liveCount()
	}

	// Fault state. crashed marks nodes currently down; recoverAt holds the
	// rejoin round of nodes in a downtime window (faults.NoRecovery
	// otherwise); crashSchedule is the static plan, each entry fired once.
	crashed := make([]bool, n)
	var recoverAt []int
	var recovering []int // nodes in a downtime window, unordered
	var crashSchedule []crashEntry
	lossy, duplicating := inj.Lossy(), inj.Duplicating()
	if inj != nil {
		recoverAt = make([]int, n)
		for v := range recoverAt {
			recoverAt[v] = faults.NoRecovery
		}
		for _, c := range inj.Crashes() {
			crashSchedule = append(crashSchedule, crashEntry{node: c.Node, at: c.At, recoverAt: c.RecoverAt})
		}
	}
	var eventScratch []int // sorted crash/recovery IDs of the current round
	var noteScratch []note // merged View.Note buffer of the current round

	// Parallel runs shard the per-message accounting: each worker owns a
	// contiguous sender block and private state (accumulator, message
	// arena, inbox scratch, note buffer), and the engine merges the
	// accumulators in shard order at the round barrier. Shard order equals
	// ascending sender order, so merged metrics — and the observer event
	// stream replayed from outbox afterwards — are bit-identical to the
	// serial engine's. The shard partition is fixed for the whole run, so
	// each view is wired to its owning shard's arena exactly once.
	//
	// Shards are cut at equal cumulative round-0 degree rather than equal
	// node count: per-node round work is dominated by neighbour scans, so
	// on hub-heavy topologies (a star, a clustered HiNet) an equal-count
	// partition leaves one worker with nearly all edges. Blocks stay
	// contiguous and ascending, so every bit-identity guarantee above is
	// untouched — only the cut points move.
	nshards := 1
	if parallelRun {
		nshards = parallel.Shards(n, workers)
	}
	// bounds stays nil on serial runs: the slice leaks into ForEachBounds'
	// goroutine closures, so even a stack [2]int{0, n} would be charged to
	// the heap — and the serial paths below never consult it.
	var bounds []int
	if nshards > 1 {
		bounds = shardBounds(d.At(0), nshards)
	}
	shards := make([]shardState, nshards)
	for s := range shards {
		lo, hi := 0, n
		if bounds != nil {
			lo, hi = bounds[s], bounds[s+1]
		}
		for v := lo; v < hi; v++ {
			views[v].id = v
			views[v].pool = &shards[s].pool
			views[v].notes = &shards[s].notes
		}
	}
	if arr != nil {
		// Unbounded runs must not let one burst round pin the arenas'
		// high-water capacity forever; batch runs keep the plain ratchet.
		for s := range shards {
			shards[s].pool.trim = true
		}
	}

	tracer := opts.Tracer
	if tracer != nil {
		tracer.RunStart(n, k, nshards, nodes)
	}
	var atr ArrivalTracer
	if arr != nil && tracer != nil {
		atr, _ = tracer.(ArrivalTracer)
	}

	// Timing: all self-profiling state hangs off one pointer, allocated
	// only when a sink is attached, so the disabled path stays strictly
	// allocation-free. segT is the running segment's start time.
	timer := opts.Timing
	var tst *timingState
	var segT time.Time
	if timer != nil {
		tst = newTimingState(opts.LabelCtx, nshards)
		timer.RunStart(nshards)
	}

	// Self-stabilizing clustering: all protocol state hangs off one
	// pointer, so the oracle-hierarchy path below pays a nil comparison
	// per round and nothing else. A lossy run also draws the round's loss
	// rows (see lossRows), which the beacon exchange and delivery share.
	// The row pass is sharded over the same bounds as delivery, so each
	// receiver's burst memos stay on the shard that owns the receiver.
	var stb *stabState
	var rows *lossRows
	if opts.SelfStabilize != nil {
		stb = newStabState(opts.SelfStabilize, n, nshards)
		if lossy {
			rows = &lossRows{inj: inj, off: make([]int, n+1)}
		}
	}
	var mtr MaintenanceTracer
	if stb != nil && tracer != nil {
		mtr, _ = tracer.(MaintenanceTracer)
	}

	// Stability-window cache: when the dynamic advertises T-interval
	// stable windows (ctvg.Stability), graph, hierarchy and the per-node
	// views are frozen on the window's first round and reused until the
	// window ends — churn or reaffiliation starts a new window, which
	// refetches everything. Rounds inside a window skip At/HierarchyAt and
	// all O(n) view rebuilding. Self-stabilizing runs bypass the cache:
	// the emergent hierarchy may change every round.
	stab, hasStab := d.(ctvg.Stability)
	if stb != nil {
		hasStab = false
	}
	cachedUntil := -1

	// Stall watchdog bookkeeping.
	needDelivered := opts.StallWindow > 0 || (obs != nil && obs.Progress != nil)
	lastDelivered := -1
	stallRun := 0

	// The round phases below are expressed as closures over the loop state
	// (round number, stability freshness, the current graph and hierarchy).
	// They are defined once here rather than inside the loop so the round
	// hot path never allocates for them: every captured variable is boxed
	// once per run, not once per round.
	var g *graph.Graph
	var hier *ctvg.Hierarchy
	var r int
	var fresh bool
	sizeFn := opts.SizeFn

	// The beacon exchange reads the same loss rows as delivery: a beacon
	// from u to v in round r is lost exactly when a payload on the same
	// link is, one outcome per link per round — the beacon piggybacks on
	// the node's round transmission.
	var runRows func(s, lo, hi int)
	if rows != nil {
		runRows = func(s, lo, hi int) { rows.draw(r, g, crashed, lo, hi) }
		stbLost := func(v, i int) bool { return rows.lost[rows.off[v]+i] }
		stb.runShard = func(s, lo, hi int) { stb.state.Shard(s, lo, hi, stbLost) }
	} else if stb != nil {
		stb.runShard = func(s, lo, hi int) { stb.state.Shard(s, lo, hi, nil) }
	}

	// Collect phase: every node decides its transmission from its local
	// view only, then the transmission is charged to the accounting. Nodes
	// are independent, so both steps fan out when Workers > 1 (per-shard
	// accumulators, merged at the barrier). Inside a stable window only the
	// round number changes; role, head and neighbour slice keep the frozen
	// window values.
	collect := func(v int) {
		vw := &views[v]
		vw.Round = r
		if fresh {
			vw.Role = hier.Role[v]
			vw.Head = hier.HeadOf(v)
			vw.Neighbors = g.Neighbors(v)
		}
		if crashed[v] {
			outbox[v] = nil
			return
		}
		outbox[v] = nodes[v].Send(*vw)
	}
	account := func(acc *shardAcc, v int) {
		msg := outbox[v]
		if msg == nil {
			return
		}
		msg.From = v
		cost := int64(msg.Cost())
		acc.messages++
		acc.tokens += cost
		if int(msg.Kind) < NumKinds {
			acc.msgsByKind[msg.Kind]++
			acc.tokensByKind[msg.Kind] += cost
		}
		if sizeFn != nil {
			acc.bytes += int64(sizeFn(msg))
		}
		if role := hier.Role[v]; int(role) < NumRoles {
			acc.msgsByRole[role]++
			acc.tokensByRole[role] += cost
		}
	}
	collectShard := func(s, lo, hi int) {
		acc := &shards[s].acc
		acc.reset()
		for v := lo; v < hi; v++ {
			collect(v)
			account(acc, v)
		}
	}

	// Deliver phase: each node hears its neighbours' messages, ordered by
	// ascending sender ID (Neighbors is sorted); fault injection may drop a
	// delivery or hand it over twice. Messages are read-only from here on,
	// so delivery also fans out — over the same shard partition as collect,
	// so a node delivering through View.NewSet stays on its arena's owning
	// goroutine, and the per-receiver fault queries (whose burst-channel
	// state is keyed by receiver) stay on the shard that owns the receiver.
	// A self-stabilizing run reads the round's loss rows; any other lossy
	// run draws one Drop per sender link, since most in-links (member to
	// head) carry no message on most rounds.
	deliverShard := func(s, lo, hi int) {
		st := &shards[s]
		for v := lo; v < hi; v++ {
			if crashed[v] {
				continue
			}
			st.inbox = st.inbox[:0]
			var lost []bool
			if rows != nil {
				lost = rows.row(v)
			}
			for i, u := range views[v].Neighbors {
				msg := outbox[u]
				if msg == nil {
					continue
				}
				if lossy && (lost != nil && lost[i] || lost == nil && inj.Drop(r, u, v)) {
					st.drops++
					continue
				}
				st.inbox = append(st.inbox, msg)
				if duplicating && inj.Duplicate(r, u, v) {
					st.dups++
					st.inbox = append(st.inbox, msg)
				}
			}
			nodes[v].Deliver(views[v], st.inbox)
			// A node with an empty inbox cannot have learned anything
			// this round, so the tracer only sees non-trivial deliveries.
			if tracer != nil && len(st.inbox) > 0 {
				tracer.Delivered(s, v, &views[v], st.inbox, nodes[v].Tokens())
			}
		}
	}

	// Arrival-mode GC, two sharded passes at the round barrier. Pass 1
	// scans every node once: the pre-GC delivered popcount, the counted
	// population (up, or down but rejoining — the same nodes doneLive
	// counts), and the intersection of counted nodes' token sets. Pass 2,
	// run only when the merged intersection contains live tokens, removes
	// the collected set from every node (crashed ones included: GC is an
	// accounting operation on stable storage) and measures exactly how many
	// pairs it dropped, so the post-GC delivered count is exact even when
	// permanently crashed nodes held part of the collected set. Set
	// intersection and integer addition commute, so merging the shards in
	// order is bit-identical to a serial scan. Both closures are built only
	// in arrival mode, keeping the batch path allocation-identical.
	var arrScan, arrCollect func(s, lo, hi int)
	if arr != nil {
		arrScan = func(s, lo, hi int) {
			st := &shards[s]
			st.interAny = false
			st.preSum, st.cntN, st.cntHeld = 0, 0, 0
			for v := lo; v < hi; v++ {
				tk := nodes[v].Tokens()
				l := tk.Len()
				st.preSum += l
				if !counted(v, crashed, recoverAt) {
					continue
				}
				st.cntN++
				st.cntHeld += l
				if !st.interAny {
					st.inter.CopyFrom(tk)
					st.interAny = true
				} else {
					st.inter.IntersectWith(tk)
				}
			}
		}
		arrCollect = func(s, lo, hi int) {
			st := &shards[s]
			removed := 0
			for v := lo; v < hi; v++ {
				pre := nodes[v].Tokens().Len()
				arr.collects[v].Collect(arr.gc)
				removed += pre - nodes[v].Tokens().Len()
			}
			st.removed = removed
		}
	}

	// The fan-out entry points are the raw shard closures when timing is
	// off and timed wrappers (per-shard clock, stage=/shard= pprof labels)
	// when it is on. Wrapping conditionally — instead of capturing a flag
	// inside the hot closures — keeps the timing-off round loop exactly
	// what it was, in both instructions and allocations.
	runCollect, runDeliver := collectShard, deliverShard
	if tst != nil {
		runCollect = tst.wrapShard(StageCollect, tst.collectCtx, collectShard)
		runDeliver = tst.wrapShard(StageDeliver, tst.deliverCtx, deliverShard)
	}

	for r = 0; r < opts.MaxRounds; r++ {
		// Recoveries first: a node whose downtime window ends at r is up
		// for the whole round. Volatile protocol state resets through the
		// Recoverer hook; the token set (stable storage) is retained.
		segT = tst.seg(StageFaults)
		if len(recovering) > 0 {
			eventScratch = eventScratch[:0]
			keep := recovering[:0]
			for _, v := range recovering {
				if recoverAt[v] <= r {
					crashed[v] = false
					recoverAt[v] = faults.NoRecovery
					eventScratch = append(eventScratch, v)
				} else {
					keep = append(keep, v)
				}
			}
			recovering = keep
			sort.Ints(eventScratch)
			for _, v := range eventScratch {
				met.Recoveries++
				if rec, ok := nodes[v].(Recoverer); ok {
					rec.OnRecover(r)
				}
				if obs != nil && obs.Recovered != nil {
					obs.Recovered(r, v)
				}
			}
		}

		// Static crashes, then — once this round's hierarchy is known —
		// head-targeted ones. Both feed one sorted Crashed event batch.
		eventScratch = eventScratch[:0]
		fell := func(v, recAt int) {
			crashed[v] = true
			if recAt != faults.NoRecovery {
				recoverAt[v] = recAt
				recovering = append(recovering, v)
			}
			eventScratch = append(eventScratch, v)
		}
		for i := range crashSchedule {
			ce := &crashSchedule[i]
			if !ce.done && r >= ce.at {
				ce.done = true
				if !crashed[ce.node] {
					fell(ce.node, ce.recoverAt)
				}
			}
		}
		tst.end(StageFaults, segT)
		fresh = r > cachedUntil
		if fresh {
			segT = tst.seg(StageSnapshot)
			g = d.At(r)
			tst.end(StageSnapshot, segT)
			if rows != nil {
				// Draw every live receiver's in-links for the round, before
				// the beacon exchange and delivery read them.
				segT = tst.seg(StageFaults)
				rows.reset(g)
				if parallelRun {
					parallel.ForEachBounds(bounds, runRows)
				} else {
					runRows(0, 0, n)
				}
				tst.end(StageFaults, segT)
			}
			segT = tst.seg(StageHierarchy)
			if stb != nil {
				// One protocol round: every live node beacons, every live
				// node recomputes its role from what it heard. The emergent
				// hierarchy replaces the adversary's for everything below —
				// views, head-targeted crashes, accounting, tracing.
				stb.state.Begin(g, crashed)
				if parallelRun {
					parallel.ForEachBounds(bounds, stb.runShard)
				} else {
					stb.runShard(0, 0, n)
				}
				stb.round = stb.state.Commit()
				hier = stb.state.Hierarchy()
				cachedUntil = r
			} else {
				hier = d.HierarchyAt(r)
				cachedUntil = r
				if hasStab {
					if s := stab.StableUntil(r); s > r {
						cachedUntil = s
					}
				}
			}
			tst.end(StageHierarchy, segT)
		}
		segT = tst.seg(StageFaults)
		if kill, recAt := inj.HeadCrash(r); kill {
			for v := 0; v < n; v++ {
				if !crashed[v] && hier.Role[v] == ctvg.Head {
					fell(v, recAt)
				}
			}
		}
		if len(eventScratch) > 0 {
			sort.Ints(eventScratch)
			if obs != nil && obs.Crashed != nil {
				for _, v := range eventScratch {
					obs.Crashed(r, v)
				}
			}
		}
		tst.end(StageFaults, segT)
		if stb != nil {
			// Validity is judged against the post-crash population, so a
			// head felled this very round already invalidates its members;
			// the convergence watchdog advances here.
			segT = tst.seg(StageHierarchy)
			stb.observe(r, met, crashed)
			tst.end(StageHierarchy, segT)
		}
		segT = tst.seg(StageObserve)
		if obs != nil && obs.RoundStart != nil {
			obs.RoundStart(r, g, hier)
		}
		if stb != nil && obs != nil {
			if obs.Maintenance != nil {
				obs.Maintenance(r, stb.ms)
			}
			if stb.rep != nil && obs.Diverged != nil {
				obs.Diverged(r, stb.rep)
			}
		}
		tst.end(StageObserve, segT)
		segT = tst.seg(StageTracer)
		if tracer != nil {
			tracer.RoundStart(r, hier)
			if mtr != nil {
				mtr.Maintenance(r, stb.ms)
			}
		}
		tst.end(StageTracer, segT)

		// Arrival injection: new tokens reach their target nodes before the
		// round's Send, on the engine goroutine, so serial and parallel runs
		// inject identically. Timed under the faults stage — like crashes
		// and recoveries, arrivals are externally scheduled events.
		if arr != nil {
			segT = tst.seg(StageFaults)
			arr.inject(r, crashed, hier, obs, atr, met)
			tst.end(StageFaults, segT)
		}

		// Collect, then merge the per-shard accumulators in shard order
		// and replay the Sent stream from outbox in ascending sender
		// order — identical for serial and parallel runs.
		segT = tst.seg(StageCollect)
		if parallelRun {
			parallel.ForEachBounds(bounds, runCollect)
		} else {
			runCollect(0, 0, n)
		}
		tst.end(StageCollect, segT)
		segT = tst.seg(StageMerge)
		for s := range shards {
			met.add(&shards[s].acc)
		}
		tst.end(StageMerge, segT)
		segT = tst.seg(StageObserve)
		if obs != nil && obs.Sent != nil {
			for v := 0; v < n; v++ {
				if outbox[v] != nil {
					obs.Sent(r, outbox[v])
				}
			}
		}
		tst.end(StageObserve, segT)

		// Deliver.
		segT = tst.seg(StageDeliver)
		if parallelRun {
			parallel.ForEachBounds(bounds, runDeliver)
		} else {
			runDeliver(0, 0, n)
		}
		tst.end(StageDeliver, segT)

		// Replay the round's buffered repair notes in deterministic
		// order: ascending node ID, per-node emission order preserved
		// (each node lives on exactly one shard, and the sort is stable).
		segT = tst.seg(StageMerge)
		noteScratch = noteScratch[:0]
		for s := range shards {
			noteScratch = append(noteScratch, shards[s].notes...)
			shards[s].notes = shards[s].notes[:0]
		}
		if len(noteScratch) > 0 {
			sort.SliceStable(noteScratch, func(i, j int) bool {
				return noteScratch[i].node < noteScratch[j].node
			})
			for _, nt := range noteScratch {
				switch nt.kind {
				case NoteHandover:
					met.Handovers++
				case NoteFloodFallback:
					met.FloodFallbacks++
				}
				if obs != nil && obs.Noted != nil {
					obs.Noted(r, nt.node, nt.kind)
				}
			}
		}
		tst.end(StageMerge, segT)

		// Round barrier for the tracer: merge its shard buffers in
		// deterministic order and fold the delivery accounting into the run
		// totals before the arenas reclaim this round's messages.
		segT = tst.seg(StageTracer)
		if tracer != nil {
			first, redundant := tracer.RoundEnd(r, crashed)
			met.FirstDeliveries += int64(first)
			met.RedundantDeliveries += int64(redundant)
			if obs != nil && obs.Deliveries != nil {
				obs.Deliveries(r, first, redundant)
			}
		}
		tst.end(StageTracer, segT)

		// Fold the round's link-fault counts into the run totals.
		segT = tst.seg(StageMerge)
		roundDrops, roundDups := 0, 0
		for s := range shards {
			roundDrops += shards[s].drops
			roundDups += shards[s].dups
			shards[s].drops, shards[s].dups = 0, 0
		}
		if roundDrops > 0 || roundDups > 0 {
			met.Drops += int64(roundDrops)
			met.Dups += int64(roundDups)
			if obs != nil && obs.LinkFaults != nil {
				obs.LinkFaults(r, roundDrops, roundDups)
			}
		}
		tst.end(StageMerge, segT)

		segT = tst.seg(StageProgress)
		delivered := 0
		countedN, outstanding := 0, 0
		if arr != nil {
			// Pass 1: scan, then merge the shard intersections in order.
			if parallelRun {
				parallel.ForEachBounds(bounds, arrScan)
			} else {
				arrScan(0, 0, n)
			}
			countedHeld, haveInter := 0, false
			for s := range shards {
				st := &shards[s]
				delivered += st.preSum
				countedN += st.cntN
				countedHeld += st.cntHeld
				if !st.interAny {
					continue
				}
				if !haveInter {
					arr.gc.CopyFrom(&st.inter)
					haveInter = true
				} else {
					arr.gc.IntersectWith(&st.inter)
				}
			}
			if !haveInter {
				arr.gc.Clear()
			}
			arr.gc.IntersectWith(arr.live)
			// Pass 2: collect the fully disseminated tokens and rebase the
			// accounting on the post-GC universe, so Progress and the
			// totals below stay mutually consistent.
			if gcLen := arr.gc.Len(); gcLen > 0 {
				if atr != nil {
					atr.Collected(r, arr.gc)
				}
				if parallelRun {
					parallel.ForEachBounds(bounds, arrCollect)
				} else {
					arrCollect(0, 0, n)
				}
				for s := range shards {
					delivered -= shards[s].removed
				}
				countedHeld -= countedN * gcLen
				arr.gc.Range(func(tok int) bool {
					if obs != nil && obs.Collected != nil {
						obs.Collected(r, tok, arr.seq[tok], arr.born[tok])
					}
					arr.live.Remove(tok)
					arr.free.Add(tok)
					return true
				})
				arr.collected += int64(gcLen)
				met.TokensCollected += int64(gcLen)
			}
			outstanding = countedN*arr.liveCount() - countedHeld
			met.OutstandingTokens = arr.liveCount()
			if obs != nil && obs.Progress != nil {
				obs.Progress(r, delivered)
			}
		} else if needDelivered {
			// The delivered count is a sum of per-node popcounts; integer
			// addition commutes, so the sharded sum below matches the
			// serial one exactly.
			if parallelRun {
				parallel.ForEachBounds(bounds, func(s, lo, hi int) {
					sum := 0
					for v := lo; v < hi; v++ {
						sum += nodes[v].Tokens().Len()
					}
					shards[s].acc.delivered = sum
				})
				for s := range shards {
					delivered += shards[s].acc.delivered
				}
			} else {
				for _, nd := range nodes {
					delivered += nd.Tokens().Len()
				}
			}
			if obs != nil && obs.Progress != nil {
				obs.Progress(r, delivered)
			}
		}

		met.Rounds = r + 1
		if obs != nil && obs.Barrier != nil {
			obs.Barrier(r, met)
		}
		var done bool
		if arr != nil {
			// Steady state is complete when the arrival process can inject
			// nothing more and every token has been collected — which
			// requires at least one counted node, same as doneLive.
			done = countedN > 0 && arr.live.Empty() && arr.exhausted(r+1)
		} else if !met.Complete {
			// Completion is sticky and a StopWhenComplete run has already
			// stopped, so the scan runs only until the first completion.
			done = doneLive(nodes, crashed, recoverAt, k, workers)
		}
		tst.end(StageProgress, segT)

		// Round barrier: messages and payload sets handed out this round
		// are dead — nothing may retain them — so the arenas take them
		// back for the next round.
		segT = tst.seg(StageRecycle)
		for s := range shards {
			shards[s].pool.recycle()
		}
		tst.end(StageRecycle, segT)

		// Timing barrier: flush exactly one record per executed round —
		// before the done/stall breaks, so truncated runs report their
		// final round too — then restore the caller's pprof labels.
		if tst != nil {
			if timer.SampleArena(r) {
				msgs, sets, setBytes := 0, 0, int64(0)
				for s := range shards {
					m, sc, b := shards[s].pool.stats()
					msgs += m
					sets += sc
					setBytes += b
				}
				timer.Arena(r, msgs, sets, setBytes)
			}
			timer.RoundEnd(r, &tst.wall, tst.shard)
			tst.reset()
			pprof.SetGoroutineLabels(tst.baseCtx)
		}

		if done {
			if !met.Complete {
				met.Complete = true
				met.CompletionRound = r + 1
			}
			if opts.StopWhenComplete {
				break
			}
		}
		if opts.StallWindow > 0 && !met.Complete {
			// A stall is outstanding work with no progress. Under arrivals
			// a flat delivered count is healthy whenever nothing is
			// outstanding (every live pair delivered, the next burst not
			// yet arrived), so idle gaps reset the watchdog instead of
			// tripping it; an all-dead population (countedN == 0) still
			// counts as stalled — nobody is left to make progress.
			healthyIdle := arr != nil && countedN > 0 && outstanding == 0
			if delivered == lastDelivered && !healthyIdle {
				stallRun++
			} else {
				stallRun = 0
				lastDelivered = delivered
			}
			if stallRun >= opts.StallWindow {
				// Total tracks the live token universe: k for batch runs,
				// injected-minus-collected (plus the initial batch) under
				// arrivals.
				total := n * k
				if arr != nil {
					total = n * arr.liveCount()
				}
				rep := stallReport(r, opts.StallWindow, delivered, total, crashed, recoverAt)
				met.Stall = rep
				if obs != nil && obs.Stalled != nil {
					obs.Stalled(r, rep)
				}
				break
			}
		}
		if opts.Stop != nil && opts.Stop(r) {
			break
		}
	}
	return met, nil
}

// MustRun is Run for call sites where a failure is a programming error:
// it panics instead of returning one.
func MustRun(d ctvg.Dynamic, nodes []Node, assign *token.Assignment, opts Options) *Metrics {
	m, err := Run(d, nodes, assign, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// stallReport snapshots the population for the watchdog diagnostic.
func stallReport(r, window, delivered, total int, crashed []bool, recoverAt []int) *StallReport {
	rep := &StallReport{Round: r, Window: window, Delivered: delivered, Total: total}
	for v := range crashed {
		switch {
		case !crashed[v]:
			rep.Live++
		case recoverAt != nil && recoverAt[v] != faults.NoRecovery:
			rep.PendingRecovery++
		default:
			rep.Down++
		}
	}
	return rep
}

// shardAcc is one worker's private slice of the round accounting. The
// serial engine uses a single stack-allocated instance, so the accounting
// path allocates nothing per message in either mode.
type shardAcc struct {
	messages     int64
	tokens       int64
	bytes        int64
	msgsByKind   [NumKinds]int64
	tokensByKind [NumKinds]int64
	msgsByRole   [NumRoles]int64
	tokensByRole [NumRoles]int64
	delivered    int
}

func (a *shardAcc) reset() { *a = shardAcc{} }

// add folds one shard's accounting into the run totals.
func (m *Metrics) add(a *shardAcc) {
	m.Messages += a.messages
	m.TokensSent += a.tokens
	m.BytesSent += a.bytes
	for i := range a.msgsByKind {
		m.MessagesByKind[i] += a.msgsByKind[i]
		m.TokensByKind[i] += a.tokensByKind[i]
	}
	for i := range a.msgsByRole {
		m.MessagesByRole[i] += a.msgsByRole[i]
		m.TokensByRole[i] += a.tokensByRole[i]
	}
}

// crashEntry is one scheduled crash from the static plan, pre-sorted by
// node ID so activation — and the Crashed events it emits — happen in
// deterministic order. done marks entries that already fired, so a node
// that crashed, recovered and stayed up is not felled again by its old
// schedule entry.
type crashEntry struct {
	node, at, recoverAt int
	done                bool
}

// shardBounds cuts [0, n) into nshards contiguous blocks of roughly equal
// cumulative weight, where node v weighs deg(v)+1 in the round-0 graph (the
// +1 keeps isolated nodes from collapsing into one giant block and bounds
// every cut even on an empty graph). The s-th cut is placed at the first
// node where the running weight reaches s/nshards of the total, so heavily
// connected prefixes (a star centre, a dense cluster) get correspondingly
// fewer nodes. Blocks may be empty on extreme skew; callers must still
// visit empty shards (parallel.ForEachBounds does).
//
// The round-0 snapshot is a heuristic for the whole run — recomputing cuts
// per round would move nodes between shards and break the fixed node→arena
// wiring the delivery path relies on.
func shardBounds(g *graph.Graph, nshards int) []int {
	n := g.N()
	bounds := make([]int, nshards+1)
	bounds[nshards] = n
	if nshards <= 1 {
		return bounds
	}
	total := int64(2*g.M() + n)
	var cum int64
	s := 1
	for v := 0; v < n && s < nshards; v++ {
		cum += int64(g.Degree(v) + 1)
		for s < nshards && cum*int64(nshards) >= int64(s)*total {
			bounds[s] = v + 1
			s++
		}
	}
	for ; s < nshards; s++ {
		bounds[s] = n
	}
	return bounds
}

// workersFor resolves Options.Workers for a run over n nodes: at least 1,
// and never more than n — a worker without nodes would be an idle shard
// (and an empty accumulator slot) on every round barrier.
func workersFor(opts Options, n int) int {
	w := opts.Workers
	if w < 1 {
		return 1
	}
	if w > n {
		return n
	}
	return w
}

// doneLive reports whether dissemination is complete: every node that is
// up — or down but scheduled to rejoin, since its token set (stable
// storage) survives the outage — holds all k tokens. Permanently crashed
// nodes are excluded (they can never collect anything), but if no node at
// all is up or rejoining the run cannot be complete: there is nobody left
// to disseminate to. Tokens() may be expensive (network coding decodes),
// so the scan fans out when the run is parallel; each node's Tokens()
// touches only that node's state.
func doneLive(nodes []Node, crashed []bool, recoverAt []int, k, workers int) bool {
	if workers <= 1 {
		any := false
		for v, nd := range nodes {
			if !counted(v, crashed, recoverAt) {
				continue
			}
			any = true
			if nd.Tokens().Len() != k {
				return false
			}
		}
		return any
	}
	var incomplete, considered atomic.Bool
	parallel.ForEachRange(len(nodes), workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if incomplete.Load() {
				return
			}
			if !counted(v, crashed, recoverAt) {
				continue
			}
			considered.Store(true)
			if nodes[v].Tokens().Len() != k {
				incomplete.Store(true)
				return
			}
		}
	})
	return considered.Load() && !incomplete.Load()
}

// counted reports whether node v counts toward completion: it is up, or
// down but scheduled to rejoin.
func counted(v int, crashed []bool, recoverAt []int) bool {
	if !crashed[v] {
		return true
	}
	return recoverAt != nil && recoverAt[v] != faults.NoRecovery
}

// RunProtocol is the convenience entry point: build fresh nodes from the
// protocol and run them.
func RunProtocol(d ctvg.Dynamic, p Protocol, assign *token.Assignment, opts Options) (*Metrics, error) {
	return Run(d, p.Nodes(assign), assign, opts)
}

// MustRunProtocol is RunProtocol with MustRun's panic-on-error contract.
func MustRunProtocol(d ctvg.Dynamic, p Protocol, assign *token.Assignment, opts Options) *Metrics {
	m, err := RunProtocol(d, p, assign, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Flat adapts a flat (cluster-free) dynamic network to the ctvg.Dynamic
// interface by reporting every node unaffiliated in every round. Flat
// baselines run on it unchanged.
type Flat struct {
	D tvg.Dynamic

	hier *ctvg.Hierarchy // lazily built, all-unaffiliated
}

// NewFlat wraps a flat dynamic network.
func NewFlat(d tvg.Dynamic) *Flat {
	return &Flat{D: d, hier: ctvg.NewHierarchy(d.N())}
}

// N implements ctvg.Dynamic.
func (f *Flat) N() int { return f.D.N() }

// At implements ctvg.Dynamic.
func (f *Flat) At(r int) *graph.Graph { return f.D.At(r) }

// HierarchyAt implements ctvg.Dynamic.
func (f *Flat) HierarchyAt(r int) *ctvg.Hierarchy { return f.hier }

// StableUntil implements ctvg.Stability by delegation: the all-unaffiliated
// hierarchy never changes, so the wrapper is exactly as stable as the flat
// network underneath (and promises nothing when that network does not
// advertise stability).
func (f *Flat) StableUntil(r int) int {
	if s, ok := f.D.(tvg.Stability); ok {
		return s.StableUntil(r)
	}
	return r
}

var (
	_ ctvg.Dynamic   = (*Flat)(nil)
	_ ctvg.Stability = (*Flat)(nil)
)
