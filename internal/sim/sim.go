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
	"runtime"
	"slices"

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
//
// The engine hands Send and Deliver a pointer into its own storage, which
// it reuses for every round of a stability window. A node reads its View
// during the call only: it never writes a field and never keeps the
// pointer, or anything reached through it, past the call. Round is the
// current round in every Send and Deliver call, also on the rounds an idle
// node's Send is skipped (see Idle).
type View struct {
	Round int
	Role  ctvg.Role
	Head  int // current cluster head node ID, or ctvg.NoCluster
	// Neighbors is the node's current neighbour list, ascending. It
	// aliases engine storage and must not be modified or retained.
	Neighbors []int

	// id is the observing node's ID; Idle marks it.
	id int
	// sh is the owning shard: its message arena, its accounting (which
	// counts notes) and the run's idle marks. nil outside an engine run:
	// hand-built Views fall back to plain allocation, and Note and Idle do
	// nothing.
	sh *shardState
}

// NewMessage returns a zeroed Message for this round's transmission. Inside
// a run it comes from the shard's arena and is recycled at the round
// barrier, so protocols that build their Send result through it allocate
// nothing in steady state. The message (like any Send result) must not be
// retained past the round.
func (v *View) NewMessage() *Message {
	if v.sh == nil {
		return new(Message)
	}
	return v.sh.pool.message()
}

// NewSet returns an empty token set with the same arena lifetime as
// NewMessage: use it for message payloads, never for state that outlives
// the round.
func (v *View) NewSet() *bitset.Set {
	if v.sh == nil {
		return new(bitset.Set)
	}
	return v.sh.pool.set()
}

// Note reports a repair action taken by the node this round (from Send or
// Deliver). Each shard counts its notes by kind, and the round barrier adds
// the counts to Metrics.Handovers and FloodFallbacks, so the totals are
// identical under any Workers setting. Outside an engine run Note is a
// no-op.
func (v *View) Note(kind NoteKind) {
	if v.sh != nil && kind < NumNoteKinds {
		v.sh.acc.notes[kind]++
	}
}

// Idle is a promise from a Send that returns nil: until the node's Role or
// Head changes, or the engine calls Inject, Collect or OnRecover on it,
// its Send would keep returning nil and leave the node's state as it is.
// The engine then skips the node's Send until one of those wake events.
// Deliver is still called, so a node idles only when no delivery can give
// its Send something to do. The promise has a second clause: a Deliver
// whose messages teach the node no token must not change what its Send
// returns after a later wake event. Once the run is complete (every
// counted node holds every token, or in arrival mode every token is
// collected and no more arrive) no message can teach a node a token, so
// the engine skips an idle node's Deliver as well, unless something
// counts single deliveries: a Tracer, link loss or duplication. A Send
// that returns a message, and Deliver, must not call Idle. Outside an
// engine run Idle does nothing, and Send and Deliver are called every
// round.
func (v *View) Idle() {
	if v.sh != nil {
		v.sh.idle[v.id] = true
	}
}

// Node is a per-node protocol state machine. On a sharded run (see
// Options.Workers, which by default shards runs of 8192 nodes or more on
// two or more CPUs) Send and Deliver of nodes in distinct shards run
// concurrently, so a node may write only its own state; anything it shares
// with other nodes must be read-only for the run. Workers: 1 keeps every
// call on the engine goroutine. v points into engine storage: it is read
// only, and valid only during the call (see View).
type Node interface {
	// Send returns the node's transmission for this round, or nil. A Send
	// that returns nil may call v.Idle to have the engine skip its Send
	// until a wake event (see View.Idle).
	Send(v *View) *Message
	// Deliver hands the node every message heard this round (from its
	// current neighbours), ordered by ascending sender ID. Under fault
	// injection a duplicated message appears twice, back to back. Once
	// the run is complete an idle node is not handed its deliveries,
	// unless a Tracer, loss or duplication counts them (see View.Idle).
	Deliver(v *View, msgs []*Message)
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

// Round is the record of one executed round that the engine hands its
// Observer: the graph and hierarchy the round ran on, what the fault plan
// and the arrival process did, every node's transmission, and the run's
// Metrics so far. The engine merges shard-local state in shard order, which
// is ascending node order, before it hands the record over, so serial and
// sharded runs on the same inputs produce identical records.
//
// A Round is engine storage, rebuilt in place every round. The record and
// everything it reaches are read-only and valid only during the Observer
// call: an observer that keeps anything past it copies it. Graph and Hier
// stay valid as long as the lifetime rule of ctvg.Dynamic says, until two
// further windows have been materialised; to keep either longer, deep-copy
// it (graph.Graph.DeepClone, ctvg.Hierarchy.Clone).
type Round struct {
	// R is the 0-based round number.
	R int
	// Graph and Hier are the round's communication graph and hierarchy:
	// the adversary's, or with Options.SelfStabilize the emergent one.
	Graph *graph.Graph
	Hier  *ctvg.Hierarchy
	// Recovered lists the nodes that rejoined at the top of the round and
	// Crashed the nodes fault injection felled there, each ascending. A
	// node may rejoin and crash again in one round.
	Recovered, Crashed []int
	// Outbox holds each node's transmission of the round, indexed by
	// sender, or nil for a node that sent nothing.
	Outbox []*Message
	// Arrived lists the tokens the arrival process injected this round, in
	// arrival order, and Collected the tokens garbage-collected at the
	// round barrier, ascending by slot. Both are empty without
	// Options.Arrivals.
	Arrived   []ArrivedToken
	Collected []CollectedToken
	// Delivered is the number of (node, token) pairs held after the round's
	// deliveries and, in arrival mode, its garbage collection. The maximum
	// is n·k.
	Delivered int
	// Maintenance is the round's self-stabilizing clustering summary, nil
	// without Options.SelfStabilize. Diverged is set on the round the
	// convergence watchdog fires.
	Maintenance *MaintenanceStats
	Diverged    *ConvergenceReport
	// Metrics is the run so far: Rounds counts this round, and Stall is set
	// on the round the stall watchdog ends the run. A completion is marked
	// after the record, so the round that completes the run still reads
	// Complete false.
	Metrics *Metrics
}

// ArrivedToken is one token injected by the arrival process: the node it
// arrived at, its slot, and its global arrival sequence number (sequence
// numbers tell generations apart when a collected token's slot is reused).
type ArrivedToken struct {
	Node, Slot int
	Seq        int64
}

// CollectedToken is one token garbage-collected at a round barrier: its
// slot, sequence number and injection round (its delivery latency is the
// round minus Born).
type CollectedToken struct {
	Slot int
	Seq  int64
	Born int
}

// Observer receives each executed round's record once, after the round's
// deliveries, garbage collection and stall check and before its messages
// return to the arenas. It is called from the engine goroutine in ascending
// round order, whatever Options.Workers is, so an observer needs no
// locking. obs.Combine hands one record to several observers.
type Observer func(rd *Round)

// Tracer observes individual token deliveries at per-message granularity —
// the raw material for provenance DAGs (see internal/provenance). It is
// deliberately lower-level than Observer: callbacks other than RunStart,
// RoundStart and RoundEnd may run concurrently on shard goroutines.
//
// Contract: RunStart is called once from the engine goroutine before round
// 0, after the shard partition is fixed; the tracer may read every node's
// initial token set there. RoundStart is called from the engine goroutine
// each round, once its hierarchy and crashes are fixed; hier aliases
// engine storage and is read-only, valid for the duration of the round.
// Delivered is called after nodes[v].Deliver for every live node that
// heard at least one message; on a sharded run (Workers > 1, or Workers 0
// at 8192 nodes or more on two or more CPUs, see Options.Workers) the
// calls for distinct shards run concurrently, but the shard→node partition is fixed for the
// whole run, so per-node and per-shard tracer state needs no locking;
// Workers: 1 keeps every call on the engine goroutine. inbox aliases shard
// scratch and tokens aliases node state: both are read-only and must not
// be retained past the call. RoundEnd is called from the engine goroutine
// at the round barrier (after delivery, before arena recycling); it merges
// the shard buffers in shard order — ascending node order — so tracer
// output is bit-identical to a serial run, and returns the round's
// first-delivery and redundant-delivery counts, which the engine folds into
// Metrics.
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
	// Observer, if non-nil, receives each executed round's record (see
	// Round). The disabled (nil) path costs one nil check per round.
	Observer Observer
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
	// into Metrics.BytesSent (byte-level cost accounting). On a sharded
	// run (Workers > 1, or Workers 0 at 8192 nodes or more on two or more
	// CPUs, see Workers) it is called concurrently from the accounting
	// shards and must be pure (internal/wire.Size is); Workers: 1 keeps it
	// on the engine goroutine.
	SizeFn func(*Message) int
	// Workers sets within-round parallelism: Send, Deliver and the
	// per-message accounting of distinct nodes run concurrently on up to
	// Workers goroutines, one per contiguous node shard. 0 chooses for the
	// input: one shard per 4096 nodes, at most GOMAXPROCS, so runs below
	// 8192 nodes or on one CPU stay serial (see minShardNodes for the
	// measured crossover). 1, or a negative count, keeps a run serial. A
	// count above 1 is taken as given, clamped to the node count so tiny
	// networks never spawn idle shards. Node state is per-node and
	// messages are treated as read-only after Send, so results are
	// bit-identical to the serial engine whatever the shard count, and so
	// is every Round an Observer receives.
	Workers int
	// StallWindow, when positive, arms the stall watchdog: if the total
	// number of delivered (node, token) pairs does not increase for
	// StallWindow consecutive rounds while dissemination is incomplete,
	// the run terminates with a StallReport in Metrics.Stall instead of
	// spinning to MaxRounds. 0 disables the watchdog.
	StallWindow int
	// Timing, if non-nil, turns on engine self-profiling: every round
	// stage (crash bookkeeping, snapshot/thaw, hierarchy refresh, collect
	// fan-out, delivery fan-out, barrier merges, tracer emit, progress
	// scan, observer call, arena recycle — see Stage) is measured on the
	// monotonic clock, wall time on the engine goroutine plus per-shard
	// time inside the fan-outs, and handed to the sink once per round at
	// the barrier, merged in shard order.
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
	// the Observer call and the timing flush): when it returns true the run
	// ends cleanly at that round, with Metrics and every observer/tracer/
	// timing stream consistent up to and including it. This is the cooperative
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
	e, err := newEngine(d, nodes, assign.K, opts)
	if err != nil {
		return nil, err
	}
	for r := 0; r < opts.MaxRounds; r++ {
		if e.round(r) {
			break
		}
	}
	return e.met, nil
}

// engine is one run: the state newEngine validates and builds, and the
// per-round scratch every stage reuses. round calls one method per stage;
// the shard bodies those stages fan out are bound to func values once per
// run, so the round loop builds no closure and, in steady state, allocates
// nothing.
type engine struct {
	d      ctvg.Dynamic
	stab   ctvg.Stability // nil when graph and hierarchy are refetched every round
	nodes  []Node
	n, k   int
	opts   Options
	obs    Observer
	tracer Tracer
	atr    ArrivalTracer
	mtr    MaintenanceTracer
	met    *Metrics

	// Fault state. crashed marks nodes currently down; recoverAt holds the
	// rejoin round of nodes in a downtime window (faults.NoRecovery
	// otherwise); crashSchedule is the static plan, each entry fired once.
	inj                *faults.Injector
	lossy, duplicating bool
	crashed            []bool
	recoverAt          []int
	recovering         []int // nodes in a downtime window, unordered
	crashSchedule      []crashEntry

	// outbox holds each node's transmission of the round, nil for none;
	// sent[v] is outbox[v] != nil, one byte a node, so delivery's
	// neighbour scan skips silent neighbours without loading outbox.
	// idle[v] marks a node whose Send promised nil until a wake event (see
	// View.Idle): collect skips it, and its outbox entry and sent flag stay
	// clear; once skipIdle is set, delivery skips it too. sent and idle
	// share one allocation.
	outbox []*Message
	sent   []bool
	idle   []bool
	views  []View
	shards []shardState
	bounds []int // shard s owns nodes [bounds[s], bounds[s+1])

	// rd is the Observer's record, rebuilt in place every round. Its
	// Recovered and Crashed lists are the round's crash bookkeeping with or
	// without an observer; its other sections are filled only for one.
	rd Round

	// Optional subsystems, each behind one pointer so a run without it
	// pays a nil comparison per round and allocates nothing for it.
	arr  *arrState
	stb  *stabState
	rows *lossRows
	tst  *timingState

	// Round state: the round number, whether it opens a new stability
	// window (graph, hierarchy and views refetched), whether delivery
	// skips idle nodes, and the round's graph and hierarchy.
	r           int
	fresh       bool
	skipIdle    bool
	cachedUntil int
	g           *graph.Graph
	hier        *ctvg.Hierarchy

	// Progress state. delivered counts (node, token) pairs; countedN and
	// outstanding are the arrival-mode population and its undelivered
	// pairs; done marks a complete round.
	needDelivered           bool
	delivered               int
	countedN, outstanding   int
	done                    bool
	lastDelivered, stallRun int

	// Shard bodies, bound once per run (see each).
	collect, deliver, drawLoss, beacons, scan, scanArrivals, collectArrivals func(s, lo, hi int)
}

// newEngine validates the run and builds its state: fault injector,
// arrival and self-stabilization subsystems, the shard partition with every
// view wired to its shard's arena, and the bound shard bodies.
func newEngine(d ctvg.Dynamic, nodes []Node, k int, opts Options) (*engine, error) {
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
	e := &engine{
		d: d, nodes: nodes, n: n, k: k, opts: opts,
		obs:           opts.Observer,
		tracer:        opts.Tracer,
		met:           &Metrics{CompletionRound: -1},
		inj:           inj,
		lossy:         inj.Lossy(),
		duplicating:   inj.Duplicating(),
		crashed:       make([]bool, n),
		outbox:        make([]*Message, n),
		views:         make([]View, n),
		cachedUntil:   -1,
		lastDelivered: -1,
		needDelivered: opts.StallWindow > 0 || opts.Observer != nil,
	}
	e.rd.Outbox, e.rd.Metrics = e.outbox, e.met
	flags := make([]bool, 2*n)
	e.sent, e.idle = flags[:n:n], flags[n:]

	// Steady-state arrival mode: all bookkeeping hangs off one pointer.
	if opts.Arrivals != nil {
		if err := opts.Arrivals.validate(n); err != nil {
			return nil, err
		}
		if e.arr, err = newArrState(opts.Arrivals, n, k, nodes); err != nil {
			return nil, err
		}
		e.met.OutstandingTokens = e.arr.liveCount()
		e.met.PeakOutstanding = e.arr.liveCount()
	}

	if inj != nil {
		e.recoverAt = make([]int, n)
		for v := range e.recoverAt {
			e.recoverAt[v] = faults.NoRecovery
		}
		for _, c := range inj.Crashes() {
			e.crashSchedule = append(e.crashSchedule, crashEntry{node: c.Node, at: c.At, recoverAt: c.RecoverAt})
		}
	}

	// Parallel runs shard the round: each worker owns a contiguous node
	// block and private state (accumulator, message arena, inbox scratch),
	// and the engine merges the shards in shard order at the round barrier.
	// Shard order equals ascending node order, so merged metrics — and the
	// observer's round records — are bit-identical to a serial run's. The
	// partition is fixed for the whole run, so each view is wired to its
	// owning shard exactly once.
	//
	// Shards are cut at equal cumulative round-0 degree rather than equal
	// node count: per-node round work is dominated by neighbour scans, so
	// on hub-heavy topologies (a star, a clustered HiNet) an equal-count
	// partition leaves one worker with nearly all edges. Round 0's snapshot
	// reuses the graph fetched here, so a sharded run asks the dynamic for
	// each window's graph once, like a serial one.
	e.bounds = []int{0, n}
	if w := workersFor(opts.Workers, n, runtime.GOMAXPROCS(0)); w > 1 {
		e.g = d.At(0)
		e.bounds = shardBounds(e.g, w)
	}
	nshards := len(e.bounds) - 1
	e.shards = make([]shardState, nshards)
	for s := range e.shards {
		sh := &e.shards[s]
		// Unbounded runs must not let one burst round pin the arenas'
		// high-water capacity forever; batch runs keep the plain ratchet.
		sh.pool.trim = e.arr != nil
		sh.idle = e.idle
		for v := e.bounds[s]; v < e.bounds[s+1]; v++ {
			e.views[v] = View{id: v, sh: sh}
		}
	}

	if e.tracer != nil {
		e.tracer.RunStart(n, k, nshards, nodes)
		if e.arr != nil {
			e.atr, _ = e.tracer.(ArrivalTracer)
		}
	}
	if opts.Timing != nil {
		e.tst = newTimingState(opts.LabelCtx, nshards)
		opts.Timing.RunStart(nshards)
	}

	// Stability-window cache: when the dynamic advertises T-interval
	// stable windows (ctvg.Stability), graph, hierarchy and views are
	// frozen on the window's first round and reused until the window ends.
	// Self-stabilizing runs bypass it: the emergent hierarchy may change
	// every round. A lossy self-stabilizing run also draws the round's loss
	// rows, which the beacon exchange and delivery share.
	if opts.SelfStabilize != nil {
		e.stb = newStabState(opts.SelfStabilize, n, nshards)
		e.rd.Maintenance = &e.stb.ms
		e.beacons = e.beaconShard
		if e.lossy {
			e.rows = &lossRows{inj: inj, off: make([]int, n+1)}
			e.stb.lost = e.rows.lostAt
			e.drawLoss = e.lossShard
		}
		if e.tracer != nil {
			e.mtr, _ = e.tracer.(MaintenanceTracer)
		}
	} else {
		e.stab, _ = d.(ctvg.Stability)
	}

	e.collect, e.deliver = e.collectShard, e.deliverShard
	if e.tst != nil {
		e.collect = e.tst.wrapShard(StageCollect, e.tst.collectCtx, e.collect)
		e.deliver = e.tst.wrapShard(StageDeliver, e.tst.deliverCtx, e.deliver)
	}
	if e.arr != nil {
		e.scanArrivals, e.collectArrivals = e.scanArrivalsShard, e.collectArrivalsShard
	} else {
		e.scan = e.scanShard
	}
	return e, nil
}

// round runs round r and reports whether the run ends after it. It calls
// one method per stage, in the order the round executes; Stage names the
// timing bucket of each call.
func (e *engine) round(r int) bool {
	e.r = r
	e.stage(StageFaults, (*engine).crash)
	if e.fresh = r > e.cachedUntil; e.fresh {
		e.stage(StageSnapshot, (*engine).snapshot)
		if e.rows != nil {
			e.stage(StageFaults, (*engine).drawLossRows)
		}
		e.stage(StageHierarchy, (*engine).hierarchy)
	}
	e.stage(StageFaults, (*engine).crashHeads)
	if e.stb != nil {
		e.stage(StageHierarchy, (*engine).validate)
	}
	e.stage(StageTracer, (*engine).traceStart)
	if e.arr != nil {
		e.stage(StageFaults, (*engine).inject)
	}
	e.stage(StageCollect, (*engine).collectAll)
	e.stage(StageDeliver, (*engine).deliverAll)
	e.stage(StageMerge, (*engine).merge)
	e.stage(StageTracer, (*engine).traceEnd)
	e.stage(StageProgress, (*engine).progress)
	e.stage(StageObserve, (*engine).observe)
	e.stage(StageRecycle, (*engine).recycle)
	e.tst.flush(e.opts.Timing, r, e.shards)
	return e.finish()
}

// stage runs one stage body, timed as st when a timing sink is attached.
// Bodies are method expressions, so a call builds no closure.
func (e *engine) stage(st Stage, body func(*engine)) {
	t0 := e.tst.seg(st)
	body(e)
	e.tst.end(st, t0)
}

// each fans body out over the shard partition: one goroutine per shard,
// or a direct call on the engine goroutine for a serial run. It is the
// engine's only fan-out.
func (e *engine) each(body func(s, lo, hi int)) { parallel.ForEachBounds(e.bounds, body) }

// crash rejoins the nodes whose downtime window ends this round, then
// fells the static plan's crashes. A rejoining node is up for the whole
// round and wakes if idle: volatile protocol state resets through the
// Recoverer hook, and the token set (stable storage) is retained.
func (e *engine) crash() {
	rd := &e.rd
	rd.Recovered = rd.Recovered[:0]
	if len(e.recovering) > 0 {
		keep := e.recovering[:0]
		for _, v := range e.recovering {
			if e.recoverAt[v] <= e.r {
				e.crashed[v] = false
				e.recoverAt[v] = faults.NoRecovery
				rd.Recovered = append(rd.Recovered, v)
			} else {
				keep = append(keep, v)
			}
		}
		e.recovering = keep
		slices.Sort(rd.Recovered)
		for _, v := range rd.Recovered {
			e.met.Recoveries++
			e.idle[v] = false
			if rec, ok := e.nodes[v].(Recoverer); ok {
				rec.OnRecover(e.r)
			}
		}
	}
	// Static crashes, then — once the round's hierarchy is known —
	// head-targeted ones (crashHeads). Both feed one sorted Crashed list.
	rd.Crashed = rd.Crashed[:0]
	for i := range e.crashSchedule {
		ce := &e.crashSchedule[i]
		if !ce.done && e.r >= ce.at {
			ce.done = true
			if !e.crashed[ce.node] {
				e.fell(ce.node, ce.recoverAt)
			}
		}
	}
}

// fell crashes node v, scheduling its rejoin at recAt unless that is
// faults.NoRecovery, and lists it in the round's Crashed.
func (e *engine) fell(v, recAt int) {
	e.crashed[v] = true
	if recAt != faults.NoRecovery {
		e.recoverAt[v] = recAt
		e.recovering = append(e.recovering, v)
	}
	e.rd.Crashed = append(e.rd.Crashed, v)
}

// snapshot materialises the round's communication graph. A sharded run
// already holds round 0's, fetched to cut the shards.
func (e *engine) snapshot() {
	if e.r > 0 || e.g == nil {
		e.g = e.d.At(e.r)
	}
}

// drawLossRows draws every live receiver's in-links for the round, before
// the beacon exchange and delivery read them.
func (e *engine) drawLossRows() {
	e.rows.reset(e.g)
	e.each(e.drawLoss)
}

// hierarchy refreshes the round's clustering hierarchy. With
// SelfStabilize it runs one protocol round — every live node beacons and
// recomputes its role from what it heard — and the emergent hierarchy
// replaces the adversary's for everything below: views, head-targeted
// crashes, accounting, tracing.
func (e *engine) hierarchy() {
	e.cachedUntil = e.r
	if e.stb != nil {
		e.stb.state.Begin(e.g, e.crashed)
		e.each(e.beacons)
		e.stb.round = e.stb.state.Commit()
		e.hier = e.stb.state.Hierarchy()
		return
	}
	e.hier = e.d.HierarchyAt(e.r)
	if e.stab != nil {
		if s := e.stab.StableUntil(e.r); s > e.r {
			e.cachedUntil = s
		}
	}
}

// crashHeads fells the round's head-targeted crashes and sorts the round's
// Crashed list.
func (e *engine) crashHeads() {
	if kill, recAt := e.inj.HeadCrash(e.r); kill {
		for v := 0; v < e.n; v++ {
			if !e.crashed[v] && e.hier.Role[v] == ctvg.Head {
				e.fell(v, recAt)
			}
		}
	}
	slices.Sort(e.rd.Crashed)
}

// validate judges the emergent hierarchy against the post-crash
// population, so a head felled this very round already invalidates its
// members, and advances the convergence watchdog.
func (e *engine) validate() { e.stb.observe(e.r, e.met, e.crashed) }

// traceStart opens the tracer's round.
func (e *engine) traceStart() {
	if e.tracer != nil {
		e.tracer.RoundStart(e.r, e.hier)
		if e.mtr != nil {
			e.mtr.Maintenance(e.r, e.stb.ms)
		}
	}
}

// collectAll runs the collect stage on every shard.
func (e *engine) collectAll() { e.each(e.collect) }

// collectShard is the collect stage on one shard: every node decides its
// transmission from its local view only, and the transmission is charged
// to the shard's accumulator. Inside a stable window only the round number
// changes; role, head and neighbour slice keep the frozen window values.
// A window that changes a node's role or head wakes it; an idle node is
// skipped before its View or its state is touched.
func (e *engine) collectShard(s, lo, hi int) {
	acc := &e.shards[s].acc
	acc.reset()
	r, fresh, g, hier := e.r, e.fresh, e.g, e.hier
	views, outbox, sent, idle, nodes, crashed, sizeFn := e.views, e.outbox, e.sent, e.idle, e.nodes, e.crashed, e.opts.SizeFn
	for v := lo; v < hi; v++ {
		if fresh {
			vw := &views[v]
			role, head := hier.Role[v], hier.HeadOf(v)
			if role != vw.Role || head != vw.Head {
				idle[v] = false
			}
			vw.Role, vw.Head, vw.Neighbors = role, head, g.Neighbors(v)
		}
		if idle[v] {
			continue
		}
		if crashed[v] {
			outbox[v], sent[v] = nil, false
			continue
		}
		vw := &views[v]
		vw.Round = r
		msg := nodes[v].Send(vw)
		outbox[v], sent[v] = msg, msg != nil
		if msg != nil {
			msg.From = v
			acc.charge(msg, hier.Role[v], sizeFn)
		}
	}
}

// deliverAll runs the deliver stage on every shard. Once the run is
// complete no message can teach a node a token, so delivery skips idle
// nodes (see View.Idle) unless something counts single deliveries: the
// tracer, or the loss and duplication counts.
func (e *engine) deliverAll() {
	e.skipIdle = e.met.Complete && e.tracer == nil && !e.lossy && !e.duplicating
	e.each(e.deliver)
}

// deliverShard is the deliver stage on one shard: each live node hears its
// neighbours' messages, ordered by ascending sender ID (Neighbors is
// sorted); fault injection may drop a delivery or hand it over twice.
// Messages are read-only from here on. Delivery runs over the same shard
// partition as collect, so a node delivering through View.NewSet stays on
// its arena's owning goroutine, and the per-receiver fault queries (whose
// burst-channel state is keyed by receiver) stay on the shard that owns
// the receiver. A self-stabilizing run reads the round's loss rows; any
// other lossy run draws one Drop per sender link, since most in-links
// (member to head) carry no message on most rounds. Collect's join orders
// every shard's sent flags and outbox entries before any shard reads them.
// Collect skips idle nodes, so delivery writes each live view's Round;
// after completion it skips them too, unless deliveries are counted.
func (e *engine) deliverShard(s, lo, hi int) {
	st := &e.shards[s]
	r, inj, lossy, duplicating, rows, tracer, skipIdle := e.r, e.inj, e.lossy, e.duplicating, e.rows, e.tracer, e.skipIdle
	views, outbox, sent, idle, nodes, crashed := e.views, e.outbox, e.sent, e.idle, e.nodes, e.crashed
	for v := lo; v < hi; v++ {
		if crashed[v] || skipIdle && idle[v] {
			continue
		}
		st.inbox = st.inbox[:0]
		var lost []bool
		if rows != nil {
			lost = rows.row(v)
		}
		vw := &views[v]
		vw.Round = r
		for i, u := range vw.Neighbors {
			if !sent[u] {
				continue
			}
			msg := outbox[u]
			if lossy && (lost != nil && lost[i] || lost == nil && inj.Drop(r, u, v)) {
				st.acc.drops++
				continue
			}
			st.inbox = append(st.inbox, msg)
			if duplicating && inj.Duplicate(r, u, v) {
				st.acc.dups++
				st.inbox = append(st.inbox, msg)
			}
		}
		nodes[v].Deliver(vw, st.inbox)
		// A node with an empty inbox cannot have learned anything this
		// round, so the tracer only sees non-trivial deliveries.
		if tracer != nil && len(st.inbox) > 0 {
			tracer.Delivered(s, v, vw, st.inbox, nodes[v].Tokens())
		}
	}
}

// merge folds the shard accumulators into the run totals in shard order:
// the round's transmissions, repair notes and link faults.
func (e *engine) merge() {
	for s := range e.shards {
		e.met.add(&e.shards[s].acc)
	}
}

// traceEnd is the tracer's round barrier: it merges the tracer's shard
// buffers in deterministic order and folds the delivery accounting into
// the run totals before the arenas reclaim this round's messages.
func (e *engine) traceEnd() {
	if e.tracer == nil {
		return
	}
	first, redundant := e.tracer.RoundEnd(e.r, e.crashed)
	e.met.FirstDeliveries += int64(first)
	e.met.RedundantDeliveries += int64(redundant)
}

// progress counts the delivered pairs and decides completion — through
// arrival-mode garbage collection or the batch scan — then runs the stall
// watchdog.
func (e *engine) progress() {
	if e.arr != nil {
		e.collectGarbage()
	} else {
		e.scanBatch()
	}
	e.met.Rounds = e.r + 1
	// A round that completes the run makes progress by definition.
	if w := e.opts.StallWindow; w > 0 && !e.met.Complete && !e.done {
		e.watch(w)
	}
}

// watch advances the stall watchdog and, once the run has made no progress
// for w rounds, ends it with a StallReport in Metrics.Stall. A stall is
// outstanding work with no progress. Under arrivals a flat delivered count
// is healthy whenever nothing is outstanding (every live pair delivered,
// the next burst not yet arrived), so idle gaps reset the watchdog instead
// of tripping it; an all-dead population (countedN == 0) still counts as
// stalled — nobody is left to make progress.
func (e *engine) watch(w int) {
	healthyIdle := e.arr != nil && e.countedN > 0 && e.outstanding == 0
	if e.delivered == e.lastDelivered && !healthyIdle {
		e.stallRun++
	} else {
		e.stallRun = 0
		e.lastDelivered = e.delivered
	}
	if e.stallRun < w {
		return
	}
	// Total tracks the live token universe: k for batch runs,
	// injected-minus-collected (plus the initial batch) under arrivals.
	total := e.n * e.k
	if e.arr != nil {
		total = e.n * e.arr.liveCount()
	}
	e.met.Stall = stallReport(e.r, w, e.delivered, total, e.crashed, e.recoverAt)
}

// observe hands the round's record to the Observer, before the arenas
// reclaim the round's messages.
func (e *engine) observe() {
	if e.obs == nil {
		return
	}
	rd := &e.rd
	rd.R, rd.Graph, rd.Hier, rd.Delivered = e.r, e.g, e.hier, e.delivered
	if e.stb != nil {
		rd.Diverged = e.stb.rep
	}
	e.obs(rd)
}

// scanBatch is the batch progress pass: one sharded scan sums the
// delivered pairs, when a stall window or an observer needs them,
// and checks completion until the run first completes. Integer addition
// commutes, so the sharded sum matches a serial one exactly.
func (e *engine) scanBatch() {
	e.delivered, e.done = 0, false
	if !e.needDelivered && e.met.Complete {
		return
	}
	e.each(e.scan)
	counted, incomplete := 0, false
	for s := range e.shards {
		st := &e.shards[s]
		e.delivered += st.delivered
		counted += st.counted
		incomplete = incomplete || st.incomplete
	}
	// Completion is sticky, and a StopWhenComplete run has already stopped.
	e.done = !e.met.Complete && counted > 0 && !incomplete
}

// scanShard is scanBatch on one shard. Dissemination is complete when
// every counted node — up, or down but rejoining, since its token set
// (stable storage) survives the outage — holds all k tokens, and at least
// one node is counted: with nobody left to disseminate to, a run cannot be
// complete. Without a count to take, the scan stops at the shard's first
// incomplete node.
func (e *engine) scanShard(s, lo, hi int) {
	st := &e.shards[s]
	st.delivered, st.counted, st.incomplete = 0, 0, false
	for v := lo; v < hi; v++ {
		held := e.nodes[v].Tokens().Len()
		st.delivered += held
		if !counted(v, e.crashed, e.recoverAt) {
			continue
		}
		st.counted++
		if held != e.k {
			st.incomplete = true
			if !e.needDelivered {
				return
			}
		}
	}
}

// recycle returns the round's messages and payload sets to the arenas:
// nothing may retain them past the round barrier.
func (e *engine) recycle() {
	for s := range e.shards {
		e.shards[s].pool.recycle()
	}
}

// finish closes the round: it records a first completion and reports
// whether the run ends here — on completion under StopWhenComplete, on a
// stall, or when the caller's Stop hook says so.
func (e *engine) finish() bool {
	if e.done {
		if !e.met.Complete {
			e.met.Complete = true
			e.met.CompletionRound = e.r + 1
		}
		if e.opts.StopWhenComplete {
			return true
		}
	}
	return e.met.Stall != nil || e.opts.Stop != nil && e.opts.Stop(e.r)
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

// shardAcc is one shard's private slice of the round accounting: its
// senders' transmissions, its nodes' repair notes by kind, and the link
// faults of the deliveries to its receivers. Every shard owns one, so the
// accounting path allocates nothing per message in either mode.
type shardAcc struct {
	messages     int64
	tokens       int64
	bytes        int64
	msgsByKind   [NumKinds]int64
	tokensByKind [NumKinds]int64
	msgsByRole   [NumRoles]int64
	tokensByRole [NumRoles]int64
	notes        [NumNoteKinds]int
	drops, dups  int64
}

func (a *shardAcc) reset() { *a = shardAcc{} }

// charge books one transmission by a sender in the given role.
func (a *shardAcc) charge(msg *Message, role ctvg.Role, sizeFn func(*Message) int) {
	cost := int64(msg.Cost())
	a.messages++
	a.tokens += cost
	if int(msg.Kind) < NumKinds {
		a.msgsByKind[msg.Kind]++
		a.tokensByKind[msg.Kind] += cost
	}
	if sizeFn != nil {
		a.bytes += int64(sizeFn(msg))
	}
	if int(role) < NumRoles {
		a.msgsByRole[role]++
		a.tokensByRole[role] += cost
	}
}

// add folds one shard's accounting into the run totals.
func (m *Metrics) add(a *shardAcc) {
	m.Messages += a.messages
	m.TokensSent += a.tokens
	m.BytesSent += a.bytes
	m.Handovers += a.notes[NoteHandover]
	m.FloodFallbacks += a.notes[NoteFloodFallback]
	m.Drops += a.drops
	m.Dups += a.dups
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
// node ID so activation — and the Crashed list it fills — happen in
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

// minShardNodes is the fewest nodes per shard that an unset
// Options.Workers cuts. Below it the per-stage goroutine hand-off costs
// more than a second core saves. Measured on the streamed (20, 2)-HiNet,
// Alg1 over the Theorem 1 budget, with GOMAXPROCS 2 on a 2-core Xeon, two
// runs each:
//
//	n      Workers 1     Workers 2
//	1k     35–36 ms      44–45 ms
//	3k     95–99 ms      88–101 ms
//	10k    333–343 ms    261–264 ms
//	100k   3.6–3.8 s     2.2–2.5 s
//
// BenchmarkShardCrossover (root package) re-measures it at 1k, 4k, 16k and
// 100k; on the same host it put 4k at 115–119 against 116–123 ms and 16k
// at 517–565 against 383–405 ms. So 1k to 4k stay serial, and two shards
// start at 8192 nodes.
const minShardNodes = 4096

// workersFor resolves a Workers setting for a run over n nodes on procs
// CPUs. Zero chooses for the input: one shard per minShardNodes nodes, at
// most procs. A count above 1 is taken as given but clamped to n, since a
// worker without nodes would be an idle shard (and an empty accumulator
// slot) on every round barrier. Anything else runs serial.
func workersFor(workers, n, procs int) int {
	if workers == 0 {
		workers = min(procs, n/minShardNodes)
	}
	return max(1, min(workers, n))
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
