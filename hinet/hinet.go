// Package hinet is the public API of the (T, L)-HiNet reproduction: a
// library for studying communication-efficient k-token dissemination in
// dynamic networks with cluster-based hierarchies (Yang, Wu, Chen, Zhang —
// "Efficient Information Dissemination in Dynamic Networks", ICPP 2013).
//
// The library bundles four layers:
//
//   - dynamic networks: generators realising the paper's dynamics models
//     (1-interval connected, T-interval connected, (T, L)-HiNet) plus a
//     mobility-driven network (random waypoint + unit-disk radio +
//     incremental clustering);
//   - protocols: the paper's hierarchical Algorithms 1 and 2 (with the
//     Remark 1 optimisation) and the flat Kuhn–Lynch–Oshman baselines;
//   - a synchronous round engine with token-level cost accounting;
//   - model checkers for the paper's Definitions 2–8 and the closed-form
//     cost model of its Tables 2 and 3.
//
// A minimal run:
//
//	net := hinet.NewHiNetNetwork(hinet.HiNetConfig{
//		N: 100, Theta: 30, L: 2, T: 18, Reaffiliations: 3, ChurnEdges: 10,
//	}, 42)
//	tokens := hinet.SpreadTokens(100, 8, 43)
//	res, err := hinet.Run(net, hinet.Algorithm1(18), tokens, hinet.RunOptions{
//		MaxRounds: 126, StopWhenComplete: true,
//	})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res)
package hinet

import (
	"repro/internal/adversary"
	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/geom"
	hinetmodel "repro/internal/hinet"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// --- re-exported model types ---

// Role is a node's cluster status (head, gateway, member, unaffiliated).
type Role = ctvg.Role

// Role values.
const (
	Member       = ctvg.Member
	Head         = ctvg.Head
	Gateway      = ctvg.Gateway
	Unaffiliated = ctvg.Unaffiliated
)

// Hierarchy is the cluster structure of one round.
type Hierarchy = ctvg.Hierarchy

// Network is a dynamic network with per-round cluster hierarchy (the CTVG
// of the paper's Definition 1).
type Network = ctvg.Dynamic

// Protocol is a dissemination protocol runnable by the engine.
type Protocol = sim.Protocol

// The following aliases form the protocol-author surface: implement
// ProtocolNode (plus a Protocol constructor) to run your own dissemination
// strategy on every network and harness in this library, then hold it to
// CheckConformance.

// ProtocolNode is the per-node state machine interface (see sim.Node). On
// a sharded run, which networks of 8192 nodes or more get by default, Send
// and Deliver of different nodes run concurrently: a node may write only
// its own state. RunOptions.Workers: 1 keeps a run serial.
type ProtocolNode = sim.Node

// Message is one transmission (see sim.Message).
type Message = sim.Message

// NodeView is a node's per-round local view (see sim.View). Send and
// Deliver get a pointer into engine storage: read it during the call,
// never write it, and never keep it past the call. Round is the current
// round in every call. A Send that returns nil may call Idle to promise
// that its Send would keep returning nil and leave the node's state as it
// is until the node's Role or Head changes, or the engine calls Inject,
// Collect or OnRecover on it; until then the engine skips its Send. The
// promise also says that a Deliver that teaches the node no token does not
// change what its Send returns after the wake: once every node holds every
// token the engine skips an idle node's Deliver too, unless a tracer, loss
// or duplication counts deliveries (see sim.View.Idle). On a hand-built
// NodeView Idle does nothing.
type NodeView = sim.View

// TokenSet is the dense token-set type protocols exchange.
type TokenSet = bitset.Set

// Message kinds and the broadcast address.
const (
	NoAddr        = sim.NoAddr
	KindBroadcast = sim.KindBroadcast
	KindUpload    = sim.KindUpload
	KindRelay     = sim.KindRelay
	KindCoded     = sim.KindCoded
)

// Assignment is an initial distribution of k tokens over n nodes.
type Assignment = token.Assignment

// Metrics is the accounting of one run: rounds, messages, token-sends,
// completion.
type Metrics = sim.Metrics

// Params carries the paper's Table 1 notation for the analytical model.
type Params = analysis.Params

// Cost is an analytical (time, communication) pair.
type Cost = analysis.Cost

// --- protocols ---

// Algorithm1 returns the paper's Algorithm 1 for (T, L)-HiNet networks
// with phase length T. Theorem 1: with T >= k + α·L it completes within
// Theorem1Phases(θ, α) phases.
func Algorithm1(T int) Protocol { return core.Alg1{T: T} }

// Algorithm1StableHeads returns the Remark 1 variant, valid when the head
// set never changes: members upload only during the first phase.
func Algorithm1StableHeads(T int) Protocol { return core.Alg1{T: T, StableHeads: true} }

// Algorithm2 returns the paper's Algorithm 2 for worst-case (1, L)-HiNet
// networks. Theorem 2: completes within n-1 rounds under 1-interval
// connectivity.
func Algorithm2() Protocol { return core.Alg2{} }

// FailoverConfig tunes the self-healing protocol variants; see
// core.Failover for the mechanism (heartbeats, head handover, flood
// fallback, upload retransmission).
type FailoverConfig = core.Failover

// Algorithm1Resilient returns the self-healing Algorithm 1 variant: the
// paper's protocol plus relay heartbeats, member-side head-failure
// detection with acting-head handover, flood fallback, and phase-boundary
// retransmission of unacknowledged uploads. window is the number of silent
// rounds after which a member declares its head dead (must be positive).
// Fault-free it transmits the same token payloads as Algorithm1.
func Algorithm1Resilient(T, window int) Protocol {
	return core.Alg1{T: T, Failover: &core.Failover{Window: window}}
}

// Algorithm2Resilient returns the self-healing Algorithm 2 variant:
// silence-based head-failure detection with acting-head handover and
// implicit-NACK re-uploads (a relay's full-set broadcast reveals the
// tokens it is missing). window as in Algorithm1Resilient.
func Algorithm2Resilient(window int) Protocol {
	return core.Alg2{Failover: &core.Failover{Window: window}}
}

// KLOFlood returns the flat 1-interval baseline (full-set flooding) of
// Kuhn–Lynch–Oshman.
func KLOFlood() Protocol { return baseline.Flood{} }

// KLOTInterval returns the flat T-interval pipelined baseline of
// Kuhn–Lynch–Oshman.
func KLOTInterval(T int) Protocol { return baseline.KLOT{T: T} }

// --- theorem helpers ---

// Theorem1T returns the Algorithm 1 phase length required by Theorem 1:
// k + α·L.
func Theorem1T(k, alpha, L int) int { return core.Theorem1T(k, alpha, L) }

// Theorem1Phases returns the Algorithm 1 phase budget of Theorem 1:
// ⌈θ/α⌉ + 1.
func Theorem1Phases(theta, alpha int) int { return core.Theorem1Phases(theta, alpha) }

// Theorem2Rounds returns Algorithm 2's always-sufficient budget: n - 1.
func Theorem2Rounds(n int) int { return core.Theorem2Rounds(n) }

// --- networks ---

// HiNetConfig configures the scripted (T, L)-HiNet network generator; see
// the field documentation on adversary.HiNetConfig.
type HiNetConfig = adversary.HiNetConfig

// The generators below produce their rounds once, in order; each network
// records its generator as rounds are asked for (ctvg.Recording), so it
// can be checked, probed and run, in any order and as often as needed.

// NewHiNetNetwork returns a dynamic network satisfying the (T, L)-HiNet
// model on aligned phase windows, driven by the given seed.
func NewHiNetNetwork(cfg HiNetConfig, seed uint64) Network {
	return ctvg.Recording(adversary.NewHiNet(cfg, xrand.New(seed)))
}

// NewOneIntervalNetwork returns a flat dynamic network that is 1-interval
// connected: an independent random connected graph (m edges; 0 means a
// bare spanning tree) every round.
func NewOneIntervalNetwork(n, m int, seed uint64) Network {
	return ctvg.Recording(sim.NewFlat(adversary.NewOneInterval(n, m, xrand.New(seed))))
}

// NewTIntervalNetwork returns a flat dynamic network that is T-interval
// connected on aligned windows, with `churn` extra random edges per round.
func NewTIntervalNetwork(n, T, churn int, seed uint64) Network {
	return ctvg.Recording(sim.NewFlat(adversary.NewTInterval(n, T, churn, xrand.New(seed))))
}

// MobilityConfig configures the physically-driven network; see
// adversary.MobilityConfig.
type MobilityConfig = adversary.MobilityConfig

// Field is a rectangular deployment area.
type Field = geom.Field

// ClusterConfig configures head election and gateway selection.
type ClusterConfig = cluster.Config

// NewMobilityNetwork returns a random-waypoint/unit-disk network with
// incrementally maintained clustering.
func NewMobilityNetwork(cfg MobilityConfig, seed uint64) Network {
	return ctvg.Recording(adversary.NewMobility(cfg, xrand.New(seed)))
}

// --- token assignments ---

// SpreadTokens assigns k tokens to k distinct random nodes (one each).
func SpreadTokens(n, k int, seed uint64) *Assignment {
	return token.Spread(n, k, xrand.New(seed))
}

// SingleSourceTokens assigns all k tokens to node src.
func SingleSourceTokens(n, k, src int) *Assignment {
	return token.SingleSource(n, k, src)
}

// RandomTokens assigns each token to an independently chosen random owner.
func RandomTokens(n, k int, seed uint64) *Assignment {
	return token.Random(n, k, xrand.New(seed))
}

// --- running ---

// Faults declares the failures injected into a run: message loss (i.i.d.
// or Gilbert–Elliott bursty), duplication, crash-stop, crash-recovery and
// head-targeted kills; see sim.Faults / the faults package for the model.
type Faults = sim.Faults

// BurstLoss parameterises Gilbert–Elliott bursty link loss (the
// Faults.Burst field); see faults.GilbertElliott.
type BurstLoss = faults.GilbertElliott

// StallReport is the stall watchdog's diagnostic; see sim.StallReport.
type StallReport = sim.StallReport

// RunOptions controls a run.
type RunOptions struct {
	// MaxRounds bounds the execution (required).
	MaxRounds int
	// StopWhenComplete ends the run as soon as every node holds all k
	// tokens.
	StopWhenComplete bool
	// Faults, if non-nil, injects failures (the paper assumes reliable
	// links and live nodes; this knob measures degradation beyond that
	// assumption). An invalid plan is a Run error.
	Faults *Faults
	// Workers sets within-round parallelism (see sim.Options.Workers): 0
	// cuts one shard per 4096 nodes, at most GOMAXPROCS, so networks below
	// 8192 nodes run serial; 1 keeps any run serial; a larger count is
	// taken as given. Results are bit-identical to serial runs, fault
	// injection included.
	Workers int
	// StallWindow, when positive, arms the engine's stall watchdog: a run
	// making no token progress for StallWindow consecutive rounds is
	// terminated with a diagnostic in Metrics.Stall instead of spinning to
	// MaxRounds. 0 disables it.
	StallWindow int
}

// Run executes the protocol on the network and returns the metrics. It
// fails before the first round on an invalid configuration (bad fault
// plan, non-positive MaxRounds).
func Run(net Network, p Protocol, tokens *Assignment, opts RunOptions) (*Metrics, error) {
	return sim.RunProtocol(net, p, tokens, sim.Options{
		MaxRounds:        opts.MaxRounds,
		StopWhenComplete: opts.StopWhenComplete,
		Faults:           opts.Faults,
		Workers:          opts.Workers,
		StallWindow:      opts.StallWindow,
	})
}

// MustRun is Run for call sites where a failure is a programming error: it
// panics instead of returning one.
func MustRun(net Network, p Protocol, tokens *Assignment, opts RunOptions) *Metrics {
	m, err := Run(net, p, tokens, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// --- model checking and analysis ---

// DynamicDiameter computes the Kuhn–Oshman dynamic diameter of the
// network over start rounds [0, starts), giving each causal flood a budget
// of `limit` rounds; it returns limit+1 if some flood cannot finish.
func DynamicDiameter(net Network, starts, limit int) int {
	d := tvg.DynamicDiameter(net, starts, limit)
	if d == tvg.Inf {
		return limit + 1
	}
	return d
}

// ProbeReport describes the stability model a network was observed to
// satisfy; see the field docs on the internal type.
type ProbeReport = hinetmodel.ProbeReport

// ProbeNetwork inspects rounds [0, horizon) of a network and infers its
// stability parameters: the largest stable T, the minimal L, head-set
// permanence, measured re-affiliation rate (the paper's n_r), and the
// backbone's fragility (bridge edges, cut relays).
func ProbeNetwork(net Network, horizon int) ProbeReport {
	return hinetmodel.Probe(net, horizon)
}

// Advice is a protocol-parameter recommendation derived from a probe.
type Advice struct {
	// UseAlg1 reports whether the network is stable enough for the
	// phase-based Algorithm 1; when false, fall back to Algorithm 2 with
	// Theorem2Rounds(n) as the budget.
	UseAlg1 bool
	// T is the phase length to pass to Algorithm1 (the network's full
	// observed stability window).
	T int
	// Alpha is the per-phase progress coefficient the window affords:
	// (T − k) / L.
	Alpha int
	// MaxRounds is the run budget: Theorem1Phases(heads, α)·T for
	// Algorithm 1, or n−1 for the Algorithm 2 fallback.
	MaxRounds int
}

// Advise turns a probe report into Algorithm 1 parameters for
// disseminating k tokens on the probed network. Algorithm 1 is feasible
// when the observed stability window covers k + L rounds (α >= 1); the
// advice then uses the full window as T (maximising per-phase progress)
// and the Theorem 1 phase budget with the observed head count as θ. If
// the window is too short — highly dynamic networks — the advice is
// Algorithm 2 with the Theorem 2 budget.
func Advise(rep ProbeReport, n, k int) Advice {
	if rep.Valid && rep.MinL >= 1 && rep.MaxStableT >= k+rep.MinL {
		alpha := (rep.MaxStableT - k) / rep.MinL
		heads := rep.Heads
		if heads < 1 {
			heads = 1
		}
		return Advice{
			UseAlg1:   true,
			T:         rep.MaxStableT,
			Alpha:     alpha,
			MaxRounds: Theorem1Phases(heads, alpha) * rep.MaxStableT,
		}
	}
	return Advice{MaxRounds: Theorem2Rounds(n)}
}

// CheckModel verifies that the network satisfies the (T, L)-HiNet model
// (Definition 8) over `phases` aligned windows of T rounds, including the
// per-round structural invariants. A nil error means every theorem
// hypothesis of Algorithm 1 holds on this input.
func CheckModel(net Network, T, L, phases int) error {
	return hinetmodel.Model{T: T, L: L}.CheckValid(net, phases)
}

// ConformanceViolation is one invariant breach found by CheckConformance.
type ConformanceViolation = conformance.Violation

// CheckConformance runs a protocol on a recorded network and verifies the
// model-independent safety invariants every correct dissemination protocol
// must satisfy: causal information flow, token-set monotonicity, domain
// safety, determinism, and the idle promise (NodeView.Idle). An empty
// result means conformant. Use it on
// your own Protocol implementations; every protocol shipped in this
// library passes it.
func CheckConformance(net Network, p Protocol, tokens *Assignment, rounds int) []ConformanceViolation {
	return conformance.Check(net, p, tokens, rounds)
}

// RecordNetwork freezes rounds [0, rounds) of a network into a replayable
// recording; rounds past the end repeat the last one. The networks this
// package builds can already be re-read in any order, so they need it
// only to be frozen. A Network of your own that serves its rounds only
// once, in order, needs it before CheckConformance, a checker or a second
// run. The recording is a stateful cursor: give each concurrent run its
// own.
func RecordNetwork(net Network, rounds int) Network {
	return ctvg.Record(net, rounds)
}

// AnalyticCosts evaluates the paper's Table 2 closed forms at the given
// parameters, returning the four rows' costs in paper order: KLO
// T-interval, Algorithm 1, KLO 1-interval flooding, Algorithm 2. nrT and
// nr1 are the per-row re-affiliation counts.
func AnalyticCosts(p Params, nrT, nr1 int) []Cost {
	rows := analysis.Table2(p, nrT, nr1)
	out := make([]Cost, len(rows))
	for i, r := range rows {
		out[i] = r.Cost
	}
	return out
}
