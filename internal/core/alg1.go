// Package core implements the paper's contribution: the hierarchical
// k-token dissemination algorithms for (T, L)-HiNet dynamic networks.
//
//   - Alg1 is Algorithm 1 (Fig. 4): M phases of T rounds; members upload
//     the max-ID token their head does not yet know, one per round;
//     heads and gateways pipeline-broadcast the min-ID token not yet sent
//     this phase. Theorem 1: with T >= k + α·L, all nodes hold all k
//     tokens after M >= θ/α + 1 phases.
//   - Alg1 with StableHeads set is the Remark 1 variant for an ∞-interval
//     stable head set: members upload only during the first phase and
//     never re-upload after re-affiliation; terminates in |V_h|/α + 1
//     phases.
//   - Alg2 is Algorithm 2 (Fig. 5) for the worst-case (1, L)-HiNet:
//     heads/gateways broadcast their entire token set every round, members
//     send their entire set only upon (re-)affiliation. Theorems 2-4 give
//     round bounds of n-1, θ/α + 1 and θ·L + 1 under increasingly strong
//     assumptions.
//   - Both algorithms accept a Failover configuration that adds the
//     self-healing paths (heartbeats, head handover, flood fallback) for
//     networks whose heads can crash; see Failover.
//
// Every node is a sim.Node state machine driven purely by its local view
// (round number, own role, current head), so the algorithms run unchanged
// on scripted HiNet adversaries and on mobility-driven hierarchies.
package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/sim"
	"repro/internal/token"
)

// Alg1 is Algorithm 1: hierarchical k-token dissemination in (T, L)-HiNet.
type Alg1 struct {
	// T is the phase length in rounds (Theorem 1 requires T >= k + α·L).
	T int
	// StableHeads enables the Remark 1 optimisation, valid when the head
	// set is ∞-interval stable: members upload only during phase 0.
	StableHeads bool
	// Failover, when non-nil, enables the self-healing variant: relay
	// heartbeats, member-side head-failure detection with handover, flood
	// fallback, and phase-boundary retransmission of unacknowledged
	// uploads (loss tolerance). See Failover for the mechanism.
	Failover *Failover
	// UploadLowFirst is an ABLATION switch, not part of the paper's
	// design: members upload the MIN-ID unknown token instead of the
	// paper's max-ID rule. The paper's choice is deliberate: heads
	// broadcast min-first, so members working max-first approach the head
	// from the opposite end of the ID space and rarely upload a token the
	// head is about to broadcast anyway. The ablation quantifies that
	// collision-avoidance (see BenchmarkAblationUploadOrder).
	UploadLowFirst bool
	// Promiscuous is an ABLATION switch, not part of the paper's design:
	// members absorb relay broadcasts from any neighbour instead of only
	// their own cluster head. The paper's pseudo code restricts members
	// to "receive t' from its cluster head"; this flag measures what that
	// restriction costs. Overhearing can only speed completion up, but it
	// is not free: TR bookkeeping still tracks only the own head's
	// broadcasts, so a token overheard from a foreign relay is in TA and
	// not in TR, and the member uploads it to its own head. Failover mode
	// implies the same absorption rule — an orphaned member's only token
	// source is a foreign relay.
	Promiscuous bool
}

// Name implements sim.Protocol.
func (p Alg1) Name() string {
	suffix := ""
	if p.Failover != nil {
		suffix = "-failover"
	}
	if p.StableHeads {
		return fmt.Sprintf("hinet-alg1-stable%s(T=%d)", suffix, p.T)
	}
	return fmt.Sprintf("hinet-alg1%s(T=%d)", suffix, p.T)
}

// Nodes implements sim.Protocol.
func (p Alg1) Nodes(assign *token.Assignment) []sim.Node {
	if p.T <= 0 {
		panic("core: Alg1 requires T > 0")
	}
	if p.Failover != nil {
		p.Failover.window() // validate up front
	}
	// One slab of node structs and one of set words: three sets of w
	// words a node, side by side.
	w := words(assign.K)
	slab := make([]alg1Node, assign.N())
	buf := make([]uint64, 3*w*len(slab))
	nodes := make([]sim.Node, len(slab))
	for v := range slab {
		sets := buf[3*w*v : 3*w*(v+1)]
		slab[v] = alg1Node{
			id:       v,
			proto:    p,
			fo:       p.Failover,
			ta:       bitset.Within(sets[:w]),
			ts:       bitset.Within(sets[w : 2*w]),
			tr:       bitset.Within(sets[2*w:]),
			lastHead: ctvg.NoCluster,
		}
		slab[v].ta.CopyFrom(assign.Initial[v])
		nodes[v] = &slab[v]
	}
	return nodes
}

// words is the number of 64-bit words a set of k tokens fills.
func words(k int) int { return (k + 63) / 64 }

// Theorem1T returns the phase length Theorem 1 requires: T = k + α·L.
func Theorem1T(k, alpha, L int) int { return k + alpha*L }

// Theorem1Phases returns the phase count Theorem 1 requires:
// M = ⌈θ/α⌉ + 1.
func Theorem1Phases(theta, alpha int) int { return ceilDiv(theta, alpha) + 1 }

// Remark1Phases returns the phase count of the Remark 1 variant:
// M = ⌈|V_h|/α⌉ + 1 where heads is the (constant) number of serving heads.
func Remark1Phases(heads, alpha int) int { return ceilDiv(heads, alpha) + 1 }

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic("core: non-positive divisor")
	}
	return (a + b - 1) / b
}

// alg1Node is the per-node state machine of Algorithm 1. The three sets
// are exactly the paper's: ta — tokens ever collected (TA); ts — tokens
// sent in the current phase (relay) or sent to the current head (member)
// (TS); tr — tokens received from the current head (TR, members only).
// The sets are held by value, so their words sit one hop from the node.
//
// The failover fields are volatile repair state: sinceHead / sinceAnyRelay
// count consecutive rounds of relay silence, acting marks a member serving
// as stand-in head, flooding marks a node that has abandoned the hierarchy.
type alg1Node struct {
	id    int
	proto Alg1
	fo    *Failover

	ta bitset.Set
	ts bitset.Set
	tr bitset.Set

	lastHead int

	// The silence counters are int32 to keep the node compact: Nodes
	// lays one node per vertex side by side in one slab.
	sinceHead     int32
	sinceAnyRelay int32
	wasRelay      bool
	started       bool
	acting        bool
	flooding      bool
}

// Send implements sim.Node.
func (n *alg1Node) Send(v *sim.View) *sim.Message {
	relay := v.Role == ctvg.Head || v.Role == ctvg.Gateway

	// Role transitions invalidate the bookkeeping sets: a promoted member
	// must re-broadcast from scratch; a demoted relay starts a fresh
	// member conversation with its head. The clustering layer outranks any
	// acting-head stand-in.
	if n.started && relay != n.wasRelay {
		n.ts.Clear()
		n.tr.Clear()
		n.lastHead = ctvg.NoCluster
		n.acting = false
	}
	n.wasRelay = relay
	n.started = true

	if n.flooding {
		return n.sendFlood(v)
	}
	if relay {
		return n.sendRelay(v)
	}
	if v.Role == ctvg.Member {
		if n.fo != nil {
			if m, handled := n.memberFailover(v); handled {
				return m
			}
		}
		if m := n.sendMember(v); m != nil {
			return m
		}
	}
	// Unaffiliated nodes are silent under Algorithm 1, and so is a member
	// with nothing to upload. Without failover or promiscuous absorption
	// both stay silent until their role or head changes: a member's
	// Deliver adds its own head's relays to TA and TR alike, so TA \ (TS ∪
	// TR) cannot grow. A relay that teaches an idle member nothing leaves
	// TS ∪ TR as it was, since TA ⊆ TS ∪ TR, and TS and TR are read only
	// as their union until a role or head change clears both (past phase
	// 0 a StableHeads member never uploads again), so such a Deliver does
	// not change what Send returns after the wake.
	if n.fo == nil && !n.proto.Promiscuous {
		v.Idle()
	}
	return nil
}

// memberFailover runs the resilient member's repair state machine before
// the normal Fig. 4 member logic. It returns handled = true when the node
// acted as a stand-in (or escalated) this round.
func (n *alg1Node) memberFailover(v *sim.View) (msg *sim.Message, handled bool) {
	if v.Head == ctvg.NoCluster {
		return nil, false
	}
	if v.Head != n.lastHead {
		// Re-affiliated by the clustering layer: the silence record is
		// about the old head and means nothing for the new one.
		n.sinceHead, n.sinceAnyRelay = 0, 0
		n.acting = false
		return nil, false
	}
	if int(n.sinceHead) >= n.fo.floodAfter() {
		n.flooding = true
		v.Note(sim.NoteFloodFallback)
		return n.sendFlood(v), true
	}
	if n.acting {
		if n.sinceHead == 0 {
			// The real head is audible again (crash-recovery): stand down
			// and re-open a fresh member conversation with it.
			n.acting = false
			n.ts.Clear()
			n.tr.Clear()
			n.lastHead = ctvg.NoCluster
			return nil, false
		}
		return n.sendRelay(v), true
	}
	if int(n.sinceHead) >= n.fo.window() && int(n.sinceAnyRelay) >= n.fo.window() {
		// The head is gone and no other relay is audible either: there is
		// nobody better placed, so serve the cluster ourselves. TS becomes
		// relay bookkeeping (tokens broadcast this phase) from here on.
		n.acting = true
		v.Note(sim.NoteHandover)
		n.ts.Clear()
		return n.sendRelay(v), true
	}
	return nil, false
}

// sendRelay implements the head/gateway side of Fig. 4: broadcast the
// min-ID token not yet sent this phase; TS is emptied at each phase
// boundary. In failover mode an idle relay broadcasts an empty heartbeat
// (cost 0) so that silence always means failure.
func (n *alg1Node) sendRelay(v *sim.View) *sim.Message {
	if v.Round%n.proto.T == 0 {
		n.ts.Clear()
	}
	t := n.ta.MinNotIn(&n.ts)
	if t < 0 {
		if n.fo == nil {
			return nil
		}
		m := v.NewMessage()
		m.To = sim.NoAddr
		m.Kind = sim.KindRelay
		m.Tokens = v.NewSet()
		return m
	}
	n.ts.Add(t)
	payload := v.NewSet()
	payload.Add(t)
	m := v.NewMessage()
	m.To = sim.NoAddr
	m.Kind = sim.KindRelay
	m.Tokens = payload
	return m
}

// sendMember implements the member side of Fig. 4: on a head change, empty
// TS and TR; then upload the max-ID token in TA \ (TS ∪ TR), one per
// round. Under StableHeads (Remark 1) uploads happen only in phase 0. In
// failover mode each phase boundary drops unacknowledged uploads from TS
// (TS ∩= TR), so a token whose upload was lost is retransmitted instead of
// being marked sent forever.
func (n *alg1Node) sendMember(v *sim.View) *sim.Message {
	if v.Head != n.lastHead {
		n.ts.Clear()
		n.tr.Clear()
		n.lastHead = v.Head
	} else if n.fo != nil && v.Round%n.proto.T == 0 {
		n.ts.IntersectWith(&n.tr)
	}
	if v.Head == ctvg.NoCluster {
		return nil
	}
	if n.proto.StableHeads && v.Round >= n.proto.T {
		return nil // Remark 1: never upload after the first phase
	}
	// TA \ (TS ∪ TR) without materialising the union.
	var t int
	if n.proto.UploadLowFirst {
		t = n.ta.MinNotInUnion(&n.ts, &n.tr)
	} else {
		t = n.ta.MaxNotInUnion(&n.ts, &n.tr)
	}
	if t < 0 {
		return nil
	}
	n.ts.Add(t)
	payload := v.NewSet()
	payload.Add(t)
	m := v.NewMessage()
	m.To = v.Head
	m.Kind = sim.KindUpload
	m.Tokens = payload
	return m
}

// sendFlood broadcasts the full token set: the KLO-flooding degradation a
// resilient node falls back to when the hierarchy around it has died.
func (n *alg1Node) sendFlood(v *sim.View) *sim.Message {
	payload := v.NewSet()
	payload.CopyFrom(&n.ta)
	m := v.NewMessage()
	m.To = sim.NoAddr
	m.Kind = sim.KindBroadcast
	m.Tokens = payload
	return m
}

// Deliver implements sim.Node.
func (n *alg1Node) Deliver(v *sim.View, msgs []*sim.Message) {
	relay := v.Role == ctvg.Head || v.Role == ctvg.Gateway
	heardHead, heardRelay, heardFlood := false, false, false
	for _, m := range msgs {
		switch {
		case relay && m.Kind == sim.KindRelay:
			// Heads and gateways absorb every relay broadcast heard:
			// this is the KLO pipelining over the head subgraph Υ.
			n.ta.UnionWith(m.Tokens)
		case relay && m.Kind == sim.KindUpload && m.To == n.id:
			// A head accepts uploads addressed to it.
			n.ta.UnionWith(m.Tokens)
		case v.Role == ctvg.Member && m.Kind == sim.KindRelay && m.From == v.Head:
			// A member receives tokens only from its own cluster head
			// ("receive t' from its cluster head").
			n.ta.UnionWith(m.Tokens)
			n.tr.UnionWith(m.Tokens)
		case v.Role == ctvg.Member && m.Kind == sim.KindRelay && (n.proto.Promiscuous || n.fo != nil):
			// Ablation / failover: overhear foreign relays too (TA only —
			// TR keeps tracking the own head so uploads stay correct).
			n.ta.UnionWith(m.Tokens)
		}
		if n.fo == nil {
			continue
		}
		switch m.Kind {
		case sim.KindRelay:
			heardRelay = true
			if m.From == v.Head {
				heardHead = true
			}
		case sim.KindBroadcast:
			// A flood: absorb it, and join it — flooding is contagious, so
			// one desperate region recruits everyone reachable from it.
			heardFlood = true
			n.ta.UnionWith(m.Tokens)
		case sim.KindUpload:
			// An acting head adopts uploads stranded on the dead head it
			// stands in for.
			if n.acting {
				n.ta.UnionWith(m.Tokens)
			}
		}
	}
	if n.fo != nil {
		if heardHead {
			n.sinceHead = 0
		} else {
			n.sinceHead++
		}
		if heardRelay {
			n.sinceAnyRelay = 0
		} else {
			n.sinceAnyRelay++
		}
		if heardFlood && !n.flooding {
			n.flooding = true
			v.Note(sim.NoteFloodFallback)
		}
	}
}

// Tokens implements sim.Node.
func (n *alg1Node) Tokens() *bitset.Set { return &n.ta }

// Inject implements sim.Injector: the arrival lands in TA like an
// originally assigned token — a member will upload it (it is in neither TS
// nor TR), a relay will pipeline it.
func (n *alg1Node) Inject(r, tok int) { n.ta.Add(tok) }

// Collect implements sim.Collectible: all three of the paper's sets are
// purged. TS/TR must not keep bits for collected slots — a stale TS or TR
// bit on a reused slot would suppress the member upload of the slot's next
// token forever.
func (n *alg1Node) Collect(gc *bitset.Set) {
	n.ta.DifferenceWith(gc)
	n.ts.DifferenceWith(gc)
	n.tr.DifferenceWith(gc)
}

// OnRecover implements sim.Recoverer: volatile protocol state — bookkeeping
// sets, affiliation, repair state — resets; the token set (stable storage)
// survives the outage. The node re-affiliates and re-uploads exactly like a
// freshly re-affiliated member (the paper's Remark 1 scenario).
func (n *alg1Node) OnRecover(int) {
	n.ts.Clear()
	n.tr.Clear()
	n.lastHead = ctvg.NoCluster
	n.wasRelay = false
	n.started = false
	n.sinceHead, n.sinceAnyRelay = 0, 0
	n.acting = false
	n.flooding = false
}

var (
	_ sim.Protocol  = Alg1{}
	_ sim.Recoverer = (*alg1Node)(nil)
)
