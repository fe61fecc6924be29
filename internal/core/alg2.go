package core

import (
	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/sim"
	"repro/internal/token"
)

// Alg2 is Algorithm 2 (Fig. 5): k-token dissemination in the worst-case
// (1, L)-HiNet, where only single-round stability is guaranteed.
//
// Heads and gateways broadcast their entire token set every round; a member
// sends its entire set to its cluster head exactly once per affiliation —
// in the first round, and again whenever its cluster head changes. The
// price for tolerating single-round dynamics is that packets carry whole
// sets rather than single tokens.
type Alg2 struct {
	// Failover, when non-nil, enables the self-healing variant: members
	// detect a dead head by its silence (relays broadcast every round, so
	// Algorithm 2 needs no separate heartbeat), promote themselves to
	// acting head when nothing else is audible, and re-upload when a
	// relay's full-set broadcast reveals it is missing tokens they hold —
	// the implicit-NACK path that also repairs lost uploads. See Failover.
	Failover *Failover
}

// Name implements sim.Protocol.
func (p Alg2) Name() string {
	if p.Failover != nil {
		return "hinet-alg2-failover"
	}
	return "hinet-alg2"
}

// Nodes implements sim.Protocol.
func (p Alg2) Nodes(assign *token.Assignment) []sim.Node {
	if p.Failover != nil {
		p.Failover.window() // validate up front
	}
	w := words(assign.K)
	slab := make([]alg2Node, assign.N())
	buf := make([]uint64, w*len(slab))
	nodes := make([]sim.Node, len(slab))
	for v := range slab {
		slab[v] = alg2Node{
			id:       v,
			fo:       p.Failover,
			ta:       bitset.Within(buf[w*v : w*(v+1)]),
			lastHead: ctvg.NoCluster,
			needSend: true,
			uploadTo: ctvg.NoCluster,
		}
		slab[v].ta.CopyFrom(assign.Initial[v])
		nodes[v] = &slab[v]
	}
	return nodes
}

// Theorem2Rounds returns the always-sufficient round bound of Theorem 2:
// M = n - 1 under 1-interval connectivity.
func Theorem2Rounds(n int) int { return n - 1 }

// Theorem3Rounds returns Theorem 3's bound: M = ⌈θ/α⌉ + 1 rounds when the
// network has (α·L)-interval cluster head connectivity.
func Theorem3Rounds(theta, alpha int) int { return ceilDiv(theta, alpha) + 1 }

// Theorem4Rounds returns Theorem 4's bound: M = θ·L + 1 rounds when the
// network has an L-interval stable hierarchy.
func Theorem4Rounds(theta, L int) int { return theta*L + 1 }

// alg2Node is the per-node state machine of Algorithm 2. The failover
// fields mirror alg1Node's: silence counters, the acting-head flag, plus
// the re-upload bookkeeping (lastUpload for the implicit-NACK grace
// window, uploadTo for redirecting a repair upload to the relay that
// revealed the gap).
type alg2Node struct {
	id int
	fo *Failover

	ta       bitset.Set
	lastHead int
	needSend bool // member must (re-)send TA to its current head

	sinceHead     int32
	sinceAnyRelay int32
	acting        bool
	lastUpload    int
	uploadTo      int
}

// Send implements sim.Node.
func (n *alg2Node) Send(v *sim.View) *sim.Message {
	if v.Role == ctvg.Head || v.Role == ctvg.Gateway {
		n.acting = false
		return n.relayBroadcast(v)
	}
	if v.Role != ctvg.Member {
		n.idle(v)
		return nil
	}
	if n.fo != nil {
		if v.Head != n.lastHead {
			// Re-affiliated: the silence record is about the old head.
			n.sinceHead, n.sinceAnyRelay = 0, 0
			n.acting = false
		} else if n.acting {
			if n.sinceHead == 0 {
				// The real head is audible again (crash-recovery): stand
				// down and re-send our set to it.
				n.acting = false
				n.needSend = true
			} else {
				return n.relayBroadcast(v)
			}
		} else if v.Head != ctvg.NoCluster &&
			int(n.sinceHead) >= n.fo.window() && int(n.sinceAnyRelay) >= n.fo.window() {
			// Head dead, nothing better audible: serve the cluster. An
			// acting head's every-round full-set broadcast doubles as the
			// flood fallback, so Algorithm 2 needs no separate flood state.
			n.acting = true
			v.Note(sim.NoteHandover)
			return n.relayBroadcast(v)
		}
	}
	if v.Head != n.lastHead {
		n.lastHead = v.Head
		n.needSend = true
	}
	if !n.needSend || v.Head == ctvg.NoCluster {
		n.idle(v)
		return nil
	}
	n.needSend = false
	n.lastUpload = v.Round
	to := v.Head
	if n.uploadTo != ctvg.NoCluster {
		to = n.uploadTo
		n.uploadTo = ctvg.NoCluster
	}
	payload := v.NewSet()
	payload.CopyFrom(&n.ta)
	m := v.NewMessage()
	m.To = to
	m.Kind = sim.KindUpload
	m.Tokens = payload
	return m
}

// idle makes the promise of sim.View.Idle for a Send about to return nil
// from a member or unaffiliated node. Without failover only a head change,
// Inject or OnRecover sets needSend, and a member's Deliver touches TA
// alone, so such a node stays silent until a wake event, and a Deliver
// that teaches it no token leaves its state, and so its later Send, as it
// was.
func (n *alg2Node) idle(v *sim.View) {
	if n.fo == nil {
		v.Idle()
	}
}

// relayBroadcast is the head/gateway side of Fig. 5 (also used by acting
// heads): broadcast the entire token set. The payload is a round-scoped
// arena copy of TA, not an aliased pointer: TA keeps growing as deliveries
// come in, while the transmitted snapshot must stay frozen.
func (n *alg2Node) relayBroadcast(v *sim.View) *sim.Message {
	payload := v.NewSet()
	payload.CopyFrom(&n.ta)
	m := v.NewMessage()
	m.To = sim.NoAddr
	m.Kind = sim.KindRelay
	m.Tokens = payload
	return m
}

// Deliver implements sim.Node. Per Fig. 5 every role unions in what it
// hears from neighbours: relays accept broadcasts and uploads addressed to
// them; members accept any overheard relay broadcast. In failover mode a
// relay's full-set broadcast additionally serves as an implicit NACK: a
// member holding tokens the relay lacks schedules a re-upload (after a
// grace window, so an in-flight upload is not repeated).
func (n *alg2Node) Deliver(v *sim.View, msgs []*sim.Message) {
	relay := v.Role == ctvg.Head || v.Role == ctvg.Gateway
	heardHead, heardRelay := false, false
	for _, m := range msgs {
		switch {
		case m.Kind == sim.KindRelay:
			n.ta.UnionWith(m.Tokens)
		case relay && m.Kind == sim.KindUpload && m.To == n.id:
			n.ta.UnionWith(m.Tokens)
		case m.Kind == sim.KindUpload && n.acting:
			// An acting head adopts uploads stranded on the dead head.
			n.ta.UnionWith(m.Tokens)
		}
		if n.fo == nil || m.Kind != sim.KindRelay {
			continue
		}
		heardRelay = true
		fromHead := m.From == v.Head
		if fromHead {
			heardHead = true
		}
		if v.Role == ctvg.Member && !n.acting && !n.needSend &&
			(fromHead || int(n.sinceHead) >= n.fo.window()) &&
			v.Round-n.lastUpload >= n.fo.window() &&
			!n.ta.SubsetOf(m.Tokens) {
			n.needSend = true
			if !fromHead {
				n.uploadTo = m.From
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
	}
}

// Tokens implements sim.Node.
func (n *alg2Node) Tokens() *bitset.Set { return &n.ta }

// Inject implements sim.Injector. needSend is re-armed: an Algorithm 2
// member transmits nothing after its one per-affiliation upload, so without
// a fresh upload a token injected at an already-uploaded member would never
// reach the hierarchy.
func (n *alg2Node) Inject(r, tok int) {
	if !n.ta.Contains(tok) {
		n.ta.Add(tok)
		n.needSend = true
	}
}

// Collect implements sim.Collectible.
func (n *alg2Node) Collect(gc *bitset.Set) {
	n.ta.DifferenceWith(gc)
}

// OnRecover implements sim.Recoverer: volatile state resets, the token set
// survives, and the rejoining member re-uploads to its head — exactly the
// re-affiliation upload path of Fig. 5.
func (n *alg2Node) OnRecover(int) {
	n.lastHead = ctvg.NoCluster
	n.needSend = true
	n.sinceHead, n.sinceAnyRelay = 0, 0
	n.acting = false
	n.lastUpload = 0
	n.uploadTo = ctvg.NoCluster
}

var (
	_ sim.Protocol  = Alg2{}
	_ sim.Recoverer = (*alg2Node)(nil)
)
