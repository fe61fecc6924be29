package core

import (
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
	hinetmodel "repro/internal/hinet"
	"repro/internal/sim"
	"repro/internal/token"
)

// chainBackboneNetwork builds a static clustered network whose heads form a
// chain: heads H0..H(c-1), consecutive heads joined by one gateway (L=2),
// and one member per head. Node layout: head i = 3i, gateway after head i
// = 3i+1, member of head i = 3i+2.
func chainBackboneNetwork(c int) (ctvg.Dynamic, int) {
	n := 3 * c
	g := graph.New(n)
	h := ctvg.NewHierarchy(n)
	for i := 0; i < c; i++ {
		head := 3 * i
		member := 3*i + 2
		h.SetHead(head)
		h.SetMember(member, head)
		g.AddEdge(head, member)
		if i < c-1 {
			gw := 3*i + 1
			nextHead := 3 * (i + 1)
			g.AddEdge(head, gw)
			g.AddEdge(gw, nextHead)
			h.SetGateway(gw, head)
		} else {
			// The last gateway slot becomes a plain member so every node
			// is affiliated.
			gw := 3*i + 1
			g.AddEdge(head, gw)
			h.SetMember(gw, head)
		}
	}
	return ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h}), n
}

// TestTheorem3BoundFailsOnChainBackbones documents a REPRODUCTION FINDING:
// Theorem 3 claims that with (α·L)-interval cluster head connectivity,
// Algorithm 2 completes within ⌈θ/α⌉ + 1 rounds. On a chain backbone this
// cannot hold: Algorithm 2 moves information one hop per round along
// stable edges, so a token at one end of a θ-head chain needs Θ(θ·L)
// rounds regardless of α. The static chain network trivially satisfies
// T-interval head connectivity for every T (including α·L), machine-
// checked below, yet completion takes far longer than Theorem 3's bound —
// while Theorem 4's θ·L + 1 bound (whose proof actually tracks the
// one-hop-per-L-rounds progress) and Theorem 2's n−1 bound both hold.
func TestTheorem3BoundFailsOnChainBackbones(t *testing.T) {
	const (
		c     = 6 // heads
		alpha = 2
		L     = 2
	)
	d, n := chainBackboneNetwork(c)

	// Hypothesis check: the network has (α·L)-interval cluster head
	// connectivity with head linkage <= L (it is static, so any window
	// works) — Theorem 3's premises hold.
	m := hinetmodel.Model{T: alpha * L, L: L}
	if err := m.CheckValid(d, 3); err != nil {
		t.Fatalf("hypothesis does not hold: %v", err)
	}

	// Token at the far-end member (node 3(c-1)+2 = 17's cluster).
	assign := token.SingleSource(n, 1, 3*(c-1)+2)
	met := sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{
		MaxRounds: Theorem2Rounds(n), StopWhenComplete: true,
	})
	if !met.Complete {
		t.Fatalf("Theorem 2 bound violated too: %v", met)
	}

	bound3 := Theorem3Rounds(c, alpha) // ⌈6/2⌉+1 = 4
	bound4 := Theorem4Rounds(c, L)     // 6·2+1 = 13
	if met.CompletionRound <= bound3 {
		t.Fatalf("expected the Theorem 3 bound (%d rounds) to be beaten by the chain; completed in %d — counterexample no longer demonstrates the issue",
			bound3, met.CompletionRound)
	}
	if met.CompletionRound > bound4 {
		t.Fatalf("Theorem 4 bound (%d) violated: completed in %d", bound4, met.CompletionRound)
	}
	t.Logf("chain of %d heads: Theorem 3 bound %d, Theorem 4 bound %d, actual completion %d",
		c, bound3, bound4, met.CompletionRound)
}

// TestTheorem3HoldsOnStarBackbones shows the regime where Theorem 3's
// bound IS achievable: when the backbone has constant diameter (all heads
// within one gateway of a hub), completion is quick and sits within the
// bound for reasonable α.
func TestTheorem3HoldsOnStarBackbones(t *testing.T) {
	// Hub head 0; 5 spoke heads each joined to the hub via one gateway;
	// one member per head.
	const c = 6
	n := 1 + 2*(c-1) + c // hub + (gateway+spokeHead) each + members
	g := graph.New(n)
	h := ctvg.NewHierarchy(n)
	h.SetHead(0)
	node := 1
	var heads []int
	heads = append(heads, 0)
	for i := 0; i < c-1; i++ {
		gw, spoke := node, node+1
		node += 2
		g.AddEdge(0, gw)
		g.AddEdge(gw, spoke)
		h.SetGateway(gw, 0)
		h.SetHead(spoke)
		heads = append(heads, spoke)
	}
	for i := 0; i < c; i++ {
		member := node
		node++
		g.AddEdge(heads[i], member)
		h.SetMember(member, heads[i])
	}
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})

	assign := token.SingleSource(n, 1, n-1) // a member's token
	met := sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{
		MaxRounds: Theorem2Rounds(n), StopWhenComplete: true,
	})
	if !met.Complete {
		t.Fatalf("incomplete: %v", met)
	}
	// Star backbone diameter is 4 hops; with α=1, L=2 the Theorem 3
	// bound is θ+1 = 7 rounds, comfortably enough here.
	if bound := Theorem3Rounds(c, 1); met.CompletionRound > bound {
		t.Fatalf("completion %d exceeds Theorem 3 bound %d on a star backbone",
			met.CompletionRound, bound)
	}
}
