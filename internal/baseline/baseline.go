// Package baseline implements the flat (cluster-free) dissemination
// algorithms of Kuhn, Lynch and Oshman (STOC 2010) that the paper compares
// against.
//
//   - Flood is the 1-interval connected baseline: every node broadcasts its
//     entire token set in every round. Under 1-interval connectivity all
//     nodes hold all k tokens after n-1 rounds; the paper's Table 2 charges
//     it (n0-1)·n0·k token-sends.
//   - KLOT is the T-interval connected protocol: execution is divided into
//     phases of T rounds; in every round each node broadcasts the smallest
//     token it has not yet broadcast in the current phase. The stable
//     spanning subgraph of each phase pipelines tokens T-k hops per phase,
//     so ⌈n0/(T-k)⌉ phases suffice; the paper charges it
//     ⌈n0/(2α)⌉·n0·k token-sends for T = k + α·L.
//
// Both protocols ignore the cluster hierarchy entirely — they run on the
// sim.Flat adapter or directly on clustered networks (the roles are simply
// not consulted).
package baseline

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/sim"
	"repro/internal/token"
)

// Flood is the KLO/O'Dell 1-interval baseline: full-set flooding.
type Flood struct{}

// Name implements sim.Protocol.
func (Flood) Name() string { return "klo-flood" }

// Nodes implements sim.Protocol.
func (Flood) Nodes(assign *token.Assignment) []sim.Node {
	w := words(assign.K)
	slab := make([]floodNode, assign.N())
	buf := make([]uint64, w*len(slab))
	nodes := make([]sim.Node, len(slab))
	for v := range slab {
		slab[v].ta = bitset.Within(buf[w*v : w*(v+1)])
		slab[v].ta.CopyFrom(assign.Initial[v])
		nodes[v] = &slab[v]
	}
	return nodes
}

// words is the number of 64-bit words a set of k tokens fills.
func words(k int) int { return (k + 63) / 64 }

// FloodRounds is the completion bound under 1-interval connectivity: n-1.
func FloodRounds(n int) int { return n - 1 }

type floodNode struct {
	ta bitset.Set
}

func (n *floodNode) Send(v *sim.View) *sim.Message {
	payload := v.NewSet()
	payload.CopyFrom(&n.ta)
	m := v.NewMessage()
	m.To = sim.NoAddr
	m.Kind = sim.KindBroadcast
	m.Tokens = payload
	return m
}

func (n *floodNode) Deliver(v *sim.View, msgs []*sim.Message) {
	for _, m := range msgs {
		n.ta.UnionWith(m.Tokens)
	}
}

func (n *floodNode) Tokens() *bitset.Set { return &n.ta }

// Inject implements sim.Injector: the next broadcast carries the arrival.
func (n *floodNode) Inject(r, tok int) { n.ta.Add(tok) }

// Collect implements sim.Collectible.
func (n *floodNode) Collect(gc *bitset.Set) {
	n.ta.DifferenceWith(gc)
}

// KLOT is the KLO T-interval connected protocol (token pipelining).
type KLOT struct {
	// T is the phase length in rounds; correctness under T-interval
	// connectivity requires T > k.
	T int
}

// Name implements sim.Protocol.
func (p KLOT) Name() string { return fmt.Sprintf("klo-tinterval(T=%d)", p.T) }

// Nodes implements sim.Protocol.
func (p KLOT) Nodes(assign *token.Assignment) []sim.Node {
	if p.T <= 0 {
		panic("baseline: KLOT requires T > 0")
	}
	w := words(assign.K)
	slab := make([]klotNode, assign.N())
	buf := make([]uint64, 2*w*len(slab))
	nodes := make([]sim.Node, len(slab))
	for v := range slab {
		sets := buf[2*w*v : 2*w*(v+1)]
		slab[v] = klotNode{
			T:  p.T,
			ta: bitset.Within(sets[:w]),
			ts: bitset.Within(sets[w:]),
		}
		slab[v].ta.CopyFrom(assign.Initial[v])
		nodes[v] = &slab[v]
	}
	return nodes
}

// KLOTPhases returns the phase count sufficient under T-interval
// connectivity with T = k + progress: ⌈n/progress⌉ where progress = T - k
// is the per-phase pipelining distance. For the paper's parameterisation
// T = k + α·L this is ⌈n/(α·L)⌉, matching Table 2's time formula.
func KLOTPhases(n, T, k int) int {
	progress := T - k
	if progress <= 0 {
		panic("baseline: KLOT needs T > k for guaranteed progress")
	}
	return (n + progress - 1) / progress
}

type klotNode struct {
	T  int
	ta bitset.Set
	ts bitset.Set // tokens broadcast in the current phase
}

func (n *klotNode) Send(v *sim.View) *sim.Message {
	if v.Round%n.T == 0 {
		n.ts.Clear()
	}
	t := n.ta.MinNotIn(&n.ts)
	if t < 0 {
		return nil
	}
	n.ts.Add(t)
	payload := v.NewSet()
	payload.Add(t)
	m := v.NewMessage()
	m.To = sim.NoAddr
	m.Kind = sim.KindBroadcast
	m.Tokens = payload
	return m
}

func (n *klotNode) Deliver(v *sim.View, msgs []*sim.Message) {
	for _, m := range msgs {
		n.ta.UnionWith(m.Tokens)
	}
}

func (n *klotNode) Tokens() *bitset.Set { return &n.ta }

// Inject implements sim.Injector.
func (n *klotNode) Inject(r, tok int) {
	n.ta.Add(tok)
}

// Collect implements sim.Collectible. The sent-set is purged too: a stale
// ts bit on a reused slot would make MinNotIn skip the new token for the
// rest of the phase.
func (n *klotNode) Collect(gc *bitset.Set) {
	n.ta.DifferenceWith(gc)
	n.ts.DifferenceWith(gc)
}

var (
	_ sim.Protocol = Flood{}
	_ sim.Protocol = KLOT{}
)
