package hinet_test

import (
	"fmt"
	"testing"

	"repro/hinet"
)

// lazyFlood is a custom protocol built purely on the public API: each node
// broadcasts its full token set, but only when it learned something new in
// the previous round (plus round 0). It demonstrates the protocol-author
// surface: implement ProtocolNode + a Protocol constructor, then run and
// conformance-check it like the built-ins.
type lazyFlood struct{}

func (lazyFlood) Name() string { return "example-lazy-flood" }

func (lazyFlood) Nodes(a *hinet.Assignment) []hinet.ProtocolNode {
	nodes := make([]hinet.ProtocolNode, a.N())
	for v := range nodes {
		nodes[v] = &lazyNode{ta: a.Initial[v].Clone(), dirty: true}
	}
	return nodes
}

type lazyNode struct {
	ta    *hinet.TokenSet
	dirty bool
}

func (n *lazyNode) Send(v *hinet.NodeView) *hinet.Message {
	if !n.dirty {
		return nil
	}
	n.dirty = false
	return &hinet.Message{
		To:     hinet.NoAddr,
		Kind:   hinet.KindBroadcast,
		Tokens: n.ta.Clone(),
	}
}

func (n *lazyNode) Deliver(v *hinet.NodeView, msgs []*hinet.Message) {
	before := n.ta.Len()
	for _, m := range msgs {
		n.ta.UnionWith(m.Tokens)
	}
	if n.ta.Len() > before {
		n.dirty = true
	}
}

func (n *lazyNode) Tokens() *hinet.TokenSet { return n.ta }

func TestCustomProtocolThroughPublicAPI(t *testing.T) {
	const n, k = 30, 5
	// Record the network first so the conformance kit's causality check
	// sees the same snapshots as the run.
	net := hinet.RecordNetwork(hinet.NewOneIntervalNetwork(n, 2*n, 3), 3*n)
	tokens := hinet.SpreadTokens(n, k, 4)

	res := hinet.MustRun(net, lazyFlood{}, tokens, hinet.RunOptions{
		MaxRounds: 3 * n, StopWhenComplete: true,
	})
	if !res.Complete {
		t.Fatalf("lazy flood incomplete: %v", res)
	}

	if vs := hinet.CheckConformance(net, lazyFlood{}, tokens, 3*n); len(vs) != 0 {
		t.Fatalf("conformance violations: %v", vs[0])
	}

	// The point of laziness: strictly fewer messages than always-on
	// flooding over the same budget.
	eager := hinet.MustRun(net, hinet.KLOFlood(), tokens, hinet.RunOptions{MaxRounds: res.Rounds})
	if res.Messages >= eager.Messages {
		t.Fatalf("lazy (%d msgs) not below eager flooding (%d msgs)",
			res.Messages, eager.Messages)
	}
}

// ExampleCheckConformance shows the protocol-author workflow: implement a
// protocol against the public API and hold it to the safety invariants.
func ExampleCheckConformance() {
	net := hinet.RecordNetwork(hinet.NewOneIntervalNetwork(20, 40, 1), 40)
	tokens := hinet.SpreadTokens(20, 4, 2)
	violations := hinet.CheckConformance(net, lazyFlood{}, tokens, 40)
	fmt.Println("violations:", len(violations))
	// Output: violations: 0
}
