package conformance

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// recordedNet freezes a HiNet adversary so causal reachability and the
// protocol run see identical snapshots.
func recordedNet(seed uint64, T int) (*ctvg.DeltaTrace, *token.Assignment) {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 30, Theta: 6, L: 2, T: T, Reaffiliations: 2, HeadChurn: 1, Heads: 4, ChurnEdges: 4,
	}, xrand.New(seed))
	tr := ctvg.Record(adv, 60)
	assign := token.Spread(30, 5, xrand.New(seed+100))
	return tr, assign
}

// TestAllProtocolsConformant holds every protocol in the repository to the
// causality/monotonicity/domain/determinism invariants.
func TestAllProtocolsConformant(t *testing.T) {
	tr, assign := recordedNet(1, 10)
	protocols := []sim.Protocol{
		core.Alg1{T: 10},
		core.Alg1{T: 10, StableHeads: true},
		core.Alg1{T: 10, Promiscuous: true},
		core.Alg1{T: 10, UploadLowFirst: true},
		core.Alg2{},
		baseline.Flood{},
		baseline.KLOT{T: 10},
	}
	for _, p := range protocols {
		if vs := Check(tr, p, assign, 60); len(vs) != 0 {
			t.Fatalf("%s: %d violations, first: %v", p.Name(), len(vs), vs[0])
		}
	}
}

// cheatProto violates causality: every node magically knows everything
// from round 0. The kit must catch it.
type cheatProto struct{}

func (cheatProto) Name() string { return "cheat" }
func (cheatProto) Nodes(a *token.Assignment) []sim.Node {
	full := bitset.New(a.K)
	for t := 0; t < a.K; t++ {
		full.Add(t)
	}
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		nodes[v] = &cheatNode{ta: full.Clone()}
	}
	return nodes
}

type cheatNode struct{ ta *bitset.Set }

func (c *cheatNode) Send(v *sim.View) *sim.Message            { return nil }
func (c *cheatNode) Deliver(v *sim.View, msgs []*sim.Message) {}
func (c *cheatNode) Tokens() *bitset.Set                      { return c.ta }

func TestKitCatchesCausalityCheat(t *testing.T) {
	tr, assign := recordedNet(2, 10)
	vs := Check(tr, cheatProto{}, assign, 10)
	if len(vs) == 0 {
		t.Fatal("causality cheat not caught")
	}
}

// shrinkProto violates monotonicity: it forgets tokens after round 3.
type shrinkProto struct{}

func (shrinkProto) Name() string { return "shrink" }
func (shrinkProto) Nodes(a *token.Assignment) []sim.Node {
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		nodes[v] = &shrinkNode{ta: a.Initial[v].Clone()}
	}
	return nodes
}

type shrinkNode struct{ ta *bitset.Set }

func (s *shrinkNode) Send(v *sim.View) *sim.Message {
	return &sim.Message{To: sim.NoAddr, Kind: sim.KindBroadcast, Tokens: s.ta.Clone()}
}
func (s *shrinkNode) Deliver(v *sim.View, msgs []*sim.Message) {
	for _, m := range msgs {
		s.ta.UnionWith(m.Tokens)
	}
	if v.Round == 3 {
		s.ta.Clear()
	}
}
func (s *shrinkNode) Tokens() *bitset.Set { return s.ta }

func TestKitCatchesShrinkage(t *testing.T) {
	tr, assign := recordedNet(3, 10)
	vs := Check(tr, shrinkProto{}, assign, 10)
	if len(vs) == 0 {
		t.Fatal("shrinkage not caught")
	}
}

// rogueProto violates domain safety: it invents token k.
type rogueProto struct{}

func (rogueProto) Name() string { return "rogue" }
func (rogueProto) Nodes(a *token.Assignment) []sim.Node {
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		ta := a.Initial[v].Clone()
		ta.Add(a.K) // out of domain
		nodes[v] = &cheatNode{ta: ta}
	}
	return nodes
}

func TestKitCatchesDomainViolation(t *testing.T) {
	tr, assign := recordedNet(4, 10)
	vs := Check(tr, rogueProto{}, assign, 5)
	if len(vs) == 0 {
		t.Fatal("domain violation not caught")
	}
}

// headWriterProto violates the read-only View: from round 2 every node
// points its View at itself as head, which would leave the engine's frozen
// view wrong for the rest of the stability window.
type headWriterProto struct{}

func (headWriterProto) Name() string { return "head-writer" }
func (headWriterProto) Nodes(a *token.Assignment) []sim.Node {
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		nodes[v] = &headWriterNode{cheatNode{ta: a.Initial[v].Clone()}, v}
	}
	return nodes
}

type headWriterNode struct {
	cheatNode
	id int
}

func (h *headWriterNode) Send(v *sim.View) *sim.Message {
	if v.Round >= 2 {
		v.Head = h.id
	}
	return nil
}

func TestKitCatchesViewWrite(t *testing.T) {
	tr, assign := recordedNet(5, 10)
	vs := Check(tr, headWriterProto{}, assign, 4)
	if len(vs) == 0 {
		t.Fatal("a Send that rewrites its View was not caught")
	}
	for _, vio := range vs {
		if vio.Round < 2 || !strings.HasPrefix(vio.Desc, "Send wrote its View") {
			t.Fatalf("unexpected violation %v", vio)
		}
	}
}

// kindFlipProto is deterministic in everything but message kinds: its
// first set of nodes broadcasts, and every later set relays the same
// tokens to the same neighbours. Only Metrics.MessagesByKind and
// TokensByKind tell the audited run from its replay.
type kindFlipProto struct{ calls *int }

func (kindFlipProto) Name() string { return "kind-flip" }
func (p kindFlipProto) Nodes(a *token.Assignment) []sim.Node {
	kind := sim.KindBroadcast
	if *p.calls > 0 {
		kind = sim.KindRelay
	}
	*p.calls++
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		nodes[v] = &kindFlipNode{shrinkNode{ta: a.Initial[v].Clone()}, kind}
	}
	return nodes
}

type kindFlipNode struct {
	shrinkNode
	kind sim.MsgKind
}

func (k *kindFlipNode) Send(v *sim.View) *sim.Message {
	return &sim.Message{To: sim.NoAddr, Kind: k.kind, Tokens: k.ta.Clone()}
}
func (k *kindFlipNode) Deliver(v *sim.View, msgs []*sim.Message) {
	for _, m := range msgs {
		k.ta.UnionWith(m.Tokens)
	}
}

// TestKitCatchesNondeterministicKinds is the determinism check's
// regression: a replay that matches the audited run in TokensSent,
// Messages, CompletionRound and every final token set, and differs only
// in the per-kind counts, must be reported.
func TestKitCatchesNondeterministicKinds(t *testing.T) {
	tr, assign := recordedNet(6, 10)
	vs := Check(tr, kindFlipProto{calls: new(int)}, assign, 10)
	if len(vs) != 1 || vs[0].Round != -1 || !strings.HasPrefix(vs[0].Desc, "nondeterministic metrics") {
		t.Fatalf("violations %v, want one nondeterministic-metrics report", vs)
	}
}

// lateProto breaks the idle promise: its nodes idle until round 3, then
// broadcast although no wake event happened. On a static flat network
// the engine never wakes them, so only a run that calls every Send sees
// the broadcasts.
type lateProto struct{}

func (lateProto) Name() string { return "late" }
func (lateProto) Nodes(a *token.Assignment) []sim.Node {
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		nodes[v] = &lateNode{kindFlipNode{shrinkNode{ta: a.Initial[v].Clone()}, sim.KindBroadcast}}
	}
	return nodes
}

type lateNode struct{ kindFlipNode }

func (l *lateNode) Send(v *sim.View) *sim.Message {
	if v.Round < 3 {
		v.Idle()
		return nil
	}
	return l.kindFlipNode.Send(v)
}

// TestKitCatchesBrokenIdlePromise: the first broadcast, node 0's at round
// 3, is where the two runs part, and the tokens it spreads leave the
// final sets apart too.
func TestKitCatchesBrokenIdlePromise(t *testing.T) {
	const n = 6
	d := sim.NewFlat(tvg.Static{G: graph.Ring(n)})
	vs := Check(d, lateProto{}, token.SingleSource(n, 1, 0), 6)
	if len(vs) == 0 {
		t.Fatal("a node that idles and later sends was not caught")
	}
	if v := vs[0]; v.Round != 3 || v.Node != 0 || !strings.Contains(v.Desc, "broke the idle promise") {
		t.Fatalf("first violation %v, want node 0's broadcast at round 3", v)
	}
	for _, v := range vs[1:] {
		if v.Round != -1 || !strings.Contains(v.Desc, "broke the idle promise: final tokens") {
			t.Fatalf("unexpected violation %v", v)
		}
	}
}

// tallyProto breaks the idle promise's delivery clause: node 0 floods
// its token every round, and every other node idles, counts the messages
// it hears and, after its next wake, sends the count as its payload. Once
// the run is complete the engine hands an idle node no deliveries, so
// only a run that calls every Deliver counts the later floods.
type tallyProto struct{}

func (tallyProto) Name() string { return "tally" }
func (tallyProto) Nodes(a *token.Assignment) []sim.Node {
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		c := cheatNode{ta: a.Initial[v].Clone()}
		if v == 0 {
			nodes[v] = &sourceNode{c}
		} else {
			nodes[v] = &tallyNode{cheatNode: c}
		}
	}
	return nodes
}

// sourceNode broadcasts its token set every round and ignores what it
// hears.
type sourceNode struct{ cheatNode }

func (s *sourceNode) Send(v *sim.View) *sim.Message {
	return &sim.Message{To: sim.NoAddr, Kind: sim.KindBroadcast, Tokens: s.ta.Clone()}
}

type tallyNode struct {
	cheatNode
	heard   int
	started bool
	role    ctvg.Role
	head    int
}

func (n *tallyNode) Send(v *sim.View) *sim.Message {
	woke := n.started && (v.Role != n.role || v.Head != n.head)
	n.started, n.role, n.head = true, v.Role, v.Head
	if !woke {
		v.Idle()
		return nil
	}
	count := bitset.New(n.heard + 1)
	count.Add(n.heard)
	return &sim.Message{To: sim.NoAddr, Kind: sim.KindRelay, Tokens: count}
}

func (n *tallyNode) Deliver(v *sim.View, msgs []*sim.Message) {
	n.heard += len(msgs)
	for _, m := range msgs {
		if m.Kind == sim.KindBroadcast {
			n.ta.UnionWith(m.Tokens)
		}
	}
}

// TestKitCatchesIdleNodeCountingDeliveries: node 0's first flood completes
// the run at round 0, and every other node turns member at round 4, which
// wakes it. Node 1's count, 1 in the replay and 4 with every Deliver
// called, is where the two runs part.
func TestKitCatchesIdleNodeCountingDeliveries(t *testing.T) {
	const n, rounds = 5, 6
	flat, star := ctvg.NewHierarchy(n), ctvg.NewHierarchy(n)
	star.SetHead(0)
	for v := 1; v < n; v++ {
		star.SetMember(v, 0)
	}
	graphs := make([]*graph.Graph, rounds)
	hiers := make([]*ctvg.Hierarchy, rounds)
	for r := range graphs {
		graphs[r], hiers[r] = graph.Complete(n), flat
		if r >= 4 {
			hiers[r] = star
		}
	}
	d := ctvg.NewTrace(graphs, hiers)
	vs := Check(d, tallyProto{}, token.SingleSource(n, 1, 0), rounds)
	if len(vs) != 1 {
		t.Fatalf("violations %v, want one report of node 1's count", vs)
	}
	if v := vs[0]; v.Round != 4 || v.Node != 1 || !strings.Contains(v.Desc, "broke the idle promise") {
		t.Fatalf("violation %v, want node 1's count at round 4", v)
	}
}

// loudRogueProto broadcasts every round while holding the out-of-domain
// token k, so every node that hears anything reports one violation per
// round.
type loudRogueProto struct{}

func (loudRogueProto) Name() string { return "loud-rogue" }
func (loudRogueProto) Nodes(a *token.Assignment) []sim.Node {
	nodes := make([]sim.Node, a.N())
	for v := range nodes {
		ta := a.Initial[v].Clone()
		ta.Add(a.K)
		nodes[v] = &loudRogueNode{cheatNode{ta: ta}}
	}
	return nodes
}

type loudRogueNode struct{ cheatNode }

func (r *loudRogueNode) Send(v *sim.View) *sim.Message {
	m := v.NewMessage()
	m.To, m.Kind, m.Tokens = sim.NoAddr, sim.KindBroadcast, v.NewSet()
	return m
}

// TestKitOnShardedScale audits a star of 8192 nodes, two shards' worth
// for an engine left to choose its shard count. Every node reports from
// Deliver on every round, and the report must keep each violation, in the
// serial run's (round, node) order.
func TestKitOnShardedScale(t *testing.T) {
	const n, rounds = 8192, 3
	d := sim.NewFlat(tvg.Static{G: graph.Star(n, 0)})
	vs := Check(d, loudRogueProto{}, token.SingleSource(n, 1, 0), rounds)
	if len(vs) != n*rounds {
		t.Fatalf("%d violations, want one per node per round (%d)", len(vs), n*rounds)
	}
	for i := 1; i < len(vs); i++ {
		a, b := vs[i-1], vs[i]
		if b.Round < a.Round || b.Round == a.Round && b.Node <= a.Node {
			t.Fatalf("violation %d (%v) follows %v: not in (round, node) order", i, b, a)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Round: 3, Node: 7, Desc: "x"}
	if v.String() != "round 3 node 7: x" {
		t.Fatalf("got %q", v.String())
	}
}
