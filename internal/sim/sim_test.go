package sim

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// floodNode is a minimal test protocol: broadcast the full token set every
// round and absorb everything heard.
type floodNode struct {
	ta *bitset.Set
}

func (f *floodNode) Send(v *View) *Message {
	return &Message{To: NoAddr, Kind: KindBroadcast, Tokens: f.ta.Clone()}
}

func (f *floodNode) Deliver(v *View, msgs []*Message) {
	for _, m := range msgs {
		f.ta.UnionWith(m.Tokens)
	}
}

func (f *floodNode) Tokens() *bitset.Set { return f.ta }

type floodProto struct{}

func (floodProto) Name() string { return "test-flood" }

func (floodProto) Nodes(a *token.Assignment) []Node {
	out := make([]Node, a.N())
	for v := range out {
		out[v] = &floodNode{ta: a.Initial[v].Clone()}
	}
	return out
}

// silentNode never transmits; used for negative tests.
type silentNode struct{ ta *bitset.Set }

func (s *silentNode) Send(v *View) *Message            { return nil }
func (s *silentNode) Deliver(v *View, msgs []*Message) {}
func (s *silentNode) Tokens() *bitset.Set              { return s.ta }

func staticPath(n int) ctvg.Dynamic {
	return NewFlat(tvg.Static{G: graph.Path(n)})
}

func TestFloodCompletesOnPath(t *testing.T) {
	// One token at node 0 of a 6-node path: flooding needs exactly 5
	// rounds to reach node 5.
	d := staticPath(6)
	assign := token.SingleSource(6, 1, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 20, StopWhenComplete: true})
	if !m.Complete {
		t.Fatalf("did not complete: %v", m)
	}
	if m.CompletionRound != 5 {
		t.Fatalf("completion round %d, want 5", m.CompletionRound)
	}
	if m.Rounds != 5 {
		t.Fatalf("rounds %d, want 5 with StopWhenComplete", m.Rounds)
	}
}

func TestRunContinuesWithoutStopWhenComplete(t *testing.T) {
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 10})
	if m.Rounds != 10 {
		t.Fatalf("rounds %d, want 10", m.Rounds)
	}
	if !m.Complete || m.CompletionRound != 2 {
		t.Fatalf("completion %v@%d", m.Complete, m.CompletionRound)
	}
}

func TestMetricsAccounting(t *testing.T) {
	// 3-node path, 2 tokens at node 0, run exactly 1 round: every node
	// broadcasts its TA. Costs: node0 sends 2 tokens, others send 0.
	d := staticPath(3)
	assign := token.SingleSource(3, 2, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 1})
	if m.Messages != 3 {
		t.Fatalf("messages %d, want 3", m.Messages)
	}
	if m.TokensSent != 2 {
		t.Fatalf("tokens sent %d, want 2", m.TokensSent)
	}
	if m.MessagesByKind[KindBroadcast] != 3 || m.TokensByKind[KindBroadcast] != 2 {
		t.Fatalf("per-kind accounting wrong: %v %v", m.MessagesByKind, m.TokensByKind)
	}
	if m.Complete {
		t.Fatal("cannot be complete after 1 round on a path of diameter 2")
	}
}

func TestPerRoleAccounting(t *testing.T) {
	// Star cluster: head 0 + members 1, 2 all flooding. Per-role totals
	// must attribute one message per node per round to its role.
	g := graph.Star(3, 0)
	h := ctvg.NewHierarchy(3)
	h.SetHead(0)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(3, 2, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 2})
	if m.MessagesByRole[ctvg.Head] != 2 {
		t.Fatalf("head messages %d, want 2", m.MessagesByRole[ctvg.Head])
	}
	if m.MessagesByRole[ctvg.Member] != 4 {
		t.Fatalf("member messages %d, want 4", m.MessagesByRole[ctvg.Member])
	}
	// Token attribution: round 0 head sends 2 tokens, members send 0;
	// round 1 everyone has both tokens -> head 2, members 4.
	if m.TokensByRole[ctvg.Head] != 4 {
		t.Fatalf("head tokens %d, want 4", m.TokensByRole[ctvg.Head])
	}
	if m.TokensByRole[ctvg.Member] != 4 {
		t.Fatalf("member tokens %d, want 4", m.TokensByRole[ctvg.Member])
	}
}

func TestIncompleteRun(t *testing.T) {
	d := staticPath(4)
	assign := token.SingleSource(4, 1, 0)
	nodes := make([]Node, 4)
	for v := 0; v < 4; v++ {
		nodes[v] = &silentNode{ta: assign.Initial[v].Clone()}
	}
	m := MustRun(d, nodes, assign, Options{MaxRounds: 8})
	if m.Complete || m.CompletionRound != -1 {
		t.Fatalf("silent protocol reported complete: %v", m)
	}
	if m.Messages != 0 || m.TokensSent != 0 {
		t.Fatalf("silent protocol sent messages: %v", m)
	}
}

func TestDeliverOrderAscendingSender(t *testing.T) {
	// Node 1 on a path hears 0 and 2; senders must arrive in order 0, 2.
	g := graph.Path(3)
	d := NewFlat(tvg.Static{G: g})
	assign := token.Spread(3, 3, xrand.New(7))
	var heard []int
	probe := &probeNode{ta: bitset.New(3), onDeliver: func(msgs []*Message) {
		for _, m := range msgs {
			heard = append(heard, m.From)
		}
	}}
	nodes := []Node{
		&floodNode{ta: assign.Initial[0].Clone()},
		probe,
		&floodNode{ta: assign.Initial[2].Clone()},
	}
	MustRun(d, nodes, assign, Options{MaxRounds: 1})
	if len(heard) != 2 || heard[0] != 0 || heard[1] != 2 {
		t.Fatalf("heard %v, want [0 2]", heard)
	}
}

type probeNode struct {
	ta        *bitset.Set
	onDeliver func(msgs []*Message)
}

func (p *probeNode) Send(v *View) *Message { return nil }
func (p *probeNode) Deliver(v *View, msgs []*Message) {
	p.onDeliver(msgs)
}
func (p *probeNode) Tokens() *bitset.Set { return p.ta }

func TestObserverCalled(t *testing.T) {
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	rounds, sends := 0, 0
	obs := func(rd *Round) {
		if rd.R != rounds {
			t.Fatalf("record of round %d after %d records", rd.R, rounds)
		}
		rounds++
		for _, m := range rd.Outbox {
			if m != nil {
				sends++
			}
		}
	}
	MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 2, Observer: obs})
	if rounds != 2 {
		t.Fatalf("%d round records", rounds)
	}
	if sends != 6 { // 3 nodes x 2 rounds
		t.Fatalf("%d transmissions", sends)
	}
}

func TestViewReflectsHierarchy(t *testing.T) {
	// Build a clustered dynamic and verify nodes see their role and head.
	g := graph.Star(3, 0)
	h := ctvg.NewHierarchy(3)
	h.SetHead(0)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})

	assign := token.SingleSource(3, 1, 0)
	var got []View
	nodes := make([]Node, 3)
	for v := 0; v < 3; v++ {
		nodes[v] = &viewProbe{ta: assign.Initial[v].Clone(), sink: &got}
	}
	MustRun(d, nodes, assign, Options{MaxRounds: 1})
	if len(got) != 3 {
		t.Fatalf("views %v", got)
	}
	if got[0].Role != ctvg.Head || got[0].Head != 0 {
		t.Fatalf("head view %v", got[0])
	}
	if got[1].Role != ctvg.Member || got[1].Head != 0 {
		t.Fatalf("member view %v", got[1])
	}
}

type viewProbe struct {
	ta   *bitset.Set
	sink *[]View
}

func (p *viewProbe) Send(v *View) *Message {
	*p.sink = append(*p.sink, *v)
	return nil
}
func (p *viewProbe) Deliver(v *View, msgs []*Message) {}
func (p *viewProbe) Tokens() *bitset.Set              { return p.ta }

func TestRunValidation(t *testing.T) {
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	t.Run("wrong node count", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		MustRun(d, []Node{&silentNode{ta: bitset.New(1)}}, assign, Options{MaxRounds: 1})
	})
	t.Run("zero rounds", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		MustRunProtocol(d, floodProto{}, assign, Options{})
	})
}

func TestFlatAdapter(t *testing.T) {
	f := NewFlat(tvg.Static{G: graph.Ring(4)})
	if f.N() != 4 {
		t.Fatalf("N=%d", f.N())
	}
	h := f.HierarchyAt(5)
	for v := 0; v < 4; v++ {
		if h.Role[v] != ctvg.Unaffiliated {
			t.Fatal("flat hierarchy not unaffiliated")
		}
	}
	if f.At(0).M() != 4 {
		t.Fatal("At wrong")
	}
}

func TestMessageCost(t *testing.T) {
	if (&Message{}).Cost() != 0 {
		t.Fatal("nil payload cost not 0")
	}
	m := &Message{Tokens: bitset.FromSlice([]int{1, 5, 9})}
	if m.Cost() != 3 {
		t.Fatalf("cost %d", m.Cost())
	}
	coded := &Message{Tokens: bitset.FromSlice([]int{1, 5, 9}), Units: 1}
	if coded.Cost() != 1 {
		t.Fatalf("Units override failed: cost %d", coded.Cost())
	}
}

// codedNode broadcasts its whole set every round as one KindCoded packet
// with Units 1: a stand-in for a network-coded protocol, whose packet
// carries a coefficient vector but costs one token-equivalent.
type codedNode struct{ floodNode }

func (c *codedNode) Send(v *View) *Message {
	return &Message{To: NoAddr, Kind: KindCoded, Tokens: c.ta.Clone(), Units: 1}
}

type codedProto struct{}

func (codedProto) Name() string { return "test-coded" }

func (codedProto) Nodes(a *token.Assignment) []Node {
	out := make([]Node, a.N())
	for v := range out {
		out[v] = &codedNode{floodNode{ta: a.Initial[v].Clone()}}
	}
	return out
}

func TestCodedPacketsChargedOneUnit(t *testing.T) {
	// 3-node path, 4 tokens at node 0, 2 rounds: every node sends one
	// coded packet per round. By payload size the run would cost
	// 4+0+0 + 4+4+0 = 12; charged by Units it costs one per packet.
	d := staticPath(3)
	assign := token.SingleSource(3, 4, 0)
	m := MustRunProtocol(d, codedProto{}, assign, Options{MaxRounds: 2})
	if m.Messages != 6 || m.TokensSent != 6 {
		t.Fatalf("messages %d, tokens sent %d; want 6 and 6", m.Messages, m.TokensSent)
	}
	want := [NumKinds]int64{KindCoded: 6}
	if m.MessagesByKind != want || m.TokensByKind != want {
		t.Fatalf("per-kind accounting %v %v, want %v for both", m.MessagesByKind, m.TokensByKind, want)
	}
}

func TestKindString(t *testing.T) {
	if KindBroadcast.String() != "broadcast" || KindUpload.String() != "upload" || KindRelay.String() != "relay" {
		t.Fatal("kind strings wrong")
	}
	if KindCoded.String() != "coded" {
		t.Fatal("coded kind string wrong")
	}
	if MsgKind(9).String() != "kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestMetricsString(t *testing.T) {
	m := &Metrics{Rounds: 3, Messages: 5, TokensSent: 7, Complete: true, CompletionRound: 3}
	if m.String() != "rounds=3 msgs=5 tokens=7 complete@3" {
		t.Fatalf("got %q", m.String())
	}
	m2 := &Metrics{Rounds: 3, CompletionRound: -1}
	if m2.String() != "rounds=3 msgs=0 tokens=0 incomplete" {
		t.Fatalf("got %q", m2.String())
	}
	// Byte-level accounting (Options.SizeFn runs) must show up.
	m3 := &Metrics{Rounds: 2, Messages: 4, TokensSent: 6, BytesSent: 512, CompletionRound: -1}
	if m3.String() != "rounds=2 msgs=4 tokens=6 bytes=512 incomplete" {
		t.Fatalf("got %q", m3.String())
	}
}

func TestCrashedEventsSortedAndDeterministic(t *testing.T) {
	// CrashAt is a map; activation must nevertheless list a round's
	// crashes in ascending node order, every run.
	for i := 0; i < 20; i++ {
		d := staticPath(8)
		assign := token.SingleSource(8, 1, 0)
		var got [][2]int
		obs := func(rd *Round) {
			for _, v := range rd.Crashed {
				got = append(got, [2]int{rd.R, v})
			}
		}
		MustRunProtocol(d, floodProto{}, assign, Options{
			MaxRounds: 5,
			Observer:  obs,
			Faults:    &Faults{CrashAt: map[int]int{7: 2, 3: 0, 5: 0, 6: 9}},
		})
		want := [][2]int{{0, 3}, {0, 5}, {2, 7}} // node 6 crashes beyond MaxRounds
		if len(got) != len(want) {
			t.Fatalf("crash events %v, want %v", got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("crash events %v, want %v", got, want)
			}
		}
	}
}

func BenchmarkEngineFlood(b *testing.B) {
	d := staticPath(100)
	assign := token.SingleSource(100, 8, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 99, StopWhenComplete: true})
	}
}
