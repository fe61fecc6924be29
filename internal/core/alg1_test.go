package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/hinet"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// onSent returns an observer that calls f for every transmission of each
// round, in ascending sender order.
func onSent(f func(r int, m *sim.Message)) sim.Observer {
	return func(rd *sim.Round) {
		for _, m := range rd.Outbox {
			if m != nil {
				f(rd.R, m)
			}
		}
	}
}

func TestTheorem1Helpers(t *testing.T) {
	if Theorem1T(8, 5, 2) != 18 {
		t.Fatalf("Theorem1T = %d", Theorem1T(8, 5, 2))
	}
	if Theorem1Phases(30, 5) != 7 {
		t.Fatalf("Theorem1Phases = %d", Theorem1Phases(30, 5))
	}
	if Theorem1Phases(31, 5) != 8 {
		t.Fatalf("Theorem1Phases(31,5) = %d", Theorem1Phases(31, 5))
	}
	if Remark1Phases(10, 3) != 5 {
		t.Fatalf("Remark1Phases = %d", Remark1Phases(10, 3))
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ceilDiv(1, 0)
}

func TestAlg1RequiresPositiveT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Alg1{}.Nodes(token.SingleSource(3, 1, 0))
}

func TestAlg1Name(t *testing.T) {
	if (Alg1{T: 5}).Name() != "hinet-alg1(T=5)" {
		t.Fatal("name wrong")
	}
	if (Alg1{T: 5, StableHeads: true}).Name() != "hinet-alg1-stable(T=5)" {
		t.Fatal("stable name wrong")
	}
}

// scriptedTwoClusters builds the Fig. 3-style scenario: member 1 holds the
// only token; it must travel 1 -> head 0 -> gateway 2 -> head 3 -> member 4.
func scriptedTwoClusters() (ctvg.Dynamic, *token.Assignment) {
	g := graph.New(5)
	g.AddEdge(0, 1) // member edge
	g.AddEdge(0, 2) // head-gateway
	g.AddEdge(2, 3) // gateway-head
	g.AddEdge(3, 4) // member edge
	h := ctvg.NewHierarchy(5)
	h.SetHead(0)
	h.SetHead(3)
	h.SetMember(1, 0)
	h.SetGateway(2, 0)
	h.SetMember(4, 3)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	return d, token.SingleSource(5, 1, 1)
}

func TestAlg1ScriptedTokenFlow(t *testing.T) {
	d, assign := scriptedTwoClusters()
	p := Alg1{T: 10}
	var uploads, relays int
	obs := onSent(func(r int, m *sim.Message) {
		switch m.Kind {
		case sim.KindUpload:
			uploads++
			if m.From != 1 || m.To != 0 {
				t.Fatalf("unexpected upload %d->%d", m.From, m.To)
			}
		case sim.KindRelay:
			relays++
		}
	})
	met := sim.MustRunProtocol(d, p, assign, sim.Options{MaxRounds: 10, StopWhenComplete: true, Observer: obs})
	if !met.Complete {
		t.Fatalf("scripted scenario incomplete: %v", met)
	}
	// Flow: round 0 upload 1->0; round 1 head 0 broadcasts (member 1 and
	// gateway 2 hear); round 2 gateway relays (head 3 hears); round 3
	// head 3 broadcasts (member 4 hears). Completion after round 4
	// at the latest (member 1's TR bookkeeping happens round 1).
	if met.CompletionRound > 5 {
		t.Fatalf("completion too slow: %v", met)
	}
	if uploads != 1 {
		t.Fatalf("uploads = %d, want exactly 1", uploads)
	}
	if relays == 0 {
		t.Fatal("no relay broadcasts observed")
	}
}

func TestAlg1MemberDoesNotReuploadKnownTokens(t *testing.T) {
	// Head 0 holds the token; member 1 receives it via TR and must never
	// upload it back.
	g := graph.Star(3, 0)
	h := ctvg.NewHierarchy(3)
	h.SetHead(0)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(3, 2, 0)
	uploads := 0
	obs := onSent(func(r int, m *sim.Message) {
		if m.Kind == sim.KindUpload {
			uploads++
		}
	})
	met := sim.MustRunProtocol(d, Alg1{T: 6}, assign, sim.Options{MaxRounds: 18, Observer: obs})
	if !met.Complete {
		t.Fatalf("incomplete: %v", met)
	}
	if uploads != 0 {
		t.Fatalf("members uploaded %d tokens the head already had", uploads)
	}
}

// runTheorem1 builds a verified (T,L)-HiNet adversary and runs Algorithm 1
// for exactly the Theorem 1 phase budget.
func runTheorem1(t *testing.T, seed uint64, cfg adversary.HiNetConfig, k, alpha int, stable bool) *sim.Metrics {
	t.Helper()
	T := Theorem1T(k, alpha, cfg.L)
	if cfg.T != T {
		t.Fatalf("test bug: adversary T=%d, theorem needs %d", cfg.T, T)
	}
	adv := adversary.NewHiNet(cfg, xrand.New(seed))
	var phases int
	if stable {
		heads := cfg.Heads
		if heads == 0 {
			heads = cfg.Theta
		}
		phases = Remark1Phases(heads, alpha)
	} else {
		phases = Theorem1Phases(cfg.Theta, alpha)
	}
	// Verify the adversary really is a (T, L)-HiNet for the whole run. The
	// adversary generates each round once, so the check and the run read
	// a recording of it.
	rec := ctvg.Record(adv, phases*T)
	if err := (hinet.Model{T: T, L: cfg.L}).CheckValid(rec, phases); err != nil {
		t.Fatalf("adversary violates model: %v", err)
	}
	assign := token.Spread(cfg.N, k, xrand.New(seed+1000))
	return sim.MustRunProtocol(rec, Alg1{T: T, StableHeads: stable}, assign,
		sim.Options{MaxRounds: phases * T, StopWhenComplete: true})
}

func TestTheorem1CompletionWithinBound(t *testing.T) {
	// Theorem 1: T >= k + α·L and M >= ⌈θ/α⌉ + 1 phases guarantee
	// completion. Exercised across seeds and parameter points, with
	// member re-affiliation churn and per-round edge churn active.
	k, alpha := 6, 2
	for seed := uint64(0); seed < 8; seed++ {
		cfg := adversary.HiNetConfig{
			N: 40, Theta: 6, L: 2,
			T:              Theorem1T(k, alpha, 2),
			Reaffiliations: 3,
			ChurnEdges:     5,
		}
		met := runTheorem1(t, seed, cfg, k, alpha, false)
		if !met.Complete {
			t.Fatalf("seed %d: incomplete within Theorem 1 bound: %v", seed, met)
		}
	}
}

func TestTheorem1L3(t *testing.T) {
	k, alpha := 4, 1
	for seed := uint64(0); seed < 4; seed++ {
		cfg := adversary.HiNetConfig{
			N: 50, Theta: 5, L: 3,
			T:              Theorem1T(k, alpha, 3),
			Reaffiliations: 2,
			ChurnEdges:     4,
		}
		met := runTheorem1(t, seed, cfg, k, alpha, false)
		if !met.Complete {
			t.Fatalf("seed %d: incomplete: %v", seed, met)
		}
	}
}

func TestTheorem1WithHeadChurn(t *testing.T) {
	// Head churn within the θ pool: Theorem 1 still applies since the
	// hierarchy is stable within each phase.
	k, alpha := 5, 2
	for seed := uint64(0); seed < 6; seed++ {
		cfg := adversary.HiNetConfig{
			N: 45, Theta: 8, Heads: 5, L: 2,
			T:              Theorem1T(k, alpha, 2),
			Reaffiliations: 2,
			HeadChurn:      1,
			ChurnEdges:     4,
		}
		met := runTheorem1(t, seed, cfg, k, alpha, false)
		if !met.Complete {
			t.Fatalf("seed %d: incomplete: %v", seed, met)
		}
	}
}

func TestRemark1StableHeadsCompletes(t *testing.T) {
	k, alpha := 6, 2
	for seed := uint64(0); seed < 6; seed++ {
		cfg := adversary.HiNetConfig{
			N: 40, Theta: 6, L: 2,
			T:              Theorem1T(k, alpha, 2),
			Reaffiliations: 3, // members still churn; heads do not
			ChurnEdges:     5,
		}
		met := runTheorem1(t, seed, cfg, k, alpha, true)
		if !met.Complete {
			t.Fatalf("seed %d: Remark 1 variant incomplete: %v", seed, met)
		}
	}
}

func TestRemark1ReducesMemberUploads(t *testing.T) {
	// The Remark 1 variant must spend strictly fewer upload tokens than
	// plain Algorithm 1 when members re-affiliate (re-affiliating members
	// re-upload their whole TA under Algorithm 1, never under Remark 1).
	k, alpha := 6, 2
	cfg := adversary.HiNetConfig{
		N: 40, Theta: 6, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 6,
		ChurnEdges:     5,
	}
	phases := Theorem1Phases(cfg.Theta, alpha)
	T := cfg.T
	run := func(stable bool) *sim.Metrics {
		adv := adversary.NewHiNet(cfg, xrand.New(42))
		assign := token.Spread(cfg.N, k, xrand.New(43))
		return sim.MustRunProtocol(adv, Alg1{T: T, StableHeads: stable}, assign,
			sim.Options{MaxRounds: phases * T})
	}
	plain := run(false)
	stable := run(true)
	if !plain.Complete || !stable.Complete {
		t.Fatalf("runs incomplete: plain=%v stable=%v", plain, stable)
	}
	up, us := plain.TokensByKind[sim.KindUpload], stable.TokensByKind[sim.KindUpload]
	if us >= up {
		t.Fatalf("Remark 1 uploads %d not below plain %d", us, up)
	}
}

func TestAlg1UnaffiliatedNodesSilent(t *testing.T) {
	g := graph.Path(3)
	h := ctvg.NewHierarchy(3) // everyone unaffiliated
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(3, 1, 0)
	met := sim.MustRunProtocol(d, Alg1{T: 4}, assign, sim.Options{MaxRounds: 8})
	if met.Messages != 0 {
		t.Fatalf("unaffiliated nodes transmitted %d messages", met.Messages)
	}
}

func TestAlg1RoleTransitionResetsState(t *testing.T) {
	// Round 0-3: node 1 is a member of head 0. Round 4+: node 1 becomes a
	// head itself (0 demoted to its member). Node 1 must start relaying
	// everything it knows, including tokens it already "sent" as a member.
	g := graph.New(2)
	g.AddEdge(0, 1)
	h1 := ctvg.NewHierarchy(2)
	h1.SetHead(0)
	h1.SetMember(1, 0)
	h2 := ctvg.NewHierarchy(2)
	h2.SetHead(1)
	h2.SetMember(0, 1)
	snaps := []*graph.Graph{g, g, g, g, g, g, g, g}
	hier := []*ctvg.Hierarchy{h1, h1, h1, h1, h2, h2, h2, h2}
	d := ctvg.NewTrace(snaps, hier)

	// Token 0 starts at node 1.
	assign := token.SingleSource(2, 1, 1)
	nodes := Alg1{T: 4}.Nodes(assign)
	met := sim.MustRun(d, nodes, assign, sim.Options{MaxRounds: 8})
	if !met.Complete {
		t.Fatalf("incomplete after role transition: %v", met)
	}
	// As a member node 1 uploaded token 0 (head 0 got it); as a head it
	// must also have broadcast at least once.
	if met.TokensByKind[sim.KindRelay] == 0 {
		t.Fatal("no relay traffic after promotion")
	}
}

func TestAlg1MemberIgnoresForeignHeads(t *testing.T) {
	// Member 2 is affiliated to head 0 but also adjacent to head 1, which
	// holds the token. Per the paper, a member receives only from its own
	// head, so node 2 must not learn the token from head 1's broadcast
	// until head 0 knows it (which never happens here: 0 and 1 are not
	// connected via any relay path).
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	h := ctvg.NewHierarchy(3)
	h.SetHead(0)
	h.SetHead(1)
	h.SetMember(2, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(3, 1, 1)
	nodes := Alg1{T: 4}.Nodes(assign)
	sim.MustRun(d, nodes, assign, sim.Options{MaxRounds: 8})
	if nodes[2].Tokens().Contains(0) {
		t.Fatal("member absorbed a broadcast from a foreign head")
	}
}

func TestAlg1RelayPipelineOrder(t *testing.T) {
	// A relay must broadcast tokens in ascending ID order within a phase
	// (min(TA \ TS) each round).
	g := graph.Star(2, 0)
	h := ctvg.NewHierarchy(2)
	h.SetHead(0)
	h.SetMember(1, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(2, 3, 0)
	var order []int
	obs := onSent(func(r int, m *sim.Message) {
		if m.Kind == sim.KindRelay && m.From == 0 {
			order = append(order, m.Tokens.Min())
		}
	})
	sim.MustRunProtocol(d, Alg1{T: 5}, assign, sim.Options{MaxRounds: 3, Observer: obs})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("relay order %v, want [0 1 2]", order)
	}
}

func TestAlg1MemberUploadsDescendingOrder(t *testing.T) {
	// A member uploads max(TA \ (TS ∪ TR)) each round: descending IDs.
	g := graph.Star(2, 0)
	h := ctvg.NewHierarchy(2)
	h.SetHead(0)
	h.SetMember(1, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(2, 3, 1)
	var order []int
	obs := onSent(func(r int, m *sim.Message) {
		if m.Kind == sim.KindUpload {
			order = append(order, m.Tokens.Min())
		}
	})
	sim.MustRunProtocol(d, Alg1{T: 8}, assign, sim.Options{MaxRounds: 3, Observer: obs})
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("upload order %v, want [2 1 0]", order)
	}
}

func BenchmarkAlg1Table3Point(b *testing.B) {
	// The Table 3 operating point: n=100, θ=30, k=8, α=5, L=2.
	k, alpha := 8, 5
	cfg := adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 3,
		ChurnEdges:     10,
	}
	T := cfg.T
	phases := Theorem1Phases(cfg.Theta, alpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewHiNet(cfg, xrand.New(uint64(i)))
		assign := token.Spread(cfg.N, k, xrand.New(uint64(i)+1))
		sim.MustRunProtocol(adv, Alg1{T: T}, assign, sim.Options{MaxRounds: phases * T})
	}
}

// Ensure bitset import is exercised for the helper (compile-time guard).
var _ = bitset.New
