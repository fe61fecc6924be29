package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/ctvg"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

func TestTheoremRoundHelpers(t *testing.T) {
	if Theorem2Rounds(100) != 99 {
		t.Fatalf("Theorem2Rounds = %d", Theorem2Rounds(100))
	}
	if Theorem3Rounds(30, 5) != 7 {
		t.Fatalf("Theorem3Rounds = %d", Theorem3Rounds(30, 5))
	}
	if Theorem4Rounds(30, 2) != 61 {
		t.Fatalf("Theorem4Rounds = %d", Theorem4Rounds(30, 2))
	}
}

func TestAlg2Name(t *testing.T) {
	if (Alg2{}).Name() != "hinet-alg2" {
		t.Fatal("name wrong")
	}
}

// oneLHiNet builds a (1, L)-HiNet adversary: the hierarchy may change
// every round (T=1), yet every round is internally clustered and connected.
func oneLHiNet(seed uint64, n, theta, L, reaffil int) *adversary.HiNet {
	return adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: theta, L: L, T: 1,
		Reaffiliations: reaffil,
		HeadChurn:      1,
		ChurnEdges:     3,
	}, xrand.New(seed))
}

func TestTheorem2CompletionWithinNMinus1(t *testing.T) {
	// Theorem 2: under 1-interval connectivity, Algorithm 2 completes
	// within n-1 rounds. The (1, L)-HiNet adversary re-shuffles the
	// hierarchy every single round.
	const n, k = 30, 5
	for seed := uint64(0); seed < 8; seed++ {
		// The adversary generates each round once, so the hypothesis check
		// and the run read a recording of it.
		rec := ctvg.Record(oneLHiNet(seed, n, 6, 2, 4), Theorem2Rounds(n))
		// Hypothesis check: every round's snapshot is connected.
		if !tvg.AlwaysConnected(rec, Theorem2Rounds(n)) {
			t.Fatalf("seed %d: adversary not 1-interval connected", seed)
		}
		assign := token.Spread(n, k, xrand.New(seed+500))
		met := sim.MustRunProtocol(rec, Alg2{}, assign,
			sim.Options{MaxRounds: Theorem2Rounds(n), StopWhenComplete: true})
		if !met.Complete {
			t.Fatalf("seed %d: incomplete within n-1 rounds: %v", seed, met)
		}
	}
}

func TestTheorem4StyleBoundWithStableHierarchy(t *testing.T) {
	// With an L-interval stable hierarchy (phases of T=L rounds),
	// Algorithm 2 completes within θ·L + 1 rounds.
	const n, k, theta, L = 40, 6, 6, 2
	for seed := uint64(0); seed < 6; seed++ {
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: L, T: L,
			Reaffiliations: 2,
			ChurnEdges:     4,
		}, xrand.New(seed))
		assign := token.Spread(n, k, xrand.New(seed+700))
		met := sim.MustRunProtocol(adv, Alg2{}, assign,
			sim.Options{MaxRounds: Theorem4Rounds(theta, L), StopWhenComplete: true})
		if !met.Complete {
			t.Fatalf("seed %d: incomplete within θL+1 rounds: %v", seed, met)
		}
	}
}

func TestAlg2MemberSendsOncePerAffiliation(t *testing.T) {
	// Static hierarchy: every member uploads exactly once, in round 0.
	g := graph.Star(4, 0)
	h := ctvg.NewHierarchy(4)
	h.SetHead(0)
	for v := 1; v < 4; v++ {
		h.SetMember(v, 0)
	}
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.Spread(4, 4, xrand.New(3))
	uploads := 0
	obs := onSent(func(r int, m *sim.Message) {
		if m.Kind == sim.KindUpload {
			uploads++
			if r != 0 {
				t.Fatalf("upload in round %d on a static hierarchy", r)
			}
		}
	})
	met := sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{MaxRounds: 6, Observer: obs})
	if !met.Complete {
		t.Fatalf("incomplete: %v", met)
	}
	if uploads != 3 {
		t.Fatalf("uploads = %d, want 3 (one per member)", uploads)
	}
}

func TestAlg2ReuploadOnHeadChange(t *testing.T) {
	// Member 2 switches from head 0 to head 1 in round 2: it must upload
	// again, to the new head.
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1)
	h1 := ctvg.NewHierarchy(3)
	h1.SetHead(0)
	h1.SetHead(1)
	h1.SetMember(2, 0)
	h2 := h1.Clone()
	h2.SetMember(2, 1)
	d := ctvg.NewTrace([]*graph.Graph{g, g, g, g}, []*ctvg.Hierarchy{h1, h1, h2, h2})
	assign := token.SingleSource(3, 2, 2)
	var uploadTargets []int
	obs := onSent(func(r int, m *sim.Message) {
		if m.Kind == sim.KindUpload {
			uploadTargets = append(uploadTargets, m.To)
		}
	})
	sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{MaxRounds: 4, Observer: obs})
	if len(uploadTargets) != 2 || uploadTargets[0] != 0 || uploadTargets[1] != 1 {
		t.Fatalf("upload targets %v, want [0 1]", uploadTargets)
	}
}

func TestAlg2RelaysBroadcastFullSetEveryRound(t *testing.T) {
	g := graph.Star(3, 0)
	h := ctvg.NewHierarchy(3)
	h.SetHead(0)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(3, 3, 0)
	headBroadcasts := 0
	obs := onSent(func(r int, m *sim.Message) {
		if m.Kind == sim.KindRelay && m.From == 0 {
			headBroadcasts++
			if m.Cost() != 3 {
				t.Fatalf("round %d: head broadcast %d tokens, want full set 3", r, m.Cost())
			}
		}
	})
	sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{MaxRounds: 4, Observer: obs})
	if headBroadcasts != 4 {
		t.Fatalf("head broadcast %d times in 4 rounds", headBroadcasts)
	}
}

func TestAlg2MemberOverhearsAnyRelay(t *testing.T) {
	// Per Fig. 5 members union in everything received from neighbours:
	// member 2 (affiliated to head 0) adjacent to gateway 1 of another
	// cluster must absorb the gateway's broadcast.
	g := graph.New(4)
	g.AddEdge(0, 2) // member edge to its head
	g.AddEdge(1, 2) // adjacency to a foreign gateway
	g.AddEdge(1, 3) // gateway's own head
	h := ctvg.NewHierarchy(4)
	h.SetHead(0)
	h.SetHead(3)
	h.SetGateway(1, 3)
	h.SetMember(2, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(4, 1, 1) // gateway holds the token
	nodes := Alg2{}.Nodes(assign)
	sim.MustRun(d, nodes, assign, sim.Options{MaxRounds: 1})
	if !nodes[2].Tokens().Contains(0) {
		t.Fatal("member did not overhear the gateway broadcast")
	}
}

func TestAlg2UnaffiliatedSilent(t *testing.T) {
	g := graph.Path(3)
	h := ctvg.NewHierarchy(3)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(3, 1, 0)
	met := sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{MaxRounds: 5})
	if met.Messages != 0 {
		t.Fatalf("unaffiliated nodes sent %d messages", met.Messages)
	}
}

func TestAlg2OnMobilityCompletes(t *testing.T) {
	cfg := adversary.MobilityConfig{
		N: 30, Field: geom.Field{W: 60, H: 60}, Radius: 18,
		MinSpeed: 0.5, MaxSpeed: 2,
		Cluster:         cluster.Config{},
		EnsureConnected: true,
	}
	for seed := uint64(0); seed < 4; seed++ {
		adv := adversary.NewMobility(cfg, xrand.New(seed))
		assign := token.Spread(cfg.N, 5, xrand.New(seed+99))
		met := sim.MustRunProtocol(adv, Alg2{}, assign,
			sim.Options{MaxRounds: 4 * cfg.N, StopWhenComplete: true})
		if !met.Complete {
			t.Fatalf("seed %d: incomplete on mobility: %v", seed, met)
		}
	}
}

func BenchmarkAlg2Table3Point(b *testing.B) {
	const n, k = 100, 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := oneLHiNet(uint64(i), n, 30, 2, 10)
		assign := token.Spread(n, k, xrand.New(uint64(i)+1))
		sim.MustRunProtocol(adv, Alg2{}, assign, sim.Options{MaxRounds: n - 1, StopWhenComplete: true})
	}
}
