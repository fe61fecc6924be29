package hinet

import (
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
)

// twoClusters builds a 7-node clustered network:
//
//	heads 0 and 4; members 1,2 -> 0 and 5 -> 4; gateway 3 joins 0 and 4
//	(path 0-3-4, so head linkage L = 2); node 6 is unaffiliated near 5.
func twoClusters() (*graph.Graph, *ctvg.Hierarchy) {
	g := graph.New(7)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	h := ctvg.NewHierarchy(7)
	h.SetHead(0)
	h.SetHead(4)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	h.SetGateway(3, 0)
	h.SetMember(5, 4)
	return g, h
}

// stableRounds repeats the two-cluster network for `rounds` rounds, adding
// a churning extra edge each round so the network is genuinely dynamic.
// Tests that break a round edit its entries before recording the lists.
func stableRounds(rounds int) ([]*graph.Graph, []*ctvg.Hierarchy) {
	snaps := make([]*graph.Graph, rounds)
	hier := make([]*ctvg.Hierarchy, rounds)
	for r := 0; r < rounds; r++ {
		g, h := twoClusters()
		// Churn: an extra edge that differs per round.
		g.AddEdge(1, 2+(r%2)*3) // 1-2 or 1-5
		snaps[r] = g
		hier[r] = h
	}
	return snaps, hier
}

// stableTrace records stableRounds unedited.
func stableTrace(rounds int) *ctvg.DeltaTrace { return ctvg.NewTrace(stableRounds(rounds)) }

func TestHeadSetStableOnStableTrace(t *testing.T) {
	tr := stableTrace(6)
	if !HeadSetStable(tr, 0, 6) {
		t.Fatal("stable head set reported unstable")
	}
}

func TestHeadSetStableDetectsChange(t *testing.T) {
	gs, hs := stableRounds(6)
	hs[3].SetHead(5) // new head appears in round 3
	tr := ctvg.NewTrace(gs, hs)
	if HeadSetStable(tr, 0, 6) {
		t.Fatal("head set change not detected")
	}
	if !HeadSetStable(tr, 0, 3) {
		t.Fatal("prefix window should still be stable")
	}
	if !HeadSetStable(tr, 4, 2) {
		t.Fatal("window after the change should be stable")
	}
	if HeadSetStable(tr, 3, 2) {
		t.Fatal("window straddling the change should be unstable")
	}
}

func TestClusterStable(t *testing.T) {
	tr := stableTrace(6)
	if !ClusterStable(tr, 0, 0, 6) || !ClusterStable(tr, 4, 0, 6) {
		t.Fatal("stable clusters reported unstable")
	}
	// Move member 5 from cluster 4 to cluster 0 in round 2 (also give it
	// the required adjacency).
	gs, hs := stableRounds(6)
	gs[2].AddEdge(0, 5)
	hs[2].SetMember(5, 0)
	tr = ctvg.NewTrace(gs, hs)
	if ClusterStable(tr, 4, 0, 6) {
		t.Fatal("cluster 4 change not detected")
	}
	if ClusterStable(tr, 0, 0, 6) {
		t.Fatal("cluster 0 change not detected")
	}
	// Cluster that never exists is vacuously stable.
	if !ClusterStable(tr, 1, 0, 6) {
		t.Fatal("nonexistent cluster should be stable")
	}
}

func TestHierarchyStable(t *testing.T) {
	tr := stableTrace(6)
	if !HierarchyStable(tr, 0, 6) {
		t.Fatal("stable hierarchy reported unstable")
	}
	gs, hs := stableRounds(6)
	gs[4].AddEdge(0, 6)
	hs[4].SetMember(6, 0)
	tr = ctvg.NewTrace(gs, hs)
	if HierarchyStable(tr, 0, 6) {
		t.Fatal("membership change not detected")
	}
}

// TestDefinitionTree checks the Fig. 2 implications: a T-interval stable
// hierarchy (Def 4) implies a T-interval stable head set (Def 2) and
// T-interval stability of every cluster (Def 3).
func TestDefinitionTree(t *testing.T) {
	tr := stableTrace(8)
	if !HierarchyStable(tr, 0, 8) {
		t.Fatal("precondition: hierarchy stable")
	}
	if !HeadSetStable(tr, 0, 8) {
		t.Fatal("Def 4 must imply Def 2")
	}
	for _, k := range tr.HierarchyAt(0).Heads() {
		if !ClusterStable(tr, k, 0, 8) {
			t.Fatalf("Def 4 must imply Def 3 for cluster %d", k)
		}
	}
	// Converse direction: stable head set alone does not imply stable
	// hierarchy (membership churn with fixed heads).
	gs, hs := stableRounds(8)
	gs[5].AddEdge(0, 6)
	hs[5].SetMember(6, 0)
	tr2 := ctvg.NewTrace(gs, hs)
	if !HeadSetStable(tr2, 0, 8) {
		t.Fatal("head set should still be stable")
	}
	if HierarchyStable(tr2, 0, 8) {
		t.Fatal("hierarchy should be unstable")
	}
}

func TestHeadSubgraphAndConnectivity(t *testing.T) {
	tr := stableTrace(6)
	upsilon, ok := HeadSubgraph(tr, 0, 6)
	if !ok {
		t.Fatal("heads should be connected via gateway 3")
	}
	// Υ must be a stable subgraph containing both heads and the gateway
	// path between them.
	if !upsilon.HasEdge(0, 3) || !upsilon.HasEdge(3, 4) {
		t.Fatalf("Υ missing backbone: %v", upsilon.Edges())
	}
	for r := 0; r < 6; r++ {
		if !upsilon.IsSubgraphOf(tr.At(r)) {
			t.Fatalf("Υ not a subgraph of round %d", r)
		}
	}
	if !HeadConnectivity(tr, 0, 6) {
		t.Fatal("HeadConnectivity false")
	}
}

func TestHeadConnectivityFailsWhenBackboneBreaks(t *testing.T) {
	gs, hs := stableRounds(6)
	// Cut the gateway-head edge in round 3; heads 0 and 4 lose their
	// stable connection over the full window. Keep member edges intact.
	gs[3].RemoveEdge(3, 4)
	tr := ctvg.NewTrace(gs, hs)
	// The hierarchy claims gateway 3 still serves cluster 0, fine.
	if HeadConnectivity(tr, 0, 6) {
		t.Fatal("broken backbone not detected")
	}
	if !HeadConnectivity(tr, 0, 3) {
		t.Fatal("prefix window should retain connectivity")
	}
}

func TestHeadConnectivityNoHeads(t *testing.T) {
	g := graph.Path(3)
	h := ctvg.NewHierarchy(3)
	tr := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	if !HeadConnectivity(tr, 0, 1) {
		t.Fatal("no heads should be vacuously connected")
	}
}

func TestHeadLinkage(t *testing.T) {
	g, h := twoClusters()
	L, ok := HeadLinkage(g, h.Heads())
	if !ok || L != 2 {
		t.Fatalf("linkage = %d, %v; want 2, true", L, ok)
	}
	// Single head: linkage 0.
	if L, ok := HeadLinkage(g, []int{0}); !ok || L != 0 {
		t.Fatalf("single head linkage = %d, %v", L, ok)
	}
	// Disconnected heads.
	g2 := graph.New(4)
	g2.AddEdge(0, 1)
	g2.AddEdge(2, 3)
	if _, ok := HeadLinkage(g2, []int{0, 2}); ok {
		t.Fatal("disconnected heads reported ok")
	}
}

func TestHeadLinkageBottleneck(t *testing.T) {
	// Three heads on a path 0-1-2-3-4 at positions 0, 2, 4: adjacent head
	// pairs are 2 hops apart, the extreme pair 4 hops. The bottleneck MST
	// uses the two 2-hop edges, so linkage is 2, not 4.
	g := graph.Path(5)
	L, ok := HeadLinkage(g, []int{0, 2, 4})
	if !ok || L != 2 {
		t.Fatalf("linkage = %d, %v; want 2", L, ok)
	}
}

func TestLHopHeadConnectivity(t *testing.T) {
	tr := stableTrace(6)
	if !LHopHeadConnectivity(tr, 0, 6, 2) {
		t.Fatal("L=2 should hold")
	}
	if !LHopHeadConnectivity(tr, 0, 6, 3) {
		t.Fatal("L=3 must hold when L=2 holds")
	}
	if LHopHeadConnectivity(tr, 0, 6, 1) {
		t.Fatal("L=1 should fail (heads are 2 hops apart)")
	}
}

func TestModelCheck(t *testing.T) {
	tr := stableTrace(12)
	m := Model{T: 4, L: 2}
	if err := m.Check(tr, 3); err != nil {
		t.Fatalf("valid HiNet rejected: %v", err)
	}
	if err := m.CheckValid(tr, 3); err != nil {
		t.Fatalf("CheckValid rejected: %v", err)
	}
}

func TestModelCheckWindowErrors(t *testing.T) {
	tr := stableTrace(8)
	if err := (Model{T: 0, L: 2}).CheckWindow(tr, 0); err == nil {
		t.Fatal("invalid model accepted")
	}
	// Instability inside the second phase.
	gs, hs := stableRounds(8)
	gs[5].AddEdge(0, 6)
	hs[5].SetMember(6, 0)
	tr = ctvg.NewTrace(gs, hs)
	m := Model{T: 4, L: 2}
	if err := m.CheckWindow(tr, 0); err != nil {
		t.Fatalf("first phase should pass: %v", err)
	}
	if err := m.CheckWindow(tr, 4); err == nil {
		t.Fatal("unstable second phase accepted")
	}
	if err := m.Check(tr, 2); err == nil {
		t.Fatal("Check missed unstable phase")
	}
}

func TestModelCheckLViolation(t *testing.T) {
	tr := stableTrace(4)
	if err := (Model{T: 4, L: 1}).Check(tr, 1); err == nil {
		t.Fatal("L=1 claim accepted on an L=2 network")
	}
}

func TestCheckValidCatchesStructuralBreakage(t *testing.T) {
	gs, hs := stableRounds(4)
	// Remove a member-head edge while the hierarchy still claims the
	// membership: structural invariant violation, caught by CheckValid
	// (plain Check does not look at member adjacency).
	gs[2].RemoveEdge(0, 1)
	tr := ctvg.NewTrace(gs, hs)
	if err := (Model{T: 4, L: 2}).CheckValid(tr, 1); err == nil {
		t.Fatal("CheckValid accepted inconsistent round")
	}
}

func TestHeadSetStableForever(t *testing.T) {
	tr := stableTrace(10)
	if !HeadSetStableForever(tr, 10) {
		t.Fatal("forever-stable head set rejected")
	}
	gs, hs := stableRounds(10)
	hs[9].SetHead(6)
	tr = ctvg.NewTrace(gs, hs)
	if HeadSetStableForever(tr, 10) {
		t.Fatal("late head change missed")
	}
}

func TestMustWindowPanics(t *testing.T) {
	tr := stableTrace(2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid window did not panic")
		}
	}()
	HeadSetStable(tr, -1, 2)
}
