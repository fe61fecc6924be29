package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewAndBasicInvariants(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("fresh graph n=%d m=%d", g.N(), g.M())
	}
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) returned false")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate edge accepted")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop accepted")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestVertexRangePanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vertex did not panic")
		}
	}()
	g.AddEdge(0, 3)
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge existing returned false")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge absent returned true")
	}
	if g.M() != 1 || g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("RemoveEdge corrupted graph")
	}
}

func TestNeighborsSortedAndDegree(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	nb := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(nb) != 3 || g.Degree(2) != 3 {
		t.Fatalf("neighbors %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	g.RemoveEdge(0, 1)
	if g.HasEdge(1, 2) || !c.HasEdge(0, 1) {
		t.Fatal("Clone shares storage")
	}
}

func TestEdgesAndFromEdges(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("edges %v", es)
	}
	if es[0] != (Edge{0, 2}) || es[1] != (Edge{1, 3}) {
		t.Fatalf("edges not canonical: %v", es)
	}
	h := FromEdges(4, es)
	if !g.Equal(h) {
		t.Fatal("FromEdges round trip failed")
	}
}

func TestNormEdge(t *testing.T) {
	if NormEdge(5, 2) != (Edge{2, 5}) || NormEdge(2, 5) != (Edge{2, 5}) {
		t.Fatal("NormEdge wrong")
	}
}

func TestUnionIntersectSubgraph(t *testing.T) {
	a := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	b := FromEdges(4, []Edge{{1, 2}, {2, 3}})
	u := Union(a, b)
	if u.M() != 3 || !u.HasEdge(0, 1) || !u.HasEdge(2, 3) {
		t.Fatalf("union wrong: %v", u.Edges())
	}
	i := Intersect(a, b)
	if i.M() != 1 || !i.HasEdge(1, 2) {
		t.Fatalf("intersect wrong: %v", i.Edges())
	}
	if !i.IsSubgraphOf(a) || !i.IsSubgraphOf(b) || !a.IsSubgraphOf(u) {
		t.Fatal("subgraph relation wrong")
	}
	if u.IsSubgraphOf(a) {
		t.Fatal("u subgraph of a")
	}
}

func TestUnionMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Union size mismatch did not panic")
		}
	}()
	Union(New(2), New(3))
}

func TestBFSOnPath(t *testing.T) {
	g := Path(5)
	dist, parent := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d]=%d", v, dist[v])
		}
	}
	if parent[0] != -1 || parent[3] != 2 {
		t.Fatalf("parent %v", parent)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist, _ := g.BFS(0)
	if dist[2] != Inf || dist[3] != Inf || dist[1] != 1 {
		t.Fatalf("dist %v", dist)
	}
	if g.Distance(0, 3) != Inf {
		t.Fatal("Distance to unreachable not Inf")
	}
}

func TestShortestPath(t *testing.T) {
	g := Ring(6)
	p := g.ShortestPath(0, 2)
	if len(p) != 3 || p[0] != 0 || p[2] != 2 {
		t.Fatalf("path %v", p)
	}
	// Verify consecutive vertices are adjacent.
	for i := 1; i < len(p); i++ {
		if !g.HasEdge(p[i-1], p[i]) {
			t.Fatalf("path %v has non-edge", p)
		}
	}
	h := New(3)
	if h.ShortestPath(0, 2) != nil {
		t.Fatal("path in disconnected graph not nil")
	}
	self := g.ShortestPath(4, 4)
	if len(self) != 1 || self[0] != 4 {
		t.Fatalf("self path %v", self)
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs not connected")
	}
	if New(2).Connected() {
		t.Fatal("two isolated vertices connected")
	}
	if !Path(10).Connected() || !Ring(5).Connected() || !Complete(6).Connected() {
		t.Fatal("standard graphs not connected")
	}
}

func TestConnectedSubset(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	if !g.ConnectedSubset([]int{0, 2}) {
		t.Fatal("0,2 should be connected")
	}
	if g.ConnectedSubset([]int{0, 4}) {
		t.Fatal("0,4 should not be connected")
	}
	if !g.ConnectedSubset([]int{3}) || !g.ConnectedSubset(nil) {
		t.Fatal("small subsets should be vacuously connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 2)
	g.AddEdge(2, 4)
	g.AddEdge(1, 3)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components %v", comps)
	}
	want := [][]int{{0, 2, 4}, {1, 3}, {5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("components %v", comps)
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("components %v", comps)
			}
		}
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	g := Path(5)
	d, conn := g.Diameter()
	if d != 4 || !conn {
		t.Fatalf("path diameter %d conn=%v", d, conn)
	}
	ecc, all := g.Eccentricity(2)
	if ecc != 2 || !all {
		t.Fatalf("center eccentricity %d", ecc)
	}
	h := New(3)
	h.AddEdge(0, 1)
	d, conn = h.Diameter()
	if conn || d != 1 {
		t.Fatalf("disconnected diameter %d conn=%v", d, conn)
	}
}

func TestAllPairsMatchesBFS(t *testing.T) {
	rng := xrand.New(8)
	g := RandomConnected(12, 20, rng)
	ap := g.AllPairsDistances()
	for u := 0; u < g.N(); u++ {
		d, _ := g.BFS(u)
		for v := range d {
			if ap[u][v] != d[v] {
				t.Fatalf("AllPairs[%d][%d]=%d BFS=%d", u, v, ap[u][v], d[v])
			}
		}
	}
	// Symmetry.
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if ap[u][v] != ap[v][u] {
				t.Fatalf("distance asymmetric at %d,%d", u, v)
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("sets=%d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("fresh unions returned false")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union returned true")
	}
	if !uf.Same(0, 2) || uf.Same(0, 3) {
		t.Fatal("Same wrong")
	}
	if uf.Sets() != 3 {
		t.Fatalf("sets=%d want 3", uf.Sets())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := xrand.New(1)
	for _, n := range []int{1, 2, 3, 10, 50} {
		tr := RandomTree(n, rng)
		if !tr.IsTree() {
			t.Fatalf("RandomTree(%d) not a tree: m=%d conn=%v", n, tr.M(), tr.Connected())
		}
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	rng := xrand.New(2)
	g := RandomConnected(20, 40, rng)
	if g.N() != 20 || g.M() != 40 || !g.Connected() {
		t.Fatalf("RandomConnected bad: %v connected=%v", g, g.Connected())
	}
}

func TestRandomConnectedInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible RandomConnected did not panic")
		}
	}()
	RandomConnected(5, 3, xrand.New(1))
}

func TestRandomGNPExtremes(t *testing.T) {
	rng := xrand.New(3)
	if g := RandomGNP(10, 0, rng); g.M() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	if g := RandomGNP(10, 1, rng); g.M() != 45 {
		t.Fatalf("G(10,1) has %d edges", RandomGNP(10, 1, rng).M())
	}
}

func TestScriptedTopologies(t *testing.T) {
	if Path(4).M() != 3 || Ring(4).M() != 4 || Star(5, 0).M() != 4 || Complete(5).M() != 10 {
		t.Fatal("scripted topology edge counts wrong")
	}
	if Ring(2).M() != 1 {
		t.Fatal("degenerate ring wrong")
	}
	st := Star(5, 2)
	for v := 0; v < 5; v++ {
		if v != 2 && !st.HasEdge(2, v) {
			t.Fatalf("star missing spoke to %d", v)
		}
	}
}

func TestSpanningTreeSpans(t *testing.T) {
	rng := xrand.New(4)
	g := RandomConnected(15, 30, rng)
	tr := g.SpanningTree(0)
	if !tr.IsTree() || !tr.IsSubgraphOf(g) {
		t.Fatal("SpanningTree not a spanning subtree")
	}
}

func TestQuickRandomTreeAlwaysTree(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw%40)
		return RandomTree(n, xrand.New(seed)).IsTree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBFSTriangleInequality(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := RandomConnected(10, 16, rng)
		ap := g.AllPairsDistances()
		for u := 0; u < 10; u++ {
			for v := 0; v < 10; v++ {
				for w := 0; w < 10; w++ {
					if ap[u][w] > ap[u][v]+ap[v][w] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := RandomGNP(12, 0.2, rng)
		b := RandomGNP(12, 0.2, rng)
		u := Union(a, b)
		return a.IsSubgraphOf(u) && b.IsSubgraphOf(u) &&
			Intersect(a, b).IsSubgraphOf(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := RandomConnected(500, 1500, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % 500)
	}
}

func BenchmarkRandomConnected(b *testing.B) {
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomConnected(100, 200, rng)
	}
}
