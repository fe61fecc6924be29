package graph

import (
	"testing"

	"repro/internal/xrand"
)

// incrementalFromEdges is the pre-CSR reference construction: one AddEdge per
// edge on a thawed graph.
func incrementalFromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

func TestBuilderMatchesIncremental(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		nedges := rng.Intn(3 * n)
		edges := make([]Edge, 0, nedges)
		bd := NewBuilder(n)
		for i := 0; i < nedges; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			edges = append(edges, Edge{u, v})
			bd.Add(u, v)
		}
		want := incrementalFromEdges(n, edges)
		got := bd.Build()
		if !got.Equal(want) {
			t.Fatalf("trial %d: builder %v != incremental %v", trial, got, want)
		}
		if !got.Frozen() {
			t.Fatalf("trial %d: Build returned a non-frozen graph", trial)
		}
		if got.M() != want.M() {
			t.Fatalf("trial %d: M mismatch %d != %d", trial, got.M(), want.M())
		}
	}
}

func TestBuilderDropsSelfLoopsAndDuplicates(t *testing.T) {
	bd := NewBuilder(4)
	bd.Add(0, 1)
	bd.Add(1, 0) // duplicate, reversed
	bd.Add(2, 2) // self-loop
	bd.Add(0, 1) // duplicate
	bd.Add(3, 1)
	g := bd.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 3) || g.HasEdge(2, 2) {
		t.Fatalf("wrong edge set: %v", g.Edges())
	}
}

func TestBuilderReuse(t *testing.T) {
	bd := NewBuilder(3)
	bd.Add(0, 1)
	g1 := bd.Build()
	bd.Add(1, 2)
	g2 := bd.Build()
	if g1.M() != 1 || !g1.HasEdge(0, 1) {
		t.Fatalf("first build wrong: %v", g1.Edges())
	}
	if g2.M() != 1 || !g2.HasEdge(1, 2) || g2.HasEdge(0, 1) {
		t.Fatalf("reused build leaked state: %v", g2.Edges())
	}
}

func TestBuilderAddPanics(t *testing.T) {
	bd := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	bd.Add(0, 2)
}

func TestFrozenCloneCopyOnWrite(t *testing.T) {
	g := FromEdgeList(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if !g.Frozen() {
		t.Fatal("FromEdgeList did not freeze")
	}
	c := g.Clone()
	if !c.Frozen() {
		t.Fatal("Clone of frozen graph should stay frozen")
	}
	// Mutating the clone must not be visible through the original (they
	// share the CSR backing until the first write).
	c.AddEdge(0, 3)
	if c.Frozen() {
		t.Fatal("mutated clone still reports frozen")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("clone mutation leaked into the frozen original")
	}
	c.RemoveEdge(1, 2)
	if !g.HasEdge(1, 2) {
		t.Fatal("clone removal leaked into the frozen original")
	}
	if got, want := g.M(), 3; got != want {
		t.Fatalf("original M = %d, want %d", got, want)
	}
	if got, want := c.M(), 3; got != want {
		t.Fatalf("clone M = %d, want %d", got, want)
	}
}

func TestFrozenMutateThenCloneIndependent(t *testing.T) {
	g := FromEdgeList(3, []Edge{{0, 1}})
	g.AddEdge(1, 2) // thaws g
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("thawed graphs still share storage after Clone")
	}
}

// TestGeneratorsRNGStreamUnchanged locks the exact RNG consumption of the
// random generators: the same seed must keep yielding the same graph that
// the incremental (pre-CSR) implementations produced.
func TestGeneratorsRNGStreamUnchanged(t *testing.T) {
	// Reference implementations, verbatim from the pre-Builder versions.
	refTree := func(n int, rng *xrand.Rand) *Graph {
		g := New(n)
		if n == 1 {
			return g
		}
		visited := make([]bool, n)
		cur := rng.Intn(n)
		visited[cur] = true
		remaining := n - 1
		for remaining > 0 {
			next := rng.Intn(n)
			if next == cur {
				continue
			}
			if !visited[next] {
				g.AddEdge(cur, next)
				visited[next] = true
				remaining--
			}
			cur = next
		}
		return g
	}
	refConnected := func(n, m int, rng *xrand.Rand) *Graph {
		g := refTree(n, rng)
		for g.M() < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		return g
	}
	refGNP := func(n int, p float64, rng *xrand.Rand) *Graph {
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Prob(p) {
					g.AddEdge(u, v)
				}
			}
		}
		return g
	}
	for seed := uint64(1); seed <= 5; seed++ {
		if got, want := RandomTree(30, xrand.New(seed)), refTree(30, xrand.New(seed)); !got.Equal(want) {
			t.Fatalf("seed %d: RandomTree diverged from incremental reference", seed)
		}
		if got, want := RandomConnected(25, 60, xrand.New(seed)), refConnected(25, 60, xrand.New(seed)); !got.Equal(want) {
			t.Fatalf("seed %d: RandomConnected diverged from incremental reference", seed)
		}
		if got, want := RandomConnected(25, 24, xrand.New(seed)), refConnected(25, 24, xrand.New(seed)); !got.Equal(want) {
			t.Fatalf("seed %d: RandomConnected(n, n-1) diverged from incremental reference", seed)
		}
		if got, want := RandomGNP(25, 0.2, xrand.New(seed)), refGNP(25, 0.2, xrand.New(seed)); !got.Equal(want) {
			t.Fatalf("seed %d: RandomGNP diverged from incremental reference", seed)
		}
	}
	// Post-generator rng state must match too (same number of draws), with
	// extra edges and as a bare spanning tree.
	for _, m := range []int{40, 19} {
		a, b := xrand.New(9), xrand.New(9)
		RandomConnected(20, m, a)
		refConnected(20, m, b)
		if a.Intn(1<<30) != b.Intn(1<<30) {
			t.Fatalf("RandomConnected(20, %d) consumed a different number of rng draws", m)
		}
	}
}

// TestBuildIntoRecycles rebuilds random edge sets into one recycled graph:
// each result equals Build's, a DeepClone taken before a rebuild keeps its
// edges, and a warm build allocates nothing.
func TestBuildIntoRecycles(t *testing.T) {
	rng := xrand.New(23)
	const n = 60
	bd, ref := NewBuilder(n), NewBuilder(n)
	dst := &Graph{}
	fill := func() {
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			bd.Add(u, v)
			ref.Add(u, v)
		}
	}
	for trial := 0; trial < 20; trial++ {
		fill()
		got := bd.BuildInto(dst)
		want := ref.Build()
		if got != dst || !got.Equal(want) || !got.Frozen() {
			t.Fatalf("trial %d: BuildInto differs from Build", trial)
		}
		kept, keptWant := got.DeepClone(), want
		fill()
		bd.BuildInto(dst)
		ref.Build()
		if !kept.Equal(keptWant) || !kept.Frozen() {
			t.Fatalf("trial %d: a DeepClone changed when its source was rebuilt", trial)
		}
	}
	// The same edge count every time, so the backing never grows.
	edges := make([]Edge, 2*n)
	for i := range edges {
		edges[i] = Edge{rng.Intn(n), rng.Intn(n)}
	}
	if got := testing.AllocsPerRun(20, func() {
		for _, e := range edges {
			bd.Add(e.U, e.V)
		}
		bd.BuildInto(dst)
	}); got != 0 {
		t.Fatalf("a warm BuildInto allocates %v times, want 0", got)
	}
}
