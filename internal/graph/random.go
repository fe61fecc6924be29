package graph

import (
	"fmt"

	"repro/internal/xrand"
)

// This file contains the random-graph generators used by the dynamic-network
// adversaries: uniform spanning trees, connected G(n, m) graphs, G(n, p)
// graphs, and paths/rings/stars for scripted scenarios.
//
// Every generator collects its edges and materialises the graph with one
// Builder.Build pass, so construction is O(E log deg_max) rather than
// AddEdge's O(E·deg) insert-shifting. The RNG consumption of each generator
// is unchanged from the incremental versions: the same seed yields the same
// graph, edge for edge.

// addRandomTree runs the Aldous-Broder random walk on b's n vertices and
// adds every tree edge it discovers, marking visits in the builder's
// reused scratch. It consumes rng exactly as RandomTree always has.
func (b *Builder) addRandomTree(rng *xrand.Rand) {
	n := b.n
	if n < 1 {
		panic("graph: RandomTree needs n >= 1")
	}
	if n == 1 {
		return
	}
	b.seen = resize(b.seen, n)
	visited := b.seen
	clear(visited)
	cur := rng.Intn(n)
	visited[cur] = true
	remaining := n - 1
	for remaining > 0 {
		next := rng.Intn(n)
		if next == cur {
			continue
		}
		if !visited[next] {
			b.Add(cur, next)
			visited[next] = true
			remaining--
		}
		cur = next
	}
}

// RandomTree returns a uniformly random labelled spanning tree on n vertices
// generated by the Aldous-Broder random walk. n must be >= 1.
func RandomTree(n int, rng *xrand.Rand) *Graph {
	bd := NewBuilder(n)
	bd.addRandomTree(rng)
	return bd.Build()
}

// RandomConnected returns a connected random graph on n vertices with
// exactly m edges (a random spanning tree plus m-(n-1) extra uniform
// non-tree edges). It panics if m < n-1 or m exceeds the simple-graph
// maximum n(n-1)/2.
func RandomConnected(n, m int, rng *xrand.Rand) *Graph {
	return NewBuilder(n).RandomConnected(m, rng, nil)
}

// RandomConnected draws the graph the package-level RandomConnected draws on
// the builder's n vertices, consuming rng identically, and builds it into
// dst (see BuildInto; nil allocates). Edges added and not yet built are
// discarded. The builder's buffers and walk scratch are reused, so drawing
// a bare tree (m == n-1) into a recycled dst allocates nothing once warm.
func (b *Builder) RandomConnected(m int, rng *xrand.Rand, dst *Graph) *Graph {
	n := b.n
	maxM := n * (n - 1) / 2
	if n >= 1 && m < n-1 || m > maxM {
		panic(fmt.Sprintf("graph: RandomConnected(n=%d, m=%d) infeasible", n, m))
	}
	b.us, b.vs = resize(b.us, m)[:0], resize(b.vs, m)[:0]
	// Every walk edge reaches a newly visited vertex, so the tree edges
	// are distinct and a bare tree (m == n-1) needs no duplicate check.
	b.addRandomTree(rng)
	if m == n-1 {
		return b.BuildInto(dst)
	}
	// The incremental version relied on AddEdge rejecting duplicates to
	// decide when m distinct edges exist; the seen set reproduces that
	// rejection so the rng draw sequence is identical.
	seen := make(map[Edge]bool, m)
	for i := range b.us {
		seen[NormEdge(int(b.us[i]), int(b.vs[i]))] = true
	}
	for len(b.us) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if e := NormEdge(u, v); u != v && !seen[e] {
			seen[e] = true
			b.Add(u, v)
		}
	}
	return b.BuildInto(dst)
}

// RandomGNP returns an Erdős–Rényi G(n, p) graph: every possible edge is
// present independently with probability p.
func RandomGNP(n int, p float64, rng *xrand.Rand) *Graph {
	bd := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Prob(p) {
				bd.Add(u, v)
			}
		}
	}
	return bd.Build()
}

// Path returns the path graph 0-1-2-...-(n-1).
func Path(n int) *Graph {
	bd := NewBuilder(n)
	for v := 1; v < n; v++ {
		bd.Add(v-1, v)
	}
	return bd.Build()
}

// Ring returns the cycle graph on n vertices (n >= 3 for a true cycle; for
// n < 3 it degenerates to a path).
func Ring(n int) *Graph {
	bd := NewBuilder(n)
	for v := 1; v < n; v++ {
		bd.Add(v-1, v)
	}
	if n >= 3 {
		bd.Add(n-1, 0)
	}
	return bd.Build()
}

// Star returns the star graph with the given center connected to all other
// vertices.
func Star(n, center int) *Graph {
	bd := NewBuilder(n)
	for v := 0; v < n; v++ {
		if v != center {
			bd.Add(center, v)
		}
	}
	return bd.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	bd := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			bd.Add(u, v)
		}
	}
	return bd.Build()
}

// SpanningTree returns a BFS spanning tree of g's component containing
// root. If g is connected the result spans all of g.
func (g *Graph) SpanningTree(root int) *Graph {
	_, parent := g.BFS(root)
	bd := NewBuilder(g.n)
	for v, p := range parent {
		if p >= 0 {
			bd.Add(v, p)
		}
	}
	return bd.Build()
}

// IsTree reports whether g is a tree: connected with exactly n-1 edges.
func (g *Graph) IsTree() bool {
	return g.n >= 1 && g.m == g.n-1 && g.Connected()
}
