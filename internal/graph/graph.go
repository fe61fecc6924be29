// Package graph implements the static undirected graphs that underlie every
// dynamic network model in this repository.
//
// A dynamic network is a sequence of static snapshots (one per round), so
// the representation is optimised for cheap construction, cloning, and
// neighbourhood iteration. Vertices are dense integers 0..n-1, matching the
// node identifiers used by the simulator.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected simple graph on vertices 0..n-1, stored as sorted
// adjacency lists. Self-loops and parallel edges are rejected.
//
// Graphs come in two physical layouts with one logical behaviour. A graph
// assembled edge by edge (New + AddEdge) owns one slice per vertex and
// mutates freely. A graph produced by Builder.Build, FromEdgeList or
// Clone-of-frozen is frozen: its adjacency slices alias a single shared
// CSR (compressed-sparse-row) backing array, construction is O(E log E)
// instead of O(E·deg), and Clone is an O(n) header copy. Mutating a frozen
// graph is still legal — the first mutation transparently copies the
// adjacency out of the shared backing (copy-on-write), so aliased clones
// never observe each other's edits.
type Graph struct {
	n   int
	adj [][]int
	m   int
	// frozen marks adjacency slices that alias a shared CSR backing array
	// (and are therefore also shared with any frozen Clone). Mutators call
	// thaw() first; read paths never care.
	frozen bool
	// own is the storage this graph's lists were carved from and that a
	// recycling call (Builder.BuildInto, ApplyDeltaInto) may overwrite:
	// the CSR backing of a built graph, the overlay slab of a delta
	// target. Clones never inherit it.
	own []int
}

// New returns an empty graph on n vertices. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// check panics if v is not a valid vertex.
func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Frozen reports whether the graph currently shares a CSR backing array
// (see Graph). Purely informational: mutators work on frozen graphs too.
func (g *Graph) Frozen() bool { return g.frozen }

// thaw gives every vertex its own adjacency slice so mutators can edit
// without touching storage shared with frozen clones. O(n+E), paid once by
// the first mutation after Build/Clone.
func (g *Graph) thaw() {
	if !g.frozen {
		return
	}
	for v, lst := range g.adj {
		if len(lst) > 0 {
			g.adj[v] = append([]int(nil), lst...)
		} else {
			g.adj[v] = nil
		}
	}
	g.frozen, g.own = false, nil
}

// AddEdge inserts the undirected edge {u, v}. Adding an existing edge or a
// self-loop is a no-op returning false; a new edge returns true.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.thaw()
	g.insert(u, v)
	g.insert(v, u)
	g.m++
	return true
}

// insert places w into u's sorted adjacency list.
func (g *Graph) insert(u, w int) {
	lst := g.adj[u]
	i := sort.SearchInts(lst, w)
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = w
	g.adj[u] = lst
}

// RemoveEdge deletes the undirected edge {u, v}; it returns false if the
// edge was absent.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if !g.HasEdge(u, v) {
		return false
	}
	g.thaw()
	g.delete(u, v)
	g.delete(v, u)
	g.m--
	return true
}

func (g *Graph) delete(u, w int) {
	lst := g.adj[u]
	i := sort.SearchInts(lst, w)
	g.adj[u] = append(lst[:i], lst[i+1:]...)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	lst := g.adj[u]
	i := sort.SearchInts(lst, v)
	return i < len(lst) && lst[i] == v
}

// Neighbors returns u's adjacency list in ascending order. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	return g.adj[u]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Clone returns an independent copy of g. For a frozen graph this is an
// O(n) header copy sharing the immutable CSR backing — copy-on-write makes
// later mutation of either copy safe — so cloning snapshots out of a
// recorded trace costs no per-edge work.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([][]int, g.n), frozen: g.frozen}
	if g.frozen {
		copy(c.adj, g.adj)
		return c
	}
	for v, lst := range g.adj {
		c.adj[v] = append([]int(nil), lst...)
	}
	return c
}

// DeepClone returns a frozen copy of g that shares no storage with it: one
// CSR backing array holding every adjacency list. It costs O(n + E), where
// Clone of a frozen graph is an O(n) header copy sharing g's lists, so it
// is what a consumer keeps when g's storage is recycled later (a graph
// handed out by a forward-only adversary).
func (g *Graph) DeepClone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([][]int, g.n), frozen: true}
	back := make([]int, 0, 2*g.m)
	for v, lst := range g.adj {
		lo := len(back)
		back = append(back, lst...)
		c.adj[v] = back[lo:len(back):len(back)]
	}
	c.own = back
	return c
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// NormEdge returns the canonical (U < V) form of {u, v}.
func NormEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// Edges returns all edges in canonical order (sorted by U then V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u, lst := range g.adj {
		for _, v := range lst {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// FromEdges builds a graph on n vertices from an edge list. Duplicate edges
// and self-loops are ignored. The result is a frozen CSR graph (see
// FromEdgeList, of which this is an alias kept for older call sites).
func FromEdges(n int, edges []Edge) *Graph {
	return FromEdgeList(n, edges)
}

// Union returns the union of a and b (which must have equal vertex counts).
func Union(a, b *Graph) *Graph {
	if a.n != b.n {
		panic("graph: Union of graphs with different vertex counts")
	}
	bd := NewBuilder(a.n)
	for u, lst := range a.adj {
		for _, v := range lst {
			if u < v {
				bd.Add(u, v)
			}
		}
	}
	for u, lst := range b.adj {
		for _, v := range lst {
			if u < v {
				bd.Add(u, v)
			}
		}
	}
	return bd.Build()
}

// Intersect returns the intersection of a and b (equal vertex counts).
// Both adjacency lists are sorted, so each vertex's intersection is a
// linear merge — O(n+E) overall, no per-edge binary searches.
func Intersect(a, b *Graph) *Graph {
	if a.n != b.n {
		panic("graph: Intersect of graphs with different vertex counts")
	}
	bd := NewBuilder(a.n)
	for u, la := range a.adj {
		lb := b.adj[u]
		i, j := 0, 0
		for i < len(la) && j < len(lb) {
			switch {
			case la[i] < lb[j]:
				i++
			case la[i] > lb[j]:
				j++
			default:
				if u < la[i] {
					bd.Add(u, la[i])
				}
				i++
				j++
			}
		}
	}
	return bd.Build()
}

// IsSubgraphOf reports whether every edge of g is an edge of h (same vertex
// count required).
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	for u, lst := range g.adj {
		for _, v := range lst {
			if u < v && !h.HasEdge(u, v) {
				return false
			}
		}
	}
	return true
}

// Equal reports whether g and h have identical vertex and edge sets.
// Adjacency lists are sorted, so a direct slice comparison runs in O(n+m)
// with no per-edge binary searches.
func (g *Graph) Equal(h *Graph) bool {
	if g == h {
		return true
	}
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u, lst := range g.adj {
		hl := h.adj[u]
		if len(lst) != len(hl) {
			return false
		}
		for i, v := range lst {
			if v != hl[i] {
				return false
			}
		}
	}
	return true
}

// String renders a compact description, e.g. "G(n=4, m=3)".
func (g *Graph) String() string {
	return fmt.Sprintf("G(n=%d, m=%d)", g.n, g.m)
}
