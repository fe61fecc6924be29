package graph

import "slices"

// Builder assembles a graph from a stream of edges and materialises it in
// one O(E log deg_max) pass instead of AddEdge's O(E·deg) insert-shifting.
// The result is a frozen CSR graph: one backing array holds every adjacency
// list, so a 100k-edge snapshot costs three allocations, not 2E shifted
// slice writes across n independently grown slices.
//
// Add buffers endpoints without validation beyond a range check; self-loops
// and duplicate edges are discarded during Build, matching AddEdge's
// semantics. A Builder may be reused after Build: it keeps its edge
// buffers, degree scratch and random-walk scratch, and starts empty.
type Builder struct {
	n      int
	us, vs []int32
	deg    []int  // Build's degree counts and scatter cursors
	seen   []bool // addRandomTree's visited marks
}

// NewBuilder returns a Builder for graphs on n vertices. It panics if n < 0.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Add buffers the undirected edge {u, v}. Self-loops are dropped silently
// (as AddEdge does); duplicates are deduplicated at Build time. It panics
// on an out-of-range vertex.
func (b *Builder) Add(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic("graph: Builder.Add vertex out of range")
	}
	if u == v {
		return
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// Build materialises the buffered edges as a frozen CSR graph and resets
// the builder for reuse. Construction: count degrees, prefix-sum into
// offsets, scatter both edge directions into one backing array, sort each
// vertex's run that is not already sorted, and compact out duplicates in
// place.
func (b *Builder) Build() *Graph { return b.BuildInto(nil) }

// BuildInto is Build writing into dst, a graph nothing reads any more: its
// adjacency header and the backing array it owns are reused when large
// enough, so a warm build allocates nothing. Every neighbour list dst
// handed out before, and every clone sharing them, is overwritten. A nil
// dst allocates a new graph, which is Build.
func (b *Builder) BuildInto(dst *Graph) *Graph {
	n := b.n
	g := dst
	if g == nil {
		g = &Graph{}
	}
	g.n, g.m, g.frozen = n, 0, true
	g.adj = resize(g.adj, n)
	b.deg = resize(b.deg, n+1)
	deg := b.deg
	clear(deg)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	// off[v] is the scatter cursor for v; after the scatter loop it has
	// advanced to the start of v+1's run, so off doubles as the offsets
	// array shifted by one.
	off := deg
	total := 0
	for v := 0; v <= n; v++ {
		c := off[v]
		off[v] = total
		total += c
	}
	back := resize(g.own, total)
	g.own = back
	for i := range b.us {
		u, v := int(b.us[i]), int(b.vs[i])
		back[off[u]] = v
		off[u]++
		back[off[v]] = u
		off[v]++
	}
	// off[v] now marks the END of v's run (and off[n] == total); walk the
	// runs back to front within one forward sweep using the previous end.
	w, lo := 0, 0
	for v := 0; v < n; v++ {
		hi := off[v]
		run := back[lo:hi]
		// Most runs hold one or two entries, and generators that emit
		// edges in ascending order leave longer runs sorted already.
		if !slices.IsSorted(run) {
			slices.Sort(run)
		}
		start := w
		prev := -1
		for _, x := range run {
			if x != prev {
				back[w] = x
				w++
				prev = x
			}
		}
		lo = hi
		g.adj[v] = back[start:w:w]
		g.m += w - start
	}
	g.m /= 2
	b.us, b.vs = b.us[:0], b.vs[:0]
	return g
}

// resize returns s at length n, reusing its array when it is large enough
// and allocating exactly n elements otherwise; the contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// FromEdgeList builds a frozen CSR graph on n vertices from an edge list in
// one batch pass. Duplicate edges and self-loops are ignored, matching
// FromEdges.
func FromEdgeList(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.Add(e.U, e.V)
	}
	return b.Build()
}
