package graph

import (
	"fmt"
	"slices"
)

// Delta is the symmetric difference between two graphs on the same vertex
// set, split into the edges to insert and the edges to drop. Both lists are
// canonical (U < V), sorted by U then V, duplicate-free and disjoint, so a
// Delta can be compared, inverted and applied without normalisation passes.
//
// Deltas are the storage unit of the streamed dynamic-network
// representation: a T-stable trace keeps one O(|changes|) Delta per
// stability-window transition instead of one O(E) snapshot per window.
type Delta struct {
	Add    []Edge
	Remove []Edge
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return len(d.Add) == 0 && len(d.Remove) == 0 }

// Len returns the number of edge changes.
func (d *Delta) Len() int { return len(d.Add) + len(d.Remove) }

// Inverse returns the delta that undoes d. The edge slices are shared, not
// copied.
func (d *Delta) Inverse() *Delta { return &Delta{Add: d.Remove, Remove: d.Add} }

// SortEdges sorts edges in place into canonical Delta order (by U, then V).
// Callers assembling Delta lists by hand normalise each edge with NormEdge
// and then sort with this.
func SortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
}

// DeltaBetween returns the delta transforming a into b: applying the result
// to a yields a graph Equal to b. Both graphs must have the same vertex
// count. Runs in O(n + E_a + E_b) via per-vertex sorted-list merges.
func DeltaBetween(a, b *Graph) *Delta {
	if a.n != b.n {
		panic("graph: DeltaBetween on graphs with different vertex counts")
	}
	d := &Delta{}
	if a == b {
		return d
	}
	for u := 0; u < a.n; u++ {
		la, lb := a.adj[u], b.adj[u]
		i, j := 0, 0
		for i < len(la) || j < len(lb) {
			switch {
			case j == len(lb) || (i < len(la) && la[i] < lb[j]):
				if la[i] > u {
					d.Remove = append(d.Remove, Edge{u, la[i]})
				}
				i++
			case i == len(la) || la[i] > lb[j]:
				if lb[j] > u {
					d.Add = append(d.Add, Edge{u, lb[j]})
				}
				j++
			default:
				i++
				j++
			}
		}
	}
	return d
}

// ApplyDelta returns a new graph equal to g with the delta applied, sharing
// every untouched adjacency list with g (copy-on-write: only the endpoints
// named by the delta get fresh lists). The receiver is left unchanged but
// is marked frozen, so a later direct mutation of either graph copies
// before writing and the sharing stays invisible. Cost is O(n) for the
// header plus O(deg) per touched vertex — independent of |E| for small
// deltas.
//
// Each touched vertex gets its own freshly allocated list rather than a
// slice of one slab shared by all of them: a DeltaTrace chains ApplyDelta
// window after window, and a slab would stay live until the last of its
// lists is replaced, so retained heap would grow with every window a
// long-lived list survives. ApplyDeltaInto, whose target dies whole, uses
// a slab.
//
// The delta must be strict: adding an edge already present or removing an
// absent one panics, so edge counts stay exact.
func (g *Graph) ApplyDelta(d *Delta) *Graph { return g.ApplyDeltaInto(nil, d) }

// ApplyDeltaInto is ApplyDelta writing into dst, a graph nothing reads any
// more that shares no storage with g: its adjacency header is reused, and
// the touched vertices' lists are carved from the overlay slab it owns, so
// a warm call allocates nothing. Every neighbour list dst handed out
// before, and every clone sharing them, is overwritten. A nil dst
// allocates a new graph, which is ApplyDelta.
func (g *Graph) ApplyDeltaInto(dst *Graph, d *Delta) *Graph {
	c := dst
	if c == nil {
		c = &Graph{}
	} else if c == g {
		panic("graph: ApplyDeltaInto onto its own receiver")
	}
	c.n, c.m, c.frozen = g.n, g.m+len(d.Add)-len(d.Remove), true
	c.adj = resize(c.adj, g.n)
	c.own = c.own[:0]
	g.frozen = true
	copy(c.adj, g.adj)
	if d.Empty() {
		return c
	}

	// Flatten both directions of every change into one packed key per
	// edit, v<<33 | w<<1 | add, so sorting the keys groups the edits per
	// vertex with their neighbours ascending. Vertex IDs fit in 31 bits,
	// as Builder's int32 buffers already assume. Up to 32 changes the keys
	// live in a stack buffer.
	var buf [64]uint64
	keys := buf[:0]
	if 2*d.Len() > len(buf) {
		keys = make([]uint64, 0, 2*d.Len())
	}
	for _, e := range d.Add {
		g.check(e.U)
		g.check(e.V)
		if e.U == e.V {
			panic("graph: ApplyDelta with self-loop")
		}
		keys = append(keys, editKey(e.U, e.V, 1), editKey(e.V, e.U, 1))
	}
	for _, e := range d.Remove {
		g.check(e.U)
		g.check(e.V)
		keys = append(keys, editKey(e.U, e.V, 0), editKey(e.V, e.U, 0))
	}
	slices.Sort(keys)

	for i := 0; i < len(keys); {
		v := int(keys[i] >> 33)
		j, adds := i, 0
		for j < len(keys) && int(keys[j]>>33) == v {
			adds += int(keys[j] & 1)
			j++
		}
		// Merge v's sorted adjacency list with its sorted edit run into a
		// list of exactly the merged length; adds colliding with a present
		// neighbour and removes of an absent one panic.
		lst := g.adj[v]
		size := len(lst) + 2*adds - (j - i)
		var out []int
		if dst == nil {
			out = make([]int, 0, size)
		} else {
			out = c.carve(size)
		}
		li := 0
		for _, k := range keys[i:j] {
			w := int(uint32(k >> 1))
			for li < len(lst) && lst[li] < w {
				out = append(out, lst[li])
				li++
			}
			if k&1 == 1 {
				if li < len(lst) && lst[li] == w {
					panic(fmt.Sprintf("graph: ApplyDelta adds existing edge {%d,%d}", v, w))
				}
				out = append(out, w)
			} else {
				if li == len(lst) || lst[li] != w {
					panic(fmt.Sprintf("graph: ApplyDelta removes absent edge {%d,%d}", v, w))
				}
				li++
			}
		}
		out = append(out, lst[li:]...)
		c.adj[v] = out
		i = j
	}
	return c
}

// carve returns an empty list of capacity size from the graph's overlay
// slab. A full slab is replaced by a larger one; lists already carved keep
// the old one alive until the graph is next recycled.
func (g *Graph) carve(size int) []int {
	lo := len(g.own)
	if lo+size > cap(g.own) {
		g.own, lo = make([]int, 0, max(2*cap(g.own), 2*size, 64)), 0
	}
	g.own = g.own[:lo+size]
	return g.own[lo : lo : lo+size]
}

// editKey packs one directed half of an edge change for ApplyDelta.
func editKey(v, w int, add uint64) uint64 {
	return uint64(v)<<33 | uint64(w)<<1 | add
}

// UnapplyDelta returns a new graph equal to g with the delta undone: it
// rewinds the transition ApplyDelta performed. Same copy-on-write sharing
// and strictness as ApplyDelta.
func (g *Graph) UnapplyDelta(d *Delta) *Graph {
	return g.ApplyDelta(d.Inverse())
}
