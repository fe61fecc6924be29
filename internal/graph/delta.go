package graph

import (
	"fmt"
	"math"
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

// ApplyDeltaInto writes g with the delta applied into dst, a graph nothing
// reads any more that shares no storage with g, and returns dst. The
// result shares every untouched adjacency list with g (copy-on-write: only
// the endpoints named by the delta get fresh lists, carved from the
// overlay slab dst owns). g is left unchanged but is marked frozen, so a
// later direct mutation of either graph copies before writing and the
// sharing stays invisible. dst's adjacency header and slab are reused, so
// a warm call allocates nothing, and every neighbour list dst handed out
// before, and every clone sharing them, is overwritten. Cost is O(n) for
// the header plus O(deg) per touched vertex — independent of |E| for
// small deltas.
//
// The delta must be strict: adding an edge already present or removing an
// absent one panics, so edge counts stay exact.
func (g *Graph) ApplyDeltaInto(dst *Graph, d *Delta) *Graph {
	if dst == g {
		panic("graph: ApplyDeltaInto onto its own receiver")
	}
	dst.n, dst.m, dst.frozen = g.n, g.m+len(d.Add)-len(d.Remove), true
	dst.adj = resize(dst.adj, g.n)
	dst.own = dst.own[:0]
	g.frozen = true
	copy(dst.adj, g.adj)
	if d.Empty() {
		return dst
	}
	var buf [64]uint64 // up to 32 changes without touching the heap
	keys := buf[:]
	if 2*d.Len() > len(keys) {
		keys = make([]uint64, 2*d.Len())
	}
	keys = g.editKeys(keys, d)
	for i := 0; i < len(keys); {
		v, j, size := g.editRun(keys, i)
		dst.adj[v] = mergeEdits(dst.carve(size), g.adj[v], v, keys[i:j])
		i = j
	}
	return dst
}

// ApplyDeltaCompactInto is ApplyDeltaInto writing every list, touched or
// not, into one backing array that dst owns, in vertex order, so the
// result shares no storage with g and stays valid when g's storage is
// recycled. The untouched lists between two touched vertices are copied
// as one block, which needs g's lists to fill its own backing array in
// vertex order, as Builder.BuildInto, DeepClone and this method leave
// them; any other g panics. dst's header, backing array and edit scratch
// are reused when large enough, so a warm call allocates nothing. Cost is
// O(n + E), where ApplyDeltaInto's is O(n) plus the touched lists.
func (g *Graph) ApplyDeltaCompactInto(dst *Graph, d *Delta) *Graph {
	c := dst
	if c == nil {
		c = &Graph{}
	} else if c == g {
		panic("graph: ApplyDeltaCompactInto onto its own receiver")
	}
	// Up to 64 changes the keys live on the stack; a larger delta keeps
	// its keys in dst for the next call, grown as append grows a slice.
	var buf [128]uint64
	keys := buf[:]
	if 2*d.Len() > len(keys) {
		c.edits = slices.Grow(c.edits[:0], 2*d.Len())
		keys = c.edits
	}
	keys = g.editKeys(keys, d)
	c.n, c.m, c.frozen = g.n, g.m+len(d.Add)-len(d.Remove), true
	c.adj = resize(c.adj, g.n)
	back := resize(c.own, 2*c.m)
	c.own = back
	src, at, v := 0, 0, 0 // next offsets in g.own and back, next vertex
	for i := 0; ; {
		next, j, size := g.n, 0, 0
		if i < len(keys) {
			next, j, size = g.editRun(keys, i)
		}
		lo, to, v0 := src, at, v
		for ; v < next; v++ {
			l := len(g.adj[v])
			c.adj[v] = back[at : at+l : at+l]
			at += l
		}
		src += at - to
		g.ownedRun(v0, v, lo, src)
		copy(back[to:at], g.own[lo:src])
		if i == len(keys) {
			return c
		}
		l := g.ownedList(v, src)
		c.adj[v] = mergeEdits(back[at:at:at+size], g.adj[v], v, keys[i:j])
		src, at, v, i = src+l, at+size, v+1, j
	}
}

// ownedRun checks that the lists of vertices [v0, v1) fill g.own[lo:hi],
// hi-lo being their total length: the first non-empty one starts at lo
// and the last ends at hi. The graphs this package builds leave no gap in
// their backing arrays, so a list kept anywhere else moves one of the two
// ends, and one check per run of untouched lists stands for one a list.
func (g *Graph) ownedRun(v0, v1, lo, hi int) {
	if lo == hi {
		return
	}
	for len(g.adj[v0]) == 0 {
		v0++
	}
	for len(g.adj[v1-1]) == 0 {
		v1--
	}
	first, last := g.adj[v0], g.adj[v1-1]
	if hi > len(g.own) || &first[0] != &g.own[lo] || &last[len(last)-1] != &g.own[hi-1] {
		panic("graph: ApplyDeltaCompactInto needs lists that fill the graph's backing array in vertex order")
	}
}

// ownedList returns the length of v's list after checking that it starts
// at g.own[off].
func (g *Graph) ownedList(v, off int) int {
	lst := g.adj[v]
	if len(lst) > 0 && (off+len(lst) > len(g.own) || &lst[0] != &g.own[off]) {
		panic("graph: ApplyDeltaCompactInto needs lists that fill the graph's backing array in vertex order")
	}
	return len(lst)
}

// editKeys writes both directions of every change in d into keys, which
// has room for them, as packed keys v<<33 | w<<1 | add, and returns them.
// Sorting the keys groups the edits per vertex with their neighbours
// ascending. Vertex IDs fit in 31 bits, as Builder's int32 buffers already
// assume.
//
// The forward halves {U, V} of a delta's Add and Remove lists are already
// in key order, so only the reverse halves {V, U} are sorted, in the upper
// half of the keys, and the forward halves are merged in from the front,
// which never overwrites a reverse key before reading it. A delta out of
// canonical order, or naming an edge twice, panics.
func (g *Graph) editKeys(keys []uint64, d *Delta) []uint64 {
	k := d.Len()
	keys = keys[:2*k]
	rev := keys[k:]
	for i, e := range d.Add {
		g.check(e.U)
		g.check(e.V)
		if e.U == e.V {
			panic("graph: delta with self-loop")
		}
		rev[i] = editKey(e.V, e.U, 1)
	}
	for i, e := range d.Remove {
		g.check(e.U)
		g.check(e.V)
		rev[len(d.Add)+i] = editKey(e.V, e.U, 0)
	}
	slices.Sort(rev)
	// fa and fr are the next forward keys of Add and Remove; no key
	// reaches MaxUint64, since v < 1<<31.
	a, r, x := 0, 0, 0 // next Add, Remove and reverse key
	fa, fr := forwardKey(d.Add, 0, 1), forwardKey(d.Remove, 0, 0)
	for w := range keys {
		var key uint64
		switch {
		case x < k && rev[x] < min(fa, fr):
			key = rev[x]
			x++
		case fa < fr:
			key, a = fa, a+1
			fa = forwardKey(d.Add, a, 1)
		default:
			key, r = fr, r+1
			fr = forwardKey(d.Remove, r, 0)
		}
		if w > 0 && key <= keys[w-1] {
			panic("graph: delta out of canonical order")
		}
		keys[w] = key
	}
	return keys
}

// forwardKey returns the key of es[i] as it is listed, {U, V}, or
// MaxUint64 past the end of es.
func forwardKey(es []Edge, i int, add uint64) uint64 {
	if i == len(es) {
		return math.MaxUint64
	}
	return editKey(es[i].U, es[i].V, add)
}

// editRun returns the vertex v whose edits start at keys[i], the end j of
// its run of edits, and the length of its list after them.
func (g *Graph) editRun(keys []uint64, i int) (v, j, size int) {
	v = int(keys[i] >> 33)
	adds := 0
	for j = i; j < len(keys) && int(keys[j]>>33) == v; j++ {
		adds += int(keys[j] & 1)
	}
	return v, j, len(g.adj[v]) + 2*adds - (j - i)
}

// mergeEdits appends v's sorted list lst, with v's sorted edit run applied,
// to out; adds colliding with a present neighbour and removes of an absent
// one panic.
func mergeEdits(out, lst []int, v int, run []uint64) []int {
	li := 0
	for _, k := range run {
		w := int(uint32(k >> 1))
		for li < len(lst) && lst[li] < w {
			out = append(out, lst[li])
			li++
		}
		if k&1 == 1 {
			if li < len(lst) && lst[li] == w {
				panic(fmt.Sprintf("graph: delta adds existing edge {%d,%d}", v, w))
			}
			out = append(out, w)
		} else {
			if li == len(lst) || lst[li] != w {
				panic(fmt.Sprintf("graph: delta removes absent edge {%d,%d}", v, w))
			}
			li++
		}
	}
	return append(out, lst[li:]...)
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

// editKey packs one directed half of an edge change for editKeys.
func editKey(v, w int, add uint64) uint64 {
	return uint64(v)<<33 | uint64(w)<<1 | add
}
