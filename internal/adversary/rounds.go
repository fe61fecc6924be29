package adversary

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// churnMemo holds the effective churn additions of consecutive rounds, the
// per-round layer TInterval and HiNet put on top of a stable structure.
// The adversaries drop the sets behind the working window and draw later
// rounds into their storage.
type churnMemo struct {
	sets  [][]graph.Edge // sets[r-base] is round r's
	base  int
	spare [][]graph.Edge // storage of dropped sets
}

// next returns the first round not drawn yet.
func (c *churnMemo) next() int { return c.base + len(c.sets) }

// at returns round r's set; r must be drawn and not dropped.
func (c *churnMemo) at(r int) []graph.Edge {
	if r < c.base {
		panic(fmt.Sprintf("adversary: round %d discarded", r))
	}
	return c.sets[r-c.base]
}

// draw memoises the next round's set: count candidate pairs over n nodes.
// Pairs that are self-loops, already in stable, or repeats within the
// round add no edge — the same outcomes AddEdge's no-op path used to
// produce — so only the effective additions are kept. Each is inserted at
// its place in canonical Delta order, where a repeat is found too.
func (c *churnMemo) draw(n, count int, stable *graph.Graph, rng *xrand.Rand) {
	var set []graph.Edge
	if k := len(c.spare); k > 0 {
		set, c.spare = c.spare[k-1][:0], c.spare[:k-1]
	} else {
		set = make([]graph.Edge, 0, count)
	}
	for j := 0; j < count; j++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		e := graph.NormEdge(u, v)
		if stable.HasEdge(e.U, e.V) {
			continue
		}
		lo, hi := 0, len(set)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); edgeLess(set[m], e) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(set) || set[lo] != e {
			set = slices.Insert(set, lo, e)
		}
	}
	c.sets = append(c.sets, set)
}

// edgeLess orders edges as a Delta lists them: by U, then V.
func edgeLess(a, b graph.Edge) bool { return a.U < b.U || a.U == b.U && a.V < b.V }

// drop discards the sets of the rounds before r and keeps their storage
// for later draws. The sets never leave the adversary (deltas and round
// graphs copy the edges), so reusing them is invisible.
func (c *churnMemo) drop(r int) {
	if r <= c.base {
		return
	}
	k := min(r-c.base, len(c.sets))
	c.spare = append(c.spare, c.sets[:k]...)
	kept := copy(c.sets, c.sets[k:])
	clear(c.sets[kept:])
	c.sets = c.sets[:kept]
	c.base += k
}

// graphPair is the storage an adversary draws its round graphs into,
// alternately: a round's graph stays intact while the next round is drawn
// and is overwritten by the round after that. That is the package's
// lifetime rule.
type graphPair struct {
	g    [2]graph.Graph
	next int
}

// take returns the graph to draw the next round into.
func (p *graphPair) take() *graph.Graph {
	g := &p.g[p.next]
	p.next ^= 1
	return g
}
