package adversary

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// churnMemo holds the effective churn additions of consecutive rounds, the
// per-round layer TInterval and HiNet put on top of a stable structure.
// Forward-only adversaries drop the sets behind the working window and
// draw later rounds into their storage.
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
		panic(fmt.Sprintf("adversary: round %d discarded (forward-only)", r))
	}
	return c.sets[r-c.base]
}

// draw memoises the next round's set: count candidate pairs over n nodes.
// Pairs that are self-loops, already in stable, or repeats within the
// round add no edge — the same outcomes AddEdge's no-op path used to
// produce — so only the effective additions are kept, sorted.
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
		dup := false
		for _, x := range set {
			if x == e {
				dup = true
				break
			}
		}
		if !dup {
			set = append(set, e)
		}
	}
	graph.SortEdges(set)
	c.sets = append(c.sets, set)
}

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

// graphPair is the storage a forward-only adversary draws its round graphs
// into, alternately: a round's graph stays intact while the next round is
// drawn and is overwritten by the round after that. That is the lifetime
// rule of every ForwardOnly method.
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
