// Package hinet implements the stability properties that define the paper's
// (T, L)-HiNet dynamic network model (Definitions 2–8) as executable
// predicates over a recorded or generated CTVG.
//
// Each predicate is stated on a window of rounds [from, from+T). The
// top-level model checks evaluate them on every phase window of a run, so
// theorems are only ever exercised on inputs that provably satisfy their
// hypotheses — and adversaries that claim a model are verified against it in
// tests.
package hinet

import (
	"fmt"
	"slices"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/tvg"
)

// HeadSetStable implements Definition 2 (T-interval Stable Cluster Head
// Set): the head set is identical in every round of [from, from+T).
func HeadSetStable(d ctvg.Dynamic, from, T int) bool {
	return stableOver(d, from, T, (*ctvg.Hierarchy).SameHeadSet)
}

// ClusterStable implements Definition 3 (T-interval Stable Cluster): the
// member set of cluster k is identical in every round of [from, from+T).
func ClusterStable(d ctvg.Dynamic, k, from, T int) bool {
	return stableOver(d, from, T, func(a, b *ctvg.Hierarchy) bool { return a.SameCluster(b, k) })
}

// HierarchyStable implements Definition 4 (T-interval Stable Hierarchy):
// head set and every cluster's membership are unchanged throughout
// [from, from+T). Per the definition's tree (Fig. 2) this is exactly
// Definition 2 plus Definition 3 for every cluster; comparing the full
// hierarchies round-by-round is an equivalent and cheaper check provided
// roles are derived from membership, so we compare head sets and the
// membership function I directly.
func HierarchyStable(d ctvg.Dynamic, from, T int) bool {
	return stableOver(d, from, T, func(a, b *ctvg.Hierarchy) bool {
		return a.SameHeadSet(b) && slices.Equal(a.Cluster, b.Cluster)
	})
}

// stableOver reports whether same holds between every two consecutive
// rounds' hierarchies in [from, from+T). Each comparison is an
// equivalence, so this is the same as comparing every round with round
// from, and it holds no round longer than the lifetime rule of
// ctvg.Dynamic allows.
func stableOver(d ctvg.Dynamic, from, T int, same func(a, b *ctvg.Hierarchy) bool) bool {
	mustWindow(from, T)
	prev := d.HierarchyAt(from)
	for r := from + 1; r < from+T; r++ {
		h := d.HierarchyAt(r)
		if !same(prev, h) {
			return false
		}
		prev = h
	}
	return true
}

// HeadSubgraph computes the T-interval Cluster Head Subgraph Υ of
// Definition 5 for the window [from, from+T): the subgraph of the stable
// (intersection) graph induced by the connected components containing the
// round-`from` cluster heads. It returns Υ together with whether all heads
// lie in a single component of the stable graph — i.e. whether the window
// has T-interval cluster head connectivity.
func HeadSubgraph(d ctvg.Dynamic, from, T int) (upsilon *graph.Graph, connected bool) {
	mustWindow(from, T)
	stable := tvg.StableSubgraph(d, from, T)
	heads := d.HierarchyAt(from).Heads()
	if len(heads) == 0 {
		// No heads: vacuously connected, empty Υ.
		return graph.New(d.N()), true
	}
	dist, _ := stable.BFS(heads[0])
	connected = true
	for _, h := range heads[1:] {
		if dist[h] == graph.Inf {
			connected = false
			break
		}
	}
	// Υ: the stable subgraph restricted to vertices reachable from any
	// head (heads plus the gateway paths between them, plus any stable
	// hangers-on — a superset of a minimal Υ, which is all Definition 5
	// requires: Υ ⊆ G_j for all j in the window, V_Υ ⊇ V_h, connected).
	inU := make([]bool, d.N())
	for _, h := range heads {
		dh, _ := stable.BFS(h)
		for v, dv := range dh {
			if dv != graph.Inf {
				inU[v] = true
			}
		}
	}
	upsilon = graph.New(d.N())
	for _, e := range stable.Edges() {
		if inU[e.U] && inU[e.V] {
			upsilon.AddEdge(e.U, e.V)
		}
	}
	return upsilon, connected
}

// HeadConnectivity implements Definition 5 (T-interval Cluster Head
// Connectivity) on the window [from, from+T): there exists a connected
// subgraph Υ, stable over the whole window, containing every cluster head.
func HeadConnectivity(d ctvg.Dynamic, from, T int) bool {
	_, ok := HeadSubgraph(d, from, T)
	return ok
}

// HeadLinkage implements Definition 6 (L-hop Cluster Head Connectivity):
// the minimal L such that for every proper subset S of the head set and
// every head v outside S there is some u in S with distance(u, v) <= L in
// g. That minimal L is the bottleneck of the head set: the largest edge of
// a minimum spanning tree over pairwise head distances. It returns
// (L, true) when the heads are mutually reachable in g, and (0, false)
// otherwise. Fewer than two heads have linkage 0.
func HeadLinkage(g *graph.Graph, heads []int) (L int, ok bool) {
	if len(heads) < 2 {
		return 0, true
	}
	// Pairwise head distances via one BFS per head.
	k := len(heads)
	dist := make([][]int, k)
	for i, h := range heads {
		d, _ := g.BFS(h)
		dist[i] = make([]int, k)
		for j, h2 := range heads {
			dist[i][j] = d[h2]
			if d[h2] == graph.Inf && i != j {
				return 0, false
			}
		}
	}
	// Prim's algorithm on the complete head graph, tracking the largest
	// edge used (bottleneck of the minimum spanning tree).
	inTree := make([]bool, k)
	best := make([]int, k)
	for i := range best {
		best[i] = graph.Inf
	}
	inTree[0] = true
	for j := 1; j < k; j++ {
		best[j] = dist[0][j]
	}
	for added := 1; added < k; added++ {
		min, at := graph.Inf, -1
		for j := 0; j < k; j++ {
			if !inTree[j] && best[j] < min {
				min, at = best[j], j
			}
		}
		if min > L {
			L = min
		}
		inTree[at] = true
		for j := 0; j < k; j++ {
			if !inTree[j] && dist[at][j] < best[j] {
				best[j] = dist[at][j]
			}
		}
	}
	return L, true
}

// LHopHeadConnectivity reports whether the head set of round `from` has
// L-hop cluster head connectivity within the window's stable head subgraph
// Υ (Definition 7 combines Definitions 5 and 6 inside Υ).
func LHopHeadConnectivity(d ctvg.Dynamic, from, T, L int) bool {
	upsilon, ok := HeadSubgraph(d, from, T)
	if !ok {
		return false
	}
	linkage, ok := HeadLinkage(upsilon, d.HierarchyAt(from).Heads())
	return ok && linkage <= L
}

// Model bundles the parameters of a (T, L)-HiNet claim.
type Model struct {
	// T is the stability interval in rounds.
	T int
	// L is the hop bound on cluster-head connectivity.
	L int
}

// CheckWindow verifies Definition 8 on a single phase window
// [from, from+T): T-interval stable hierarchy (Definition 4) plus
// T-interval L-hop cluster head connectivity (Definition 7). A nil error
// means the window satisfies the model.
func (m Model) CheckWindow(d ctvg.Dynamic, from int) error {
	if m.T <= 0 || m.L < 0 {
		return fmt.Errorf("hinet: invalid model (T=%d, L=%d)", m.T, m.L)
	}
	if !HierarchyStable(d, from, m.T) {
		return fmt.Errorf("hinet: hierarchy not %d-interval stable at round %d", m.T, from)
	}
	if !HeadConnectivity(d, from, m.T) {
		return fmt.Errorf("hinet: no %d-interval cluster head connectivity at round %d", m.T, from)
	}
	if !LHopHeadConnectivity(d, from, m.T, m.L) {
		return fmt.Errorf("hinet: cluster head connectivity exceeds %d hops at round %d", m.L, from)
	}
	return nil
}

// Check verifies Definition 8 over `phases` consecutive windows of T rounds
// starting at round 0 — the phase structure used by Algorithm 1. A nil
// error means the dynamic network is a (T, L)-HiNet for the whole run.
func (m Model) Check(d ctvg.Dynamic, phases int) error {
	for p := 0; p < phases; p++ {
		if err := m.CheckWindow(d, p*m.T); err != nil {
			return fmt.Errorf("phase %d: %w", p, err)
		}
	}
	return nil
}

// CheckValid additionally validates the per-round structural invariants of
// the hierarchy (heads self-identify, members adjacent to heads, ...) for
// every round covered by the phases.
func (m Model) CheckValid(d ctvg.Dynamic, phases int) error {
	for r := 0; r < phases*m.T; r++ {
		if err := d.HierarchyAt(r).Validate(d.At(r)); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return m.Check(d, phases)
}

// HeadSetStableForever reports whether the head set never changes across
// rounds [0, horizon) — the ∞-interval stable head set of Remark 1.
func HeadSetStableForever(d ctvg.Dynamic, horizon int) bool {
	return HeadSetStable(d, 0, horizon)
}

func mustWindow(from, T int) {
	if from < 0 || T <= 0 {
		panic(fmt.Sprintf("hinet: invalid window (from=%d, T=%d)", from, T))
	}
}
