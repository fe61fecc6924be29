package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ctvg"
	"repro/internal/graph"
)

// Version 2 of the trace format delta-encodes consecutive rounds. HiNet
// traces are dominated by stable structure (the backbone and member stars
// persist for whole phases), so storing per-round edge/role/membership
// diffs against the previous round shrinks traces by an order of magnitude
// on typical adversaries.
//
// Layout (after the shared "CTVG" magic and version byte 2):
//
//	n varint, rounds varint
//	round 0: full encoding (as v1: edges, roles, clusters)
//	round r>0:
//	  removed-edge count varint, then pairs
//	  added-edge count varint, then pairs
//	  role-change count varint, then (node varint, role byte)
//	  cluster-change count varint, then (node varint, cluster+1 varint)
const versionDelta = 2

// WriteDelta serialises a recording in the delta format, reading its
// rounds in ascending order as Write does.
func WriteDelta(w io.Writer, t *ctvg.DeltaTrace) error {
	e := newEncoder(w, versionDelta, t)
	prevG, prevH := t.At(0), t.HierarchyAt(0)
	e.edges(prevG.Edges())
	e.hierarchy(prevH)
	for r := 1; r < t.Len(); r++ {
		curG, curH := t.At(r), t.HierarchyAt(r)
		gd := graph.DeltaBetween(prevG, curG)
		e.edges(gd.Remove)
		e.edges(gd.Add)
		hd := ctvg.HierarchyDeltaBetween(prevH, curH)
		var roles, clusters []ctvg.RoleChange
		for _, c := range hd {
			if c.OldRole != c.NewRole {
				roles = append(roles, c)
			}
			if c.OldCluster != c.NewCluster {
				clusters = append(clusters, c)
			}
		}
		e.uvarint(uint64(len(roles)))
		for _, c := range roles {
			e.uvarint(uint64(c.V))
			e.bw.WriteByte(byte(c.NewRole))
		}
		e.uvarint(uint64(len(clusters)))
		for _, c := range clusters {
			e.uvarint(uint64(c.V))
			e.uvarint(uint64(c.NewCluster + 1))
		}
		prevG, prevH = curG, curH
	}
	return e.bw.Flush()
}

// delta decodes the body of a version-2 trace. The diffs are applied in
// file order to one working graph and hierarchy, with the no-op semantics
// of AddEdge and RemoveEdge (re-adding a present edge, removing an absent
// one, adding a self-loop); each round's net change becomes its window
// delta, so the decoded trace holds no per-round snapshot.
func (d *decoder) delta() (*ctvg.DeltaTrace, error) {
	if err := d.header(); err != nil {
		return nil, err
	}
	baseG, baseH, err := d.snapshot(0)
	if err != nil {
		return nil, err
	}
	cur, curH := baseG.Clone(), baseH.Clone()
	// touchedAt[v] == r once node v's pre-round state is in this round's
	// hierarchy delta (rounds start at 1, so the zero value is free).
	touchedAt := make([]int, d.n)
	var w windows
	for r := 1; r < d.rounds; r++ {
		var removed, added []graph.Edge
		if err := d.edges(r, func(u, v int) {
			if cur.RemoveEdge(u, v) {
				removed = append(removed, graph.NormEdge(u, v))
			}
		}); err != nil {
			return nil, err
		}
		if err := d.edges(r, func(u, v int) {
			if cur.AddEdge(u, v) {
				added = append(added, graph.NormEdge(u, v))
			}
		}); err != nil {
			return nil, err
		}

		var touched ctvg.HierarchyDelta
		touch := func(v int) {
			if touchedAt[v] != r {
				touchedAt[v] = r
				touched = append(touched, ctvg.RoleChange{V: v, OldRole: curH.Role[v], OldCluster: curH.Cluster[v]})
			}
		}
		rc64, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: round %d role changes: %w", r, err)
		}
		if rc64 > uint64(d.n) {
			return nil, fmt.Errorf("trace: round %d implausible role changes", r)
		}
		for j := uint64(0); j < rc64; j++ {
			v64, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d role change %d: %w", r, j, err)
			}
			b, err := d.br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d role change %d: %w", r, j, err)
			}
			if v64 >= uint64(d.n) || b > byte(ctvg.Unaffiliated) {
				return nil, fmt.Errorf("trace: round %d role change %d out of range", r, j)
			}
			touch(int(v64))
			curH.Role[v64] = ctvg.Role(b)
		}
		cc64, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: round %d cluster changes: %w", r, err)
		}
		if cc64 > uint64(d.n) {
			return nil, fmt.Errorf("trace: round %d implausible cluster changes", r)
		}
		for j := uint64(0); j < cc64; j++ {
			v64, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d cluster change %d: %w", r, j, err)
			}
			c64, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: round %d cluster change %d: %w", r, j, err)
			}
			if v64 >= uint64(d.n) || c64 > uint64(d.n) {
				return nil, fmt.Errorf("trace: round %d cluster change %d out of range", r, j)
			}
			touch(int(v64))
			curH.Cluster[v64] = int(c64) - 1
		}
		w.add(r, netDelta(removed, added), netHierarchyDelta(touched, curH))
	}
	return ctvg.NewDeltaTrace(baseG, baseH, w.starts, w.gdeltas, w.hdeltas, d.rounds), nil
}

// netDelta turns the edges a round's removals and additions actually
// changed into a strict delta: an edge removed and re-added in the same
// round is no change. Each list holds an edge at most once.
func netDelta(removed, added []graph.Edge) *graph.Delta {
	graph.SortEdges(removed)
	graph.SortEdges(added)
	less := func(a, b graph.Edge) bool { return a.U < b.U || (a.U == b.U && a.V < b.V) }
	d := &graph.Delta{}
	i, j := 0, 0
	for i < len(removed) || j < len(added) {
		switch {
		case j == len(added) || (i < len(removed) && less(removed[i], added[j])):
			d.Remove = append(d.Remove, removed[i])
			i++
		case i == len(removed) || less(added[j], removed[i]):
			d.Add = append(d.Add, added[j])
			j++
		default:
			i++
			j++
		}
	}
	return d
}

// netHierarchyDelta completes a round's touched-node list (old states
// captured at first touch) with the nodes' final states, dropping nodes
// that ended where they started, in node order.
func netHierarchyDelta(touched ctvg.HierarchyDelta, h *ctvg.Hierarchy) ctvg.HierarchyDelta {
	kept := touched[:0]
	for _, c := range touched {
		c.NewRole, c.NewCluster = h.Role[c.V], h.Cluster[c.V]
		if c.NewRole != c.OldRole || c.NewCluster != c.OldCluster {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].V < kept[j].V })
	return kept
}
