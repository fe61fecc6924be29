package ctvg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// RoleChange is one node's hierarchy transition between two stability
// windows: both the old and the new (role, cluster) pair are carried so the
// change can be undone when a delta trace rewinds.
type RoleChange struct {
	V          int
	OldRole    Role
	NewRole    Role
	OldCluster int
	NewCluster int
}

// HierarchyDelta is the set of per-node changes between two hierarchies,
// sorted by node ID. An empty delta means the hierarchies are Equal.
type HierarchyDelta []RoleChange

// HierarchyDeltaBetween returns the delta transforming a into b (equal node
// counts required).
func HierarchyDeltaBetween(a, b *Hierarchy) HierarchyDelta {
	if a.N() != b.N() {
		panic("ctvg: HierarchyDeltaBetween on different node counts")
	}
	if a == b {
		return nil
	}
	var d HierarchyDelta
	for v := range a.Role {
		if a.Role[v] != b.Role[v] || a.Cluster[v] != b.Cluster[v] {
			d = append(d, RoleChange{
				V:          v,
				OldRole:    a.Role[v],
				NewRole:    b.Role[v],
				OldCluster: a.Cluster[v],
				NewCluster: b.Cluster[v],
			})
		}
	}
	return d
}

// applyInto writes h with d applied, or with d undone when back is set,
// into dst and returns it. dst's storage is reused when large enough, so a
// warm call allocates nothing; a nil dst allocates. A node whose state in
// h is not the one the delta edits from panics, so forward and backward
// replays cannot silently drift.
func (h *Hierarchy) applyInto(dst *Hierarchy, d HierarchyDelta, back bool) *Hierarchy {
	if dst == nil {
		dst = &Hierarchy{}
	}
	dst.Role = append(dst.Role[:0], h.Role...)
	dst.Cluster = append(dst.Cluster[:0], h.Cluster...)
	for _, ch := range d {
		fromR, fromC, toR, toC := ch.OldRole, ch.OldCluster, ch.NewRole, ch.NewCluster
		if back {
			fromR, fromC, toR, toC = toR, toC, fromR, fromC
		}
		if dst.Role[ch.V] != fromR || dst.Cluster[ch.V] != fromC {
			panic(fmt.Sprintf("ctvg: hierarchy delta on node %d: state (%v,%d) does not match the delta's (%v,%d)",
				ch.V, dst.Role[ch.V], dst.Cluster[ch.V], fromR, fromC))
		}
		dst.Role[ch.V], dst.Cluster[ch.V] = toR, toC
	}
	return dst
}

// DeltaSource is the optional interface through which a generating CTVG
// Dynamic emits window transitions natively as deltas on both layers, so
// recording a delta trace never has to materialise two snapshots and diff
// them.
type DeltaSource interface {
	Dynamic
	// WindowDelta returns the graph and hierarchy deltas transforming the
	// state of round prevStart into the state of round start. Both rounds
	// must be stability-window starts with prevStart < start, visited in
	// ascending order.
	WindowDelta(prevStart, start int) (*graph.Delta, HierarchyDelta)
}

// DeltaTrace is a recorded CTVG stored as one base snapshot/hierarchy pair
// plus the change that opens each later stability window: a graph delta,
// a hierarchy delta or both, so it costs O(n + E + changes) memory.
// Windows are the rounds over which BOTH layers are constant. Rounds
// beyond the recorded range repeat the final window.
//
// A trace made by Recording is still attached to its source: asking it for
// a round past what it holds records further windows first, so it has no
// recorded range to run past.
//
// At and HierarchyAt read the trace through a cursor under Dynamic's
// lifetime rule: a round's graph and hierarchy stay valid until two
// further windows have been materialised. Each layer keeps its base, which
// is never written, and two buffers tagged with the state they hold. A
// round whose state the base or a buffer holds costs nothing; any other
// state is written into the buffer not made current last, from the state
// of the adjacent window: the graph by graph.Graph.ApplyDeltaCompactInto,
// with the delta going forward and its Inverse going back, the hierarchy
// by copying its roles and clusters and editing the changed nodes. A seek
// materialises each state between the one it starts from and the one
// asked for, and starts from the base when that is nearer, so a rewind to
// round 0 is free. The layers move independently: At moves only the
// graph and HierarchyAt only the hierarchy. A warm step allocates
// nothing; it costs O(n + E) for a graph change and O(n) for a hierarchy
// change.
//
// The cursor makes this type stateful: a DeltaTrace must not be shared by
// concurrent runs, so each records or decodes its own (the engine's own
// worker parallelism is fine — snapshots are fetched by the coordinating
// goroutine only).
type DeltaTrace struct {
	n      int
	length int
	starts []int     // starts[i] is the first round of window i; starts[0] == 0
	rec    *recorder // non-nil while the trace still reads its source

	g layer[*graph.Graph, *graph.Delta]
	h layer[*Hierarchy, HierarchyDelta]
}

// layer is the cursor over one of a DeltaTrace's two layers. The layer's
// states are numbered from 0, the base: state v is the one that its v-th
// change opens, at round from[v].
type layer[S, D any] struct {
	from    []int // from[v] is the first round of state v; from[0] == 0
	changes []D   // changes[v] turns state v-1 into state v; changes[0] is unused
	base    S
	buf     [2]S
	held    [2]int // the state each buffer holds; 0, the base's, for none
	last    int    // the buffer made current last
	v       int    // the current state
}

// add records the change that opens a new state at round r.
func (l *layer[S, D]) add(r int, d D) {
	l.from = append(l.from, r)
	l.changes = append(l.changes, d)
}

// cur returns the current state.
func (l *layer[S, D]) cur() S {
	if l.v == 0 {
		return l.base
	}
	return l.buf[l.last]
}

// at makes the state of round r current and returns it. The walk starts
// from the current state, or from the base when that is nearer, and moves
// one state at a time: onto a state a buffer holds for free, and otherwise
// by step(src, dst, d, back), which writes into dst the state src becomes
// under change d, or under its undoing when back is set. dst is the buffer
// not made current last, so the state made current before the step
// survives it.
func (l *layer[S, D]) at(r int, step func(src, dst S, d D, back bool) S) S {
	v := sort.SearchInts(l.from, r+1) - 1
	if v < l.v-v { // the base is nearer
		l.v = 0
	}
	for l.v != v {
		next, c, back := l.v+1, l.v+1, false // the next state, its change
		if v < l.v {
			next, c, back = l.v-1, l.v, true
		}
		switch {
		case next == 0, l.held[l.last] == next:
		case l.held[1-l.last] == next:
			l.last = 1 - l.last
		default:
			dst := 1 - l.last
			l.buf[dst] = step(l.cur(), l.buf[dst], l.changes[c], back)
			l.held[dst], l.last = next, dst
		}
		l.v = next
	}
	return l.cur()
}

// stepGraph is the graph layer's step.
func stepGraph(g, dst *graph.Graph, d *graph.Delta, back bool) *graph.Graph {
	if back {
		d = d.Inverse()
	}
	return g.ApplyDeltaCompactInto(dst, d)
}

// recorder is what an attached trace knows of its source: the source
// itself and the last source window it visited.
type recorder struct {
	d      Dynamic
	st     Stability   // nil unless d advertises its windows
	native DeltaSource // nil unless d emits its transitions
	// The last visited window's start and, for a source without native
	// deltas, its state.
	prevStart int
	prevG     *graph.Graph
	prevH     *Hierarchy
}

// NewDeltaTrace assembles a clustered delta trace. starts must be strictly
// increasing within (0, rounds); the two delta slices run parallel to it
// and may contain empty entries for the layer that did not change (but not
// both empty at once — such a transition is no window boundary). The trace
// keeps baseG and baseH and never writes them; baseG's lists must fill its
// backing array in vertex order, as graph.Builder and DeepClone leave them.
func NewDeltaTrace(baseG *graph.Graph, baseH *Hierarchy, starts []int, gdeltas []*graph.Delta, hdeltas []HierarchyDelta, rounds int) *DeltaTrace {
	if rounds <= 0 {
		panic("ctvg: DeltaTrace needs rounds > 0")
	}
	if baseG.N() != baseH.N() {
		panic("ctvg: DeltaTrace base graph/hierarchy node counts differ")
	}
	if len(starts) != len(gdeltas) || len(starts) != len(hdeltas) {
		panic(fmt.Sprintf("ctvg: %d window starts but %d graph deltas, %d hierarchy deltas",
			len(starts), len(gdeltas), len(hdeltas)))
	}
	t := newDeltaTrace(baseG.N())
	t.length = rounds
	t.g.base, t.h.base = baseG, baseH
	prev := 0
	for i, s := range starts {
		if s <= prev || s >= rounds {
			panic(fmt.Sprintf("ctvg: window start %d out of order (round %d, %d recorded)", i, s, rounds))
		}
		if !t.window(s, gdeltas[i], hdeltas[i]) {
			panic(fmt.Sprintf("ctvg: window %d changes neither layer", i))
		}
		prev = s
	}
	return t
}

// newDeltaTrace returns an empty trace on n nodes, its base not yet set.
func newDeltaTrace(n int) *DeltaTrace {
	return &DeltaTrace{
		n:      n,
		starts: []int{0},
		g:      layer[*graph.Graph, *graph.Delta]{from: []int{0}, changes: []*graph.Delta{nil}},
		h:      layer[*Hierarchy, HierarchyDelta]{from: []int{0}, changes: []HierarchyDelta{nil}},
	}
}

// window opens a window at round s with the changes of both layers, and
// reports whether it did: a transition that changes neither layer opens
// none.
func (t *DeltaTrace) window(s int, gd *graph.Delta, hd HierarchyDelta) bool {
	if gd.Empty() && len(hd) == 0 {
		return false
	}
	t.starts = append(t.starts, s)
	if !gd.Empty() {
		t.g.add(s, gd)
	}
	if len(hd) > 0 {
		t.h.add(s, hd)
	}
	return true
}

// Recording returns a trace that records d on demand. Nothing is read
// until a round is asked for; asking for round r records every window of d
// up to the one holding r. The source is read once, in ascending order,
// and no round's graph or hierarchy is held past the next window start, so
// d may be an adversary that recycles its storage. The trace answers At,
// HierarchyAt and StableUntil for any round, earlier ones included, so it
// gives random access over a single-pass source.
func Recording(d Dynamic) *DeltaTrace {
	st, _ := d.(Stability)
	native, _ := d.(DeltaSource)
	t := newDeltaTrace(d.N())
	t.rec = &recorder{d: d, st: st, native: native}
	return t
}

// extend records windows of the source until the trace holds round r. It
// is the one place that reads rounds from a source: native DeltaSource
// transitions are consumed when offered; otherwise consecutive window
// states are diffed. Transitions that change neither layer are merged into
// the preceding window. The base is a deep copy: a clone of a frozen graph
// would share lists the source overwrites later.
func (t *DeltaTrace) extend(r int) {
	for rc := t.rec; rc != nil && t.length <= r; {
		s := t.length // the next source window start
		var g *graph.Graph
		var h *Hierarchy
		if s == 0 || rc.native == nil {
			g, h = rc.d.At(s), rc.d.HierarchyAt(s)
		}
		if s == 0 {
			t.g.base, t.h.base = g.DeepClone(), h.Clone()
		} else {
			// Each transition is taken from the previous window start,
			// even when that one changed nothing: its state equals the
			// last recorded window's, so the delta is the same, and the
			// source never has to serve a round behind its working window.
			var gd *graph.Delta
			var hd HierarchyDelta
			if rc.native != nil {
				gd, hd = rc.native.WindowDelta(rc.prevStart, s)
			} else {
				gd, hd = graph.DeltaBetween(rc.prevG, g), HierarchyDeltaBetween(rc.prevH, h)
			}
			t.window(s, gd, hd)
		}
		rc.prevStart, rc.prevG, rc.prevH = s, g, h
		t.length = s + 1
		if rc.st != nil {
			if e := rc.st.StableUntil(s); e == math.MaxInt {
				// The source never changes again: the trace is complete.
				t.length, t.rec, rc = math.MaxInt, nil, nil
			} else if e > s {
				t.length = e + 1
			}
		}
	}
}

// N implements Dynamic.
func (t *DeltaTrace) N() int { return t.n }

// Len returns the number of recorded rounds. A trace still attached to its
// source holds the rounds asked for so far.
func (t *DeltaTrace) Len() int { return t.length }

// Windows returns the number of stability windows.
func (t *DeltaTrace) Windows() int { return len(t.starts) }

// Changes returns the total edge and role changes across all transitions.
func (t *DeltaTrace) Changes() (edges, roles int) {
	for _, d := range t.g.changes[1:] {
		edges += d.Len()
	}
	for _, d := range t.h.changes[1:] {
		roles += len(d)
	}
	return edges, roles
}

// clamp records up to round r if the trace still reads its source, and
// maps a round past a detached trace's end onto its last round.
func (t *DeltaTrace) clamp(r int) int {
	if r < 0 {
		panic("ctvg: negative round")
	}
	t.extend(r)
	if r >= t.length {
		r = t.length - 1
	}
	return r
}

// At implements Dynamic; rounds past the end repeat the last window.
func (t *DeltaTrace) At(r int) *graph.Graph {
	return t.g.at(t.clamp(r), stepGraph)
}

// HierarchyAt implements Dynamic.
func (t *DeltaTrace) HierarchyAt(r int) *Hierarchy {
	return t.h.at(t.clamp(r), (*Hierarchy).applyInto)
}

// StableUntil implements Stability over both layers: windows are maximal
// runs where neither the snapshot nor the hierarchy changes. A trace still
// reading its source does not look past the source window it has recorded
// last, so it may under-report the last window, as Stability allows: a
// source that repeats one window forever would make such a search endless.
func (t *DeltaTrace) StableUntil(r int) int {
	if r < 0 {
		panic("ctvg: negative round")
	}
	t.extend(r)
	if r >= t.length {
		return math.MaxInt
	}
	w := sort.SearchInts(t.starts, r+1) - 1
	if w < len(t.starts)-1 {
		return t.starts[w+1] - 1
	}
	if t.rec != nil {
		return t.length - 1
	}
	return math.MaxInt
}

// Record records rounds [0, rounds) of any CTVG Dynamic: a Recording of d
// extended to rounds and then detached from d, so rounds past the end
// repeat the last window.
func Record(d Dynamic, rounds int) *DeltaTrace {
	if rounds <= 0 {
		panic("ctvg: Record needs rounds > 0")
	}
	t := Recording(d)
	t.extend(rounds - 1)
	t.length, t.rec = rounds, nil
	return t
}

// NewTrace records a CTVG given as one graph and one hierarchy per round,
// on a common node count, by diffing consecutive rounds; rounds past the
// end repeat the last pair. The trace copies the first round and keeps no
// other, so the caller may edit or reuse the lists afterwards.
func NewTrace(gs []*graph.Graph, hs []*Hierarchy) *DeltaTrace {
	if len(gs) == 0 || len(gs) != len(hs) {
		panic(fmt.Sprintf("ctvg: %d graph rounds but %d hierarchy rounds", len(gs), len(hs)))
	}
	n := gs[0].N()
	for r := range gs {
		if gs[r].N() != n || hs[r].N() != n {
			panic(fmt.Sprintf("ctvg: round %d has %d vertices and %d nodes, want %d", r, gs[r].N(), hs[r].N(), n))
		}
	}
	t := newDeltaTrace(n)
	t.length = len(gs)
	t.g.base, t.h.base = gs[0].DeepClone(), hs[0].Clone()
	for r := 1; r < len(gs); r++ {
		t.window(r, graph.DeltaBetween(gs[r-1], gs[r]), HierarchyDeltaBetween(hs[r-1], hs[r]))
	}
	return t
}

// Validate checks each window's hierarchy against its graph (one check per
// window suffices: both layers are constant inside a window).
func (t *DeltaTrace) Validate() error {
	for _, r := range t.starts {
		if err := t.HierarchyAt(r).Validate(t.At(r)); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return nil
}

var (
	_ Dynamic   = (*DeltaTrace)(nil)
	_ Stability = (*DeltaTrace)(nil)
)
