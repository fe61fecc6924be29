package ctvg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// RoleChange is one node's hierarchy transition between two stability
// windows: both the old and the new (role, cluster) pair are carried so the
// change can be unapplied when a delta trace rewinds.
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

// ApplyDelta returns a fresh hierarchy equal to h with the delta applied.
// Applying to a hierarchy that does not match the delta's old state panics,
// so forward/backward replays cannot silently drift.
func (h *Hierarchy) ApplyDelta(d HierarchyDelta) *Hierarchy {
	c := h.Clone()
	for _, ch := range d {
		if c.Role[ch.V] != ch.OldRole || c.Cluster[ch.V] != ch.OldCluster {
			panic(fmt.Sprintf("ctvg: ApplyDelta on node %d: state (%v,%d) does not match delta old state (%v,%d)",
				ch.V, c.Role[ch.V], c.Cluster[ch.V], ch.OldRole, ch.OldCluster))
		}
		c.Role[ch.V] = ch.NewRole
		c.Cluster[ch.V] = ch.NewCluster
	}
	return c
}

// UnapplyDelta returns a fresh hierarchy equal to h with the delta undone.
func (h *Hierarchy) UnapplyDelta(d HierarchyDelta) *Hierarchy {
	c := h.Clone()
	for _, ch := range d {
		if c.Role[ch.V] != ch.NewRole || c.Cluster[ch.V] != ch.NewCluster {
			panic(fmt.Sprintf("ctvg: UnapplyDelta on node %d: state (%v,%d) does not match delta new state (%v,%d)",
				ch.V, c.Role[ch.V], c.Cluster[ch.V], ch.NewRole, ch.NewCluster))
		}
		c.Role[ch.V] = ch.OldRole
		c.Cluster[ch.V] = ch.OldCluster
	}
	return c
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
// plus one (graph delta, hierarchy delta) pair per stability-window
// transition: the O(changes) counterpart of Trace. Windows are the rounds
// over which BOTH layers are constant, matching Trace's combined
// StableUntil. Rounds beyond the recorded range repeat the final window.
//
// At materialises the requested window on a cursor via copy-on-write
// Apply/Unapply, so a transition costs O(n + |changes|) regardless of |E|.
// The cursor makes this type stateful: a DeltaTrace must not be shared by
// concurrent runs (the engine's own worker parallelism is fine — snapshots
// are fetched by the coordinating goroutine only). Within one window, At
// and HierarchyAt return stable pointers, which Record's dedup and the
// engine's stability cache rely on.
type DeltaTrace struct {
	n       int
	length  int
	starts  []int // starts[i] is the first round of window i; starts[0] == 0
	gdeltas []*graph.Delta
	hdeltas []HierarchyDelta

	cur   int
	curG  *graph.Graph
	curH  *Hierarchy
	baseG *graph.Graph
	baseH *Hierarchy
}

// NewDeltaTrace assembles a clustered delta trace. starts must be strictly
// increasing within (0, rounds); the two delta slices run parallel to it
// and may contain empty entries for the layer that did not change (but not
// both empty at once — such a transition is no window boundary).
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
	prev := 0
	for i, s := range starts {
		if s <= prev || s >= rounds {
			panic(fmt.Sprintf("ctvg: window start %d out of order (round %d, %d recorded)", i, s, rounds))
		}
		if gdeltas[i].Empty() && len(hdeltas[i]) == 0 {
			panic(fmt.Sprintf("ctvg: window %d changes neither layer", i))
		}
		prev = s
	}
	return &DeltaTrace{
		n:       baseG.N(),
		length:  rounds,
		starts:  append([]int{0}, starts...),
		gdeltas: append([]*graph.Delta{{}}, gdeltas...),
		hdeltas: append([]HierarchyDelta{nil}, hdeltas...),
		baseG:   baseG,
		baseH:   baseH,
		curG:    baseG,
		curH:    baseH,
	}
}

// N implements Dynamic.
func (t *DeltaTrace) N() int { return t.n }

// Len returns the number of recorded rounds.
func (t *DeltaTrace) Len() int { return t.length }

// Windows returns the number of stability windows.
func (t *DeltaTrace) Windows() int { return len(t.starts) }

// Changes returns the total edge and role changes across all transitions.
func (t *DeltaTrace) Changes() (edges, roles int) {
	for i := 1; i < len(t.starts); i++ {
		edges += t.gdeltas[i].Len()
		roles += len(t.hdeltas[i])
	}
	return edges, roles
}

func (t *DeltaTrace) windowOf(r int) int {
	return sort.SearchInts(t.starts, r+1) - 1
}

// seek moves the cursor to window w, materialising both layers.
func (t *DeltaTrace) seek(w int) {
	for t.cur < w {
		i := t.cur + 1
		if !t.gdeltas[i].Empty() {
			t.curG = t.curG.ApplyDelta(t.gdeltas[i])
		}
		if len(t.hdeltas[i]) > 0 {
			t.curH = t.curH.ApplyDelta(t.hdeltas[i])
		}
		t.cur = i
	}
	if t.cur > w {
		if w == 0 {
			t.cur, t.curG, t.curH = 0, t.baseG, t.baseH
		}
		for t.cur > w {
			i := t.cur
			if !t.gdeltas[i].Empty() {
				t.curG = t.curG.UnapplyDelta(t.gdeltas[i])
			}
			if len(t.hdeltas[i]) > 0 {
				t.curH = t.curH.UnapplyDelta(t.hdeltas[i])
			}
			t.cur = i - 1
		}
	}
}

func (t *DeltaTrace) clamp(r int) int {
	if r < 0 {
		panic("ctvg: negative round")
	}
	if r >= t.length {
		r = t.length - 1
	}
	return r
}

// At implements Dynamic; rounds past the end repeat the last window.
func (t *DeltaTrace) At(r int) *graph.Graph {
	t.seek(t.windowOf(t.clamp(r)))
	return t.curG
}

// HierarchyAt implements Dynamic.
func (t *DeltaTrace) HierarchyAt(r int) *Hierarchy {
	t.seek(t.windowOf(t.clamp(r)))
	return t.curH
}

// StableUntil implements Stability over both layers: windows are maximal
// runs where neither the snapshot nor the hierarchy changes.
func (t *DeltaTrace) StableUntil(r int) int {
	if r < 0 {
		panic("ctvg: negative round")
	}
	if r >= t.length {
		return math.MaxInt
	}
	w := t.windowOf(r)
	if w == len(t.starts)-1 {
		return math.MaxInt
	}
	return t.starts[w+1] - 1
}

// RecordDeltas materialises rounds [0, rounds) of any CTVG Dynamic into a
// DeltaTrace: the streaming counterpart of Record. Native DeltaSource
// transitions are consumed when offered; otherwise consecutive window
// states are diffed. Transitions that change neither layer are merged into
// the preceding window, matching Record's dedup.
//
// Rounds are visited once, in ascending order, and no round's graph or
// hierarchy is held past the next window start, so d may be a forward-only
// adversary that recycles its storage. The base is a deep copy for the
// same reason: a clone of a frozen graph would share lists the source
// overwrites later.
func RecordDeltas(d Dynamic, rounds int) *DeltaTrace {
	if rounds <= 0 {
		panic("ctvg: RecordDeltas needs rounds > 0")
	}
	st, _ := d.(Stability)
	src, native := d.(DeltaSource)

	prevG, prevH := d.At(0), d.HierarchyAt(0)
	baseG, baseH := prevG.DeepClone(), prevH.Clone()
	var starts []int
	var gdeltas []*graph.Delta
	var hdeltas []HierarchyDelta
	prevStart := 0
	next := func(r int) int {
		if st != nil {
			if s := st.StableUntil(r); s > r {
				if s >= rounds-1 {
					return rounds // this window covers the rest
				}
				return s + 1
			}
		}
		return r + 1
	}
	for r := next(0); r < rounds; r = next(r) {
		// Each transition is taken from the previous window start, even
		// when that one changed nothing: its state equals the last
		// recorded window's, so the delta is the same, and a forward-only
		// source never has to serve a round behind its working window.
		var gd *graph.Delta
		var hd HierarchyDelta
		if native {
			gd, hd = src.WindowDelta(prevStart, r)
		} else {
			curG, curH := d.At(r), d.HierarchyAt(r)
			gd = graph.DeltaBetween(prevG, curG)
			hd = HierarchyDeltaBetween(prevH, curH)
			prevG, prevH = curG, curH
		}
		prevStart = r
		if gd.Empty() && len(hd) == 0 {
			continue
		}
		starts = append(starts, r)
		gdeltas = append(gdeltas, gd)
		hdeltas = append(hdeltas, hd)
	}
	return NewDeltaTrace(baseG, baseH, starts, gdeltas, hdeltas, rounds)
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
