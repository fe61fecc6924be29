package ctvg

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// snapshots is a CTVG given as one graph and one hierarchy per round,
// served as listed; rounds past the end repeat the last. It is the oracle
// recordings are checked against, so it keeps every round and advertises
// no windows: stableUntil finds them by comparing rounds.
type snapshots struct {
	gs []*graph.Graph
	hs []*Hierarchy
}

func (s snapshots) N() int                       { return s.gs[0].N() }
func (s snapshots) Len() int                     { return len(s.gs) }
func (s snapshots) At(r int) *graph.Graph        { return s.gs[min(r, len(s.gs)-1)] }
func (s snapshots) HierarchyAt(r int) *Hierarchy { return s.hs[min(r, len(s.hs)-1)] }

// stableUntil is StableUntil found by comparing the rounds after r with r.
func (s snapshots) stableUntil(r int) int {
	for e := r; e < len(s.gs)-1; e++ {
		if !s.gs[e+1].Equal(s.gs[r]) || !s.hs[e+1].Equal(s.hs[r]) {
			return e
		}
	}
	return math.MaxInt
}

// buildClusteredTrace assembles a small clustered CTVG whose windows
// change a few member edges and roles each, exercising both delta layers.
func buildClusteredTrace(t *testing.T, windows, winLen int, seed uint64) snapshots {
	t.Helper()
	const n = 20
	rng := xrand.New(seed)
	g := graph.New(n)
	h := NewHierarchy(n)
	h.SetHead(0)
	h.SetHead(1)
	for v := 2; v < n; v++ {
		head := rng.Intn(2)
		h.SetMember(v, head)
		g.AddEdge(v, head)
	}
	g.AddEdge(0, 1)

	var snaps []*graph.Graph
	var hier []*Hierarchy
	for w := 0; w < windows; w++ {
		if w > 0 {
			g = g.Clone()
			h = h.Clone()
			for i := 0; i < 2; i++ {
				v := 2 + rng.Intn(n-2)
				old := h.HeadOf(v)
				nh := 1 - old
				g.RemoveEdge(v, old)
				g.AddEdge(v, nh)
				h.SetMember(v, nh)
			}
		}
		for r := 0; r < winLen; r++ {
			snaps = append(snaps, g)
			hier = append(hier, h)
		}
	}
	return snapshots{snaps, hier}
}

// TestCTVGDeltaTraceMatchesTrace checks both ways of recording a snapshot
// list, Record over it and NewTrace from it, against the list itself.
func TestCTVGDeltaTraceMatchesTrace(t *testing.T) {
	tr := buildClusteredTrace(t, 6, 4, 1)
	for name, dt := range map[string]*DeltaTrace{
		"Record":   Record(tr, tr.Len()),
		"NewTrace": NewTrace(tr.gs, tr.hs),
	} {
		for r := 0; r < tr.Len()+5; r++ {
			if !dt.At(r).Equal(tr.At(r)) {
				t.Fatalf("%s: round %d: snapshot mismatch", name, r)
			}
			if !dt.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
				t.Fatalf("%s: round %d: hierarchy mismatch", name, r)
			}
			if got, want := dt.StableUntil(r), tr.stableUntil(r); got != want {
				t.Fatalf("%s: round %d: StableUntil %d, want %d", name, r, got, want)
			}
		}
		for r := tr.Len() - 1; r >= 0; r-- {
			if !dt.At(r).Equal(tr.At(r)) || !dt.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
				t.Fatalf("%s: round %d: backward mismatch", name, r)
			}
		}
		rng := xrand.New(5)
		for i := 0; i < 40; i++ {
			r := rng.Intn(tr.Len())
			if !dt.At(r).Equal(tr.At(r)) || !dt.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
				t.Fatalf("%s: round %d: random-access mismatch", name, r)
			}
		}
		if err := dt.Validate(); err != nil {
			t.Fatalf("%s: delta trace fails model validation: %v", name, err)
		}
	}
}

func TestCTVGDeltaTracePointerStability(t *testing.T) {
	tr := buildClusteredTrace(t, 4, 5, 2)
	dt := Record(tr, tr.Len())
	for r := 0; r < tr.Len(); r++ {
		if dt.At(r) != dt.At(r) || dt.HierarchyAt(r) != dt.HierarchyAt(r) {
			t.Fatalf("round %d: repeated access returned distinct pointers", r)
		}
	}
	// Record over the delta trace must dedup windows via those pointers and
	// reproduce the original window structure.
	rec := Record(dt, tr.Len())
	for r := 0; r < tr.Len(); r++ {
		if got, want := rec.StableUntil(r), tr.stableUntil(r); got != want {
			t.Fatalf("round %d: re-recorded StableUntil %d, want %d", r, got, want)
		}
	}
}

func TestHierarchyDeltaRoundTrip(t *testing.T) {
	a := NewHierarchy(6)
	a.SetHead(0)
	a.SetMember(1, 0)
	a.SetGateway(2, 0)
	b := a.Clone()
	b.SetHead(3)
	b.SetMember(1, 3)
	b.SetMember(2, 3)

	d := HierarchyDeltaBetween(a, b)
	if len(d) != 3 {
		t.Fatalf("delta has %d changes, want 3", len(d))
	}
	fwd := a.applyInto(nil, d, false)
	if !fwd.Equal(b) {
		t.Fatal("applying the delta did not reach b")
	}
	back := fwd.applyInto(nil, d, true)
	if !back.Equal(a) {
		t.Fatal("undoing the delta did not rewind to a")
	}
	if HierarchyDeltaBetween(a, a) != nil {
		t.Fatal("self-delta not empty")
	}
}

func TestHierarchyDeltaStrict(t *testing.T) {
	a := NewHierarchy(3)
	a.SetHead(0)
	d := HierarchyDelta{{V: 1, OldRole: Member, NewRole: Head, OldCluster: 0, NewCluster: 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("applying a delta to a mismatched state did not panic")
		}
	}()
	a.applyInto(nil, d, false) // node 1 is Unaffiliated, not Member
}

func TestCTVGDeltaTraceHierarchyOnlyWindow(t *testing.T) {
	// A transition that changes only the hierarchy (same graph) must still
	// open a window, mirroring Trace's min-of-both-layers StableUntil.
	g := graph.FromEdgeList(4, []graph.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
	h1 := NewHierarchy(4)
	h1.SetHead(0)
	h1.SetMember(2, 0)
	h1.SetMember(3, 0)
	h1.SetHead(1)
	h2 := h1.Clone()
	h2.SetMember(3, 1)
	tr := NewTrace([]*graph.Graph{g, g, g, g}, []*Hierarchy{h1, h1, h2, h2})
	dt := Record(tr, 4)
	if dt.Windows() != 2 {
		t.Fatalf("windows = %d, want 2", dt.Windows())
	}
	if got := dt.StableUntil(0); got != 1 {
		t.Fatalf("StableUntil(0) = %d, want 1", got)
	}
	if got := dt.StableUntil(2); got != math.MaxInt {
		t.Fatalf("StableUntil(2) = %d, want MaxInt", got)
	}
	if dt.At(0) != dt.At(2) {
		// Graph layer is untouched; the snapshot may legitimately share
		// the same pointer across the hierarchy-only transition.
		t.Log("graph pointer changed across hierarchy-only window (allowed)")
	}
	if !dt.HierarchyAt(2).Equal(h2) || !dt.HierarchyAt(0).Equal(h1) {
		t.Fatal("hierarchy windows wrong")
	}
}

// TestRecordDedupsWithoutStability checks that a source handing back the
// same graph and hierarchy for consecutive rounds without implementing
// Stability still records one shared snapshot per run of equal rounds.
func TestRecordDedupsWithoutStability(t *testing.T) {
	g0, h0 := starCluster()
	g1 := g0.Clone()
	g1.AddEdge(1, 2)
	d := struct{ Dynamic }{phasedDynamic{g0: g0, g1: g1, h0: h0, h1: h0}}
	if _, ok := d.Dynamic.(Stability); !ok {
		t.Fatal("test setup: phasedDynamic must advertise Stability")
	}
	var dyn Dynamic = d
	if _, ok := dyn.(Stability); ok {
		t.Fatal("test setup: wrapper must not advertise Stability")
	}
	tr := Record(dyn, 6)
	if tr.At(0) != tr.At(1) {
		t.Error("equal rounds were recorded separately")
	}
	if tr.At(1) == tr.At(2) {
		t.Error("different rounds share a snapshot")
	}
	// Rounds 4-5 are the trace tail, which repeats forever.
	for r, want := range []int{1, 1, 3, 3, math.MaxInt, math.MaxInt} {
		if got := tr.StableUntil(r); got != want {
			t.Errorf("StableUntil(%d) = %d want %d", r, got, want)
		}
	}
}

// ascending serves a trace's rounds only in ascending order, as the
// adversaries do, and remembers the highest round asked for.
type ascending struct {
	snapshots
	last int
}

func (s *ascending) at(r int) int {
	if r < s.last {
		panic("ascending: round asked for twice out of order")
	}
	s.last = r
	return r
}

func (s *ascending) At(r int) *graph.Graph        { return s.snapshots.At(s.at(r)) }
func (s *ascending) HierarchyAt(r int) *Hierarchy { return s.snapshots.HierarchyAt(s.at(r)) }
func (s *ascending) StableUntil(r int) int        { return s.snapshots.stableUntil(s.at(r)) }

// TestRecordingExtendsOnDemand reads a single-pass source through a
// Recording in random order: each request records only up to the window
// holding it, and earlier rounds are served from the recording.
func TestRecordingExtendsOnDemand(t *testing.T) {
	tr := buildClusteredTrace(t, 6, 4, 3)
	src := &ascending{snapshots: tr}
	rec := Recording(src)
	if rec.Len() != 0 || src.last != 0 {
		t.Fatalf("a fresh recording read its source (len %d)", rec.Len())
	}
	for _, r := range []int{9, 2, 0, 9, 17, 5, 23, 1, 30, 12} {
		if !rec.At(r).Equal(tr.At(r)) || !rec.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
			t.Fatalf("round %d: content mismatch", r)
		}
		if want := tr.stableUntil(r); rec.StableUntil(r) != want && r < 20 {
			t.Fatalf("round %d: StableUntil %d, want %d", r, rec.StableUntil(r), want)
		}
	}
	// Round 30 is past the source's last change, which the source reports
	// as stable forever: the recording is then complete.
	if rec.Len() != math.MaxInt || rec.Windows() != 6 {
		t.Fatalf("after round 30: len %d, %d windows", rec.Len(), rec.Windows())
	}
}

// repeating presents one graph and hierarchy forever but advertises
// T-round windows, like a HiNet with no re-affiliation, head churn or
// churn edges.
type repeating struct {
	g *graph.Graph
	h *Hierarchy
	T int
}

func (d repeating) N() int                     { return d.g.N() }
func (d repeating) At(int) *graph.Graph        { return d.g }
func (d repeating) HierarchyAt(int) *Hierarchy { return d.h }
func (d repeating) StableUntil(r int) int      { return (r/d.T+1)*d.T - 1 }

// TestRecordingStableUntilDoesNotSearchAhead pins the hazard of a lazily
// extended trace: over a source whose windows never change anything,
// StableUntil reports the end of the source window recorded last instead
// of searching for a change that never comes.
func TestRecordingStableUntilDoesNotSearchAhead(t *testing.T) {
	g, h := starCluster()
	rec := Recording(repeating{g: g, h: h, T: 4})
	for _, c := range []struct{ r, want int }{{0, 3}, {2, 3}, {4, 7}, {41, 43}, {1, 43}} {
		if got := rec.StableUntil(c.r); got != c.want {
			t.Errorf("StableUntil(%d) = %d, want %d", c.r, got, c.want)
		}
	}
	if rec.Windows() != 1 || rec.Len() != 44 {
		t.Fatalf("%d windows over %d rounds, want 1 over 44", rec.Windows(), rec.Len())
	}
	// Detached at a fixed length, the same source is stable forever.
	if got := Record(repeating{g: g, h: h, T: 4}, 10).StableUntil(0); got != math.MaxInt {
		t.Fatalf("recorded StableUntil(0) = %d, want MaxInt", got)
	}
}

// TestDeltaTraceCursor pins the cursor's costs and the lifetime rule on a
// recording whose every round opens a window changing both layers: warm
// steps in either direction and a rewind to round 0 allocate nothing, and
// a window's graph and hierarchy stay equal to copies taken when they were
// returned until two further windows have been materialised.
func TestDeltaTraceCursor(t *testing.T) {
	tr := buildClusteredTrace(t, 12, 1, 4)
	last := tr.Len() - 1
	dt := Record(tr, tr.Len())
	if dt.Windows() != tr.Len() {
		t.Fatalf("%d windows over %d rounds, want one a round", dt.Windows(), tr.Len())
	}
	read := func(r int) { dt.At(r); dt.HierarchyAt(r) }
	for _, c := range []struct {
		name string
		walk func()
	}{
		{"forward", func() {
			for r := 0; r <= last; r++ {
				read(r)
			}
		}},
		{"back", func() {
			for r := last; r >= 0; r-- {
				read(r)
			}
		}},
		{"rewind", func() { read(last); read(0) }},
	} {
		c.walk() // fills both buffers of each layer
		if a := testing.AllocsPerRun(10, c.walk); a != 0 {
			t.Errorf("%s: %.0f allocations per walk, want 0", c.name, a)
		}
	}

	for _, step := range []int{1, -1} {
		from, to := 0, last
		if step < 0 {
			from, to = last, 0
		}
		read(from)
		for r := from; r != to; r += step {
			g, h := dt.At(r), dt.HierarchyAt(r)
			gc, hc := g.DeepClone(), h.Clone()
			read(r + step)
			if !g.Equal(gc) || !h.Equal(hc) {
				t.Fatalf("step %d: round %d changed once round %d was materialised", step, r, r+step)
			}
			if !dt.At(r+step).Equal(tr.At(r+step)) || !dt.HierarchyAt(r+step).Equal(tr.HierarchyAt(r+step)) {
				t.Fatalf("step %d: round %d mismatches the snapshot list", step, r+step)
			}
		}
	}
}
