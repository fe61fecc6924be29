package graph

import (
	"testing"

	"repro/internal/xrand"
)

func TestDeltaBetweenAndApply(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(30)
		a := RandomConnected(n, n-1+rng.Intn(n), rng)
		b := RandomConnected(n, n-1+rng.Intn(n), rng)
		d := DeltaBetween(a, b)
		got := a.ApplyDeltaInto(new(Graph), d)
		if !got.Equal(b) {
			t.Fatalf("trial %d: applying DeltaBetween(a,b) to a != b", trial)
		}
		if got.M() != b.M() {
			t.Fatalf("trial %d: M = %d, want %d", trial, got.M(), b.M())
		}
		back := got.ApplyDeltaInto(new(Graph), d.Inverse())
		if !back.Equal(a) {
			t.Fatalf("trial %d: applying the inverse did not rewind to a", trial)
		}
		// Canonical order and disjointness.
		for i := 1; i < len(d.Add); i++ {
			if d.Add[i-1].U > d.Add[i].U || (d.Add[i-1].U == d.Add[i].U && d.Add[i-1].V >= d.Add[i].V) {
				t.Fatalf("trial %d: Add list not sorted", trial)
			}
		}
		for _, e := range d.Add {
			if e.U >= e.V {
				t.Fatalf("trial %d: non-canonical add %v", trial, e)
			}
		}
	}
}

func TestDeltaBetweenIdentical(t *testing.T) {
	g := FromEdgeList(4, []Edge{{0, 1}, {1, 2}})
	if d := DeltaBetween(g, g); !d.Empty() {
		t.Fatalf("self-delta not empty: %+v", d)
	}
	if d := DeltaBetween(g, g.Clone()); !d.Empty() {
		t.Fatalf("clone-delta not empty: %+v", d)
	}
}

func TestApplyDeltaCopyOnWrite(t *testing.T) {
	g := FromEdgeList(6, []Edge{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	d := &Delta{Add: []Edge{{2, 3}}, Remove: []Edge{{0, 1}}}
	h := g.ApplyDeltaInto(new(Graph), d)

	// Source unchanged.
	if !g.HasEdge(0, 1) || g.HasEdge(2, 3) || g.M() != 4 {
		t.Fatal("ApplyDeltaInto mutated its receiver")
	}
	if h.HasEdge(0, 1) || !h.HasEdge(2, 3) || h.M() != 4 {
		t.Fatalf("ApplyDeltaInto result wrong: %v", h)
	}
	// Untouched vertices share storage; later mutation of either graph
	// must not leak into the other (both sides are frozen).
	if &g.adj[5][0] != &h.adj[5][0] {
		t.Fatal("untouched adjacency was copied, not shared")
	}
	h.AddEdge(5, 0)
	if g.HasEdge(5, 0) {
		t.Fatal("mutation of the derived graph leaked into the source")
	}
	g.RemoveEdge(4, 5)
	if !h.HasEdge(4, 5) {
		t.Fatal("mutation of the source leaked into the derived graph")
	}
}

func TestApplyDeltaUnfrozenSourceStaysSafe(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	h := g.ApplyDeltaInto(new(Graph), &Delta{Add: []Edge{{2, 3}}})
	// The unfrozen source was retroactively frozen so its next mutation
	// copies instead of writing into storage now shared with h.
	g.AddEdge(0, 3)
	if h.HasEdge(0, 3) {
		t.Fatal("source mutation leaked into the derived graph")
	}
	if !h.HasEdge(2, 3) || h.M() != 3 {
		t.Fatalf("derived graph wrong: %v", h)
	}
}

func TestApplyDeltaStrict(t *testing.T) {
	g := FromEdgeList(3, []Edge{{0, 1}})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("add existing", func() { g.ApplyDeltaInto(new(Graph), &Delta{Add: []Edge{{0, 1}}}) })
	mustPanic("remove absent", func() { g.ApplyDeltaInto(new(Graph), &Delta{Remove: []Edge{{1, 2}}}) })
	mustPanic("self-loop", func() { g.ApplyDeltaInto(new(Graph), &Delta{Add: []Edge{{2, 2}}}) })
	mustPanic("out of order", func() { g.ApplyDeltaInto(new(Graph), &Delta{Add: []Edge{{1, 2}, {0, 2}}}) })
	mustPanic("repeated edge", func() { g.ApplyDeltaInto(new(Graph), &Delta{Add: []Edge{{0, 2}, {0, 2}}}) })
	mustPanic("onto itself", func() { g.ApplyDeltaInto(g, &Delta{}) })
	mustPanic("compact add existing", func() { g.ApplyDeltaCompactInto(nil, &Delta{Add: []Edge{{0, 1}}}) })
	mustPanic("compact remove absent", func() { g.ApplyDeltaCompactInto(nil, &Delta{Remove: []Edge{{1, 2}}}) })
	mustPanic("compact onto itself", func() { g.ApplyDeltaCompactInto(g, &Delta{}) })
	// An ApplyDeltaInto result shares its untouched lists with its source,
	// so its lists do not fill one backing array.
	h := g.ApplyDeltaInto(new(Graph), &Delta{Add: []Edge{{1, 2}}})
	mustPanic("compact from a shared layout", func() { h.ApplyDeltaCompactInto(nil, &Delta{}) })
}

func TestDeltaInverse(t *testing.T) {
	d := &Delta{Add: []Edge{{0, 1}}, Remove: []Edge{{2, 3}}}
	inv := d.Inverse()
	if len(inv.Add) != 1 || inv.Add[0] != (Edge{2, 3}) || len(inv.Remove) != 1 || inv.Remove[0] != (Edge{0, 1}) {
		t.Fatalf("Inverse wrong: %+v", inv)
	}
	if d.Len() != 2 || d.Empty() {
		t.Fatal("Len/Empty wrong")
	}
}

func TestSortEdges(t *testing.T) {
	es := []Edge{{2, 3}, {0, 5}, {0, 2}, {1, 4}}
	SortEdges(es)
	want := []Edge{{0, 2}, {0, 5}, {1, 4}, {2, 3}}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("SortEdges order %v, want %v", es, want)
		}
	}
}

// randomStrictDelta draws a strict delta against g: `removes` present
// edges to drop and `adds` absent ones to insert, both lists canonical.
func randomStrictDelta(g *Graph, adds, removes int, rng *xrand.Rand) *Delta {
	present := g.Edges()
	rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
	d := &Delta{Remove: append([]Edge(nil), present[:removes]...)}
	picked := map[Edge]bool{}
	for len(d.Add) < adds {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if e := NormEdge(u, v); u != v && !g.HasEdge(u, v) && !picked[e] {
			picked[e] = true
			d.Add = append(d.Add, e)
		}
	}
	SortEdges(d.Add)
	SortEdges(d.Remove)
	return d
}

// edited is the reference the delta appliers are checked against: a
// thawed clone of g edited with RemoveEdge and AddEdge.
func edited(g *Graph, d *Delta) *Graph {
	want := g.Clone()
	want.thaw()
	for _, e := range d.Remove {
		want.RemoveEdge(e.U, e.V)
	}
	for _, e := range d.Add {
		want.AddEdge(e.U, e.V)
	}
	return want
}

// TestApplyDeltaMatchesIncremental checks ApplyDeltaInto, into a fresh
// graph, against edited on random strict deltas on both sides of the
// 32-change stack buffer.
func TestApplyDeltaMatchesIncremental(t *testing.T) {
	rng := xrand.New(13)
	for _, changes := range []int{0, 1, 32, 33, 100} {
		for trial := 0; trial < 20; trial++ {
			n := 30 + rng.Intn(50)
			g := RandomConnected(n, n-1+rng.Intn(2*n), rng)
			removes := rng.Intn(min(changes, g.M()) + 1)
			d := randomStrictDelta(g, changes-removes, removes, rng)
			want := edited(g, d)
			if got := g.ApplyDeltaInto(new(Graph), d); !got.Equal(want) {
				t.Fatalf("%d changes (%d removes), trial %d: ApplyDeltaInto gave %v, incremental edits %v",
					changes, removes, trial, got, want)
			}
		}
	}
}

var appliedGraph *Graph

// TestApplyDeltaAllocs pins where ApplyDeltaInto keeps its sorted edits:
// on the stack up to 32 edge changes, so a warm call allocates nothing,
// and in one heap buffer per call beyond.
func TestApplyDeltaAllocs(t *testing.T) {
	rng := xrand.New(17)
	g := RandomConnected(100, 150, rng)
	var bufs [2]Graph
	for _, c := range []struct{ adds, removes, want int }{{1, 0, 0}, {10, 0, 0}, {20, 12, 0}, {0, 32, 0}, {21, 12, 1}} {
		d := randomStrictDelta(g, c.adds, c.removes, rng)
		i := 0
		walk := func() { appliedGraph = g.ApplyDeltaInto(&bufs[i%2], d); i++ }
		walk()
		walk() // warms both targets
		if got := testing.AllocsPerRun(20, walk); got != float64(c.want) {
			t.Errorf("%d adds, %d removes: %v allocations, want %d", c.adds, c.removes, got, c.want)
		}
	}
}

// BenchmarkApplyDelta assembles one churny round the way the adversaries'
// At does at the Table 3 point: ten churn edges added over a frozen
// 100-vertex backbone, into one of two recycled graphs. It explains
// sim.StageSnapshot on perfbench's table3-grid, where the TInterval row and
// both HiNet rows build every round this way. Run with -benchmem.
func BenchmarkApplyDelta(b *testing.B) {
	rng := xrand.New(1)
	g := RandomTree(100, rng)
	d := randomStrictDelta(g, 10, 0, rng)
	var bufs [2]Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appliedGraph = g.ApplyDeltaInto(&bufs[i%2], d)
	}
}

// TestApplyDeltaCompactInto chains ApplyDeltaCompactInto between two
// recycled targets, as the HiNet adversary's phases do, with deltas on
// both sides of its 64-change stack buffer: every result equals
// edited's, fills one backing array (so it can be the next call's
// source), and survives its source being overwritten, so it shares no
// storage with it. Once both targets are warm a call allocates nothing.
func TestApplyDeltaCompactInto(t *testing.T) {
	rng := xrand.New(23)
	var bufs [2]Graph
	src := RandomConnected(120, 200, rng)
	for i := 0; i < 40; i++ {
		changes := 1 + rng.Intn(20)
		if i%4 == 3 {
			changes = 65 + rng.Intn(40)
		}
		removes := rng.Intn(min(changes, src.M()) + 1)
		d := randomStrictDelta(src, changes-removes, removes, rng)
		want := edited(src, d)
		got := src.ApplyDeltaCompactInto(&bufs[i%2], d)
		if got != &bufs[i%2] || !got.Equal(want) || !got.Frozen() || len(got.own) != 2*got.M() {
			t.Fatalf("call %d (%d changes): the compact copy differs from the edited one", i, changes)
		}
		keep := got.DeepClone()
		for j := range src.own {
			src.own[j] = -1
		}
		if !got.Equal(keep) {
			t.Fatalf("call %d: the compact copy shares storage with its source", i)
		}
		src = got
	}
	src = src.DeepClone() // not one of the targets
	small := randomStrictDelta(src, 8, 8, rng)
	large := randomStrictDelta(src, 40, 40, rng)
	for name, d := range map[string]*Delta{"small": small, "large": large} {
		i := 0
		if n := testing.AllocsPerRun(20, func() { appliedGraph = src.ApplyDeltaCompactInto(&bufs[i%2], d); i++ }); n != 0 {
			t.Errorf("%s delta: a warm ApplyDeltaCompactInto allocates %v times, want 0", name, n)
		}
	}
}

// TestApplyDeltaIntoRecycles alternates ApplyDeltaInto between two
// recycled targets, as the adversaries do: every result equals
// edited's, the previous result survives the next call intact, and
// once both targets are warm a call allocates nothing.
func TestApplyDeltaIntoRecycles(t *testing.T) {
	rng := xrand.New(21)
	g := RandomConnected(80, 120, rng)
	var bufs [2]Graph
	var prev, prevWant *Graph
	for i := 0; i < 40; i++ {
		d := randomStrictDelta(g, 1+rng.Intn(20), rng.Intn(12), rng)
		got := g.ApplyDeltaInto(&bufs[i%2], d)
		want := edited(g, d)
		if got != &bufs[i%2] || !got.Equal(want) || !got.Frozen() {
			t.Fatalf("call %d: ApplyDeltaInto differs from the edited graph", i)
		}
		if prev != nil && !prev.Equal(prevWant) {
			t.Fatalf("call %d overwrote the previous result", i)
		}
		prev, prevWant = got, want
	}
	d := randomStrictDelta(g, 20, 12, rng)
	i := 0
	if n := testing.AllocsPerRun(20, func() { appliedGraph = g.ApplyDeltaInto(&bufs[i%2], d); i++ }); n != 0 {
		t.Fatalf("a warm ApplyDeltaInto allocates %v times, want 0", n)
	}
}
