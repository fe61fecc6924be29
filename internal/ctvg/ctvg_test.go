package ctvg

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// starCluster builds a 5-node graph where 0 is a head with members 1,2 and
// gateway 3 (affiliated), plus an unaffiliated node 4 adjacent to 3.
func starCluster() (*graph.Graph, *Hierarchy) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	h := NewHierarchy(5)
	h.SetHead(0)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	h.SetGateway(3, 0)
	return g, h
}

func TestRoleString(t *testing.T) {
	if Member.String() != "m" || Head.String() != "h" || Gateway.String() != "g" || Unaffiliated.String() != "-" {
		t.Fatal("role strings wrong")
	}
	if !strings.HasPrefix(Role(200).String(), "Role(") {
		t.Fatal("unknown role string wrong")
	}
}

func TestNewHierarchyUnaffiliated(t *testing.T) {
	h := NewHierarchy(3)
	for v := 0; v < 3; v++ {
		if h.Role[v] != Unaffiliated || h.Cluster[v] != NoCluster {
			t.Fatal("fresh hierarchy not unaffiliated")
		}
	}
	if h.N() != 3 {
		t.Fatalf("N=%d", h.N())
	}
}

func TestAccessors(t *testing.T) {
	_, h := starCluster()
	heads := h.Heads()
	if len(heads) != 1 || heads[0] != 0 {
		t.Fatalf("heads %v", heads)
	}
	mem := h.MembersOf(0)
	if len(mem) != 3 || mem[0] != 1 || mem[1] != 2 || mem[2] != 3 {
		t.Fatalf("members %v", mem)
	}
	gw := h.Gateways()
	if len(gw) != 1 || gw[0] != 3 {
		t.Fatalf("gateways %v", gw)
	}
	if h.HeadOf(1) != 0 || h.HeadOf(0) != 0 || h.HeadOf(4) != NoCluster {
		t.Fatal("HeadOf wrong")
	}
	if !h.IsHead(0) || h.IsHead(1) {
		t.Fatal("IsHead wrong")
	}
	if !h.IsRelay(0) || !h.IsRelay(3) || h.IsRelay(1) || h.IsRelay(4) {
		t.Fatal("IsRelay wrong")
	}
}

func TestValidateAccepts(t *testing.T) {
	g, h := starCluster()
	if err := h.Validate(g); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(g *graph.Graph, h *Hierarchy)
	}{
		{"head with foreign cluster id", func(g *graph.Graph, h *Hierarchy) {
			h.Cluster[0] = 1
		}},
		{"member without cluster", func(g *graph.Graph, h *Hierarchy) {
			h.Cluster[1] = NoCluster
		}},
		{"member naming non-head", func(g *graph.Graph, h *Hierarchy) {
			h.Cluster[1] = 2
		}},
		{"member not adjacent to head", func(g *graph.Graph, h *Hierarchy) {
			g.RemoveEdge(0, 1)
		}},
		{"gateway naming non-head", func(g *graph.Graph, h *Hierarchy) {
			h.Cluster[3] = 2
		}},
		{"gateway not adjacent to head", func(g *graph.Graph, h *Hierarchy) {
			g.RemoveEdge(0, 3)
		}},
		{"unaffiliated with cluster id", func(g *graph.Graph, h *Hierarchy) {
			h.Cluster[4] = 0
		}},
		{"invalid role value", func(g *graph.Graph, h *Hierarchy) {
			h.Role[4] = Role(99)
		}},
	}
	for _, c := range cases {
		g, h := starCluster()
		c.mutate(g, h)
		if err := h.Validate(g); err == nil {
			t.Fatalf("%s: Validate accepted invalid hierarchy", c.name)
		}
	}
}

func TestValidateSizeMismatch(t *testing.T) {
	_, h := starCluster()
	if err := h.Validate(graph.New(4)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	_, h := starCluster()
	c := h.Clone()
	c.SetHead(4)
	if h.Role[4] == Head {
		t.Fatal("Clone shares storage")
	}
	if !h.Clone().Equal(h) {
		t.Fatal("clone not equal to original")
	}
}

func TestEqualAndSameHeadSet(t *testing.T) {
	_, a := starCluster()
	_, b := starCluster()
	if !a.Equal(b) || !a.SameHeadSet(b) {
		t.Fatal("identical hierarchies compare unequal")
	}
	b.SetMember(4, 0)
	// Head set unchanged but membership differs.
	if a.Equal(b) {
		t.Fatal("different hierarchies compare equal")
	}
	if !a.SameHeadSet(b) {
		t.Fatal("head set should still match")
	}
	b.SetHead(4)
	if a.SameHeadSet(b) {
		t.Fatal("head sets should differ")
	}
	if a.Equal(nil) || a.SameHeadSet(nil) {
		t.Fatal("nil comparisons should be false")
	}
	if a.Equal(NewHierarchy(3)) {
		t.Fatal("size mismatch compares equal")
	}
}

func TestSameCluster(t *testing.T) {
	_, a := starCluster()
	_, b := starCluster()
	if !a.SameCluster(b, 0) {
		t.Fatal("identical clusters differ")
	}
	b.SetMember(4, 0)
	if a.SameCluster(b, 0) {
		t.Fatal("changed cluster compares same")
	}
	// A cluster that exists in neither is vacuously the same.
	if !a.SameCluster(b, 2) {
		t.Fatal("empty clusters should compare same")
	}
	if a.SameCluster(nil, 0) {
		t.Fatal("nil compares same")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g, h := starCluster()
	g2 := g.Clone()
	g2.AddEdge(0, 4)
	h2 := h.Clone()
	h2.SetMember(4, 0)
	tr := NewTrace([]*graph.Graph{g, g2}, []*Hierarchy{h, h2})
	if tr.N() != 5 || tr.Len() != 2 {
		t.Fatalf("N=%d Len=%d", tr.N(), tr.Len())
	}
	if !tr.HierarchyAt(0).Equal(h) || !tr.HierarchyAt(1).Equal(h2) {
		t.Fatal("HierarchyAt wrong")
	}
	if !tr.HierarchyAt(7).Equal(h2) {
		t.Fatal("HierarchyAt past end should repeat last")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestTraceHierarchyNegativePanics(t *testing.T) {
	g, h := starCluster()
	tr := NewTrace([]*graph.Graph{g}, []*Hierarchy{h})
	defer func() {
		if recover() == nil {
			t.Fatal("negative round did not panic")
		}
	}()
	tr.HierarchyAt(-1)
}

func TestNewTraceLengthMismatchPanics(t *testing.T) {
	g, h := starCluster()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewTrace([]*graph.Graph{g, g.Clone()}, []*Hierarchy{h})
}

func TestTraceValidateCatchesBadRound(t *testing.T) {
	g, h := starCluster()
	badH := h.Clone()
	badH.SetMember(4, 2) // 2 is not a head
	tr := NewTrace([]*graph.Graph{g, g.Clone()}, []*Hierarchy{h, badH})
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted bad round")
	}
}

func TestRecord(t *testing.T) {
	g, h := starCluster()
	src := NewTrace([]*graph.Graph{g}, []*Hierarchy{h})
	rec := Record(src, 3)
	if rec.Len() != 3 {
		t.Fatalf("Len=%d", rec.Len())
	}
	// Deep copies.
	rec.HierarchyAt(0).SetHead(4)
	if h.IsHead(4) {
		t.Fatal("Record aliased hierarchy")
	}
}

func TestTraceStableUntilIsMinOfGraphAndHierarchy(t *testing.T) {
	g, h := starCluster()
	h2 := h.Clone()
	h2.SetHead(4) // different hierarchy, same graph

	// Constant graph, hierarchy changes at round 2: hierarchy limits.
	graphs := []*graph.Graph{g, g.Clone(), g.Clone(), g.Clone()}
	tr := NewTrace(graphs, []*Hierarchy{h, h.Clone(), h2, h2.Clone()})
	for r, w := range []int{1, 1, math.MaxInt, math.MaxInt} {
		if got := tr.StableUntil(r); got != w {
			t.Errorf("hier-limited StableUntil(%d) = %d want %d", r, got, w)
		}
	}

	// Constant hierarchy, graph changes at round 1: graph limits.
	ring := graph.Ring(5)
	graphs2 := []*graph.Graph{g, ring, ring.Clone()}
	tr2 := NewTrace(graphs2, []*Hierarchy{h, h.Clone(), h.Clone()})
	for r, w := range []int{0, math.MaxInt, math.MaxInt} {
		if got := tr2.StableUntil(r); got != w {
			t.Errorf("graph-limited StableUntil(%d) = %d want %d", r, got, w)
		}
	}

	// Past the recorded range both components repeat forever.
	if got := tr.StableUntil(50); got != math.MaxInt {
		t.Errorf("StableUntil past end = %d want MaxInt", got)
	}
}

// phasedDynamic presents 2-round phases alternating between two
// (graph, hierarchy) pairs and advertises the windows through Stability.
type phasedDynamic struct {
	g0, g1 *graph.Graph
	h0, h1 *Hierarchy
}

func (d phasedDynamic) N() int { return d.g0.N() }

func (d phasedDynamic) At(r int) *graph.Graph {
	if (r/2)%2 == 0 {
		return d.g0
	}
	return d.g1
}

func (d phasedDynamic) HierarchyAt(r int) *Hierarchy {
	if (r/2)%2 == 0 {
		return d.h0
	}
	return d.h1
}

func (d phasedDynamic) StableUntil(r int) int { return (r/2+1)*2 - 1 }

func TestRecordDedupsStableWindows(t *testing.T) {
	g0, h0 := starCluster()
	g1 := g0.Clone()
	g1.AddEdge(1, 2)
	h1 := h0.Clone()
	h1.SetHead(4)
	d := phasedDynamic{g0: g0, g1: g1, h0: h0, h1: h1}

	tr := Record(d, 6)
	// Windows survive recording (rounds 4-5 are the repeated tail).
	for r, want := range []int{1, 1, 3, 3, math.MaxInt, math.MaxInt} {
		if got := tr.StableUntil(r); got != want {
			t.Errorf("StableUntil(%d) = %d want %d", r, got, want)
		}
	}
	// One clone per window for BOTH layers.
	if tr.At(0) != tr.At(1) || tr.HierarchyAt(0) != tr.HierarchyAt(1) {
		t.Error("first window rounds do not share snapshot/hierarchy")
	}
	if tr.At(2) != tr.At(3) || tr.HierarchyAt(2) != tr.HierarchyAt(3) {
		t.Error("second window rounds do not share snapshot/hierarchy")
	}
	if tr.At(1) == tr.At(2) || tr.HierarchyAt(1) == tr.HierarchyAt(2) {
		t.Error("distinct windows share state")
	}
	// Still copies of the source, and content-faithful.
	if tr.At(0) == g0 || tr.HierarchyAt(0) == h0 {
		t.Error("Record aliased the source")
	}
	for r := 0; r < 6; r++ {
		if !tr.At(r).Equal(d.At(r)) || !tr.HierarchyAt(r).Equal(d.HierarchyAt(r)) {
			t.Fatalf("round %d content mismatch", r)
		}
	}
}

func TestRecordNonPositiveRoundsPanics(t *testing.T) {
	g, h := starCluster()
	src := NewTrace([]*graph.Graph{g}, []*Hierarchy{h})
	defer func() {
		if recover() == nil {
			t.Fatal("Record(d, 0) did not panic")
		}
	}()
	Record(src, 0)
}
