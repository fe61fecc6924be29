package tvg_test

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

func path(n int) *graph.Graph { return graph.Path(n) }

func TestTraceBasics(t *testing.T) {
	a := path(4)
	b := graph.Ring(4)
	tr := snapshots([]*graph.Graph{a, b})
	if tr.N() != 4 || tr.Len() != 2 {
		t.Fatalf("n=%d len=%d", tr.N(), tr.Len())
	}
	if !tr.At(0).Equal(a) || !tr.At(1).Equal(b) {
		t.Fatal("At returns wrong snapshot")
	}
	// Past the end repeats the last snapshot.
	if !tr.At(10).Equal(b) {
		t.Fatal("At past end should repeat last snapshot")
	}
}

func TestTraceNegativeRoundPanics(t *testing.T) {
	tr := snapshots([]*graph.Graph{path(3)})
	defer func() {
		if recover() == nil {
			t.Fatal("At(-1) did not panic")
		}
	}()
	tr.At(-1)
}

func TestNewTraceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched vertex counts did not panic")
		}
	}()
	snapshots([]*graph.Graph{path(3), path(4)})
}

func TestNewTraceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty trace did not panic")
		}
	}()
	snapshots(nil)
}

func TestStableSubgraphIsIntersection(t *testing.T) {
	// Round 0: path 0-1-2-3; round 1: same path plus chord 0-2; round 2:
	// path only again. Stable subgraph over all three rounds is the path.
	g0 := path(4)
	g1 := path(4)
	g1.AddEdge(0, 2)
	g2 := path(4)
	tr := snapshots([]*graph.Graph{g0, g1, g2})
	st := tvg.StableSubgraph(tr, 0, 3)
	if !st.Equal(path(4)) {
		t.Fatalf("stable subgraph %v", st.Edges())
	}
	// Window of one round is the snapshot itself.
	if !tvg.StableSubgraph(tr, 1, 1).Equal(g1) {
		t.Fatal("T=1 stable subgraph wrong")
	}
}

func TestIntervalConnected(t *testing.T) {
	// A network alternating between two different spanning trees of K4 is
	// 1-interval connected but not 2-interval connected when the trees
	// share no connected spanning intersection.
	t1 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	t2 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 3}, {U: 0, V: 3}})
	tr := snapshots([]*graph.Graph{t1, t2, t1, t2})
	if !tvg.AlwaysConnected(tr, 4) {
		t.Fatal("should be 1-interval connected")
	}
	if tvg.IntervalConnected(tr, 2, 4) {
		t.Fatal("should not be 2-interval connected")
	}
}

func TestIntervalConnectedStableBackbone(t *testing.T) {
	// All snapshots contain a common spanning tree; extra edges churn.
	rng := xrand.New(5)
	backbone := graph.RandomTree(10, rng)
	snaps := make([]*graph.Graph, 8)
	for i := range snaps {
		s := backbone.Clone()
		for j := 0; j < 5; j++ {
			s.AddEdge(rng.Intn(10), (rng.Intn(9)+1+rng.Intn(10))%10)
		}
		snaps[i] = s
	}
	tr := snapshots(snaps)
	if !tvg.IntervalConnected(tr, 8, 8) {
		t.Fatal("trace with common spanning tree should be 8-interval connected")
	}
}

func TestIntervalConnectedArgValidation(t *testing.T) {
	tr := snapshots([]*graph.Graph{path(3)})
	defer func() {
		if recover() == nil {
			t.Fatal("bad args did not panic")
		}
	}()
	tvg.IntervalConnected(tr, 0, 1)
}

func TestDisconnectedSnapshotFailsAlwaysConnected(t *testing.T) {
	disc := graph.New(4)
	disc.AddEdge(0, 1)
	tr := snapshots([]*graph.Graph{path(4), disc})
	if tvg.AlwaysConnected(tr, 2) {
		t.Fatal("trace with disconnected snapshot is not 1-interval connected")
	}
}

func TestStatic(t *testing.T) {
	s := tvg.Static{G: graph.Ring(5)}
	if s.N() != 5 || s.At(0) != s.At(99) {
		t.Fatal("Static wrong")
	}
	if !tvg.IntervalConnected(s, 50, 100) {
		t.Fatal("static connected graph should be T-interval connected for any T")
	}
}

func TestWindowConnectedSingleRound(t *testing.T) {
	tr := snapshots([]*graph.Graph{path(4)})
	if !tvg.WindowConnected(tr, 0, 1) {
		t.Fatal("connected snapshot should pass")
	}
}

func TestStableUntil(t *testing.T) {
	a := path(4)
	b := graph.Ring(4)
	// Rounds: [a, a, b, b, a] — two stable windows then a tail that repeats
	// forever (At clamps to the last snapshot).
	tr := snapshots([]*graph.Graph{a, a.Clone(), b, b.Clone(), a})
	want := []int{1, 1, 3, 3, math.MaxInt}
	for r, w := range want {
		if got := tr.StableUntil(r); got != w {
			t.Errorf("StableUntil(%d) = %d want %d", r, got, w)
		}
	}
	// Past the recorded range the snapshot never changes again.
	if got := tr.StableUntil(100); got != math.MaxInt {
		t.Errorf("StableUntil(100) = %d want MaxInt", got)
	}
}

func TestStableUntilNegativePanics(t *testing.T) {
	tr := snapshots([]*graph.Graph{path(3)})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative round")
		}
	}()
	tr.StableUntil(-1)
}

func TestStaticStableForever(t *testing.T) {
	s := tvg.Static{G: path(3)}
	if got := s.StableUntil(0); got != math.MaxInt {
		t.Fatalf("Static.StableUntil(0) = %d want MaxInt", got)
	}
}
