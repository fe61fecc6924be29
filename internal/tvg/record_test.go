package tvg_test

import (
	"math"
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/tvg"
)

// A graph-only Dynamic is recorded by ctvg's recorder, paired with a fixed
// hierarchy, as the facade's flat networks are. These tests pin what that
// recording promises the graph layer: copies rather than aliases of the
// source, and one snapshot per stability window.

// flat pairs a graph-only Dynamic with the all-unaffiliated hierarchy and
// passes its Stability through, promising nothing when it has none.
type flat struct {
	tvg.Dynamic
	hier *ctvg.Hierarchy
}

func (f flat) HierarchyAt(int) *ctvg.Hierarchy { return f.hier }

func (f flat) StableUntil(r int) int {
	if s, ok := f.Dynamic.(tvg.Stability); ok {
		return s.StableUntil(r)
	}
	return r
}

func record(d tvg.Dynamic, rounds int) *ctvg.DeltaTrace {
	return ctvg.Record(flat{d, ctvg.NewHierarchy(d.N())}, rounds)
}

// snapshots records one graph per round, each paired with the
// all-unaffiliated hierarchy.
func snapshots(gs []*graph.Graph) *ctvg.DeltaTrace {
	hs := make([]*ctvg.Hierarchy, len(gs))
	for r, g := range gs {
		hs[r] = ctvg.NewHierarchy(g.N())
	}
	return ctvg.NewTrace(gs, hs)
}

func TestRecord(t *testing.T) {
	s := tvg.Static{G: graph.Ring(5)}
	tr := record(s, 3)
	if tr.Len() != 3 || tr.N() != 5 {
		t.Fatalf("record len=%d n=%d", tr.Len(), tr.N())
	}
	// Recorded snapshots are deep copies.
	tr.At(0).AddEdge(0, 2)
	if s.G.HasEdge(0, 2) {
		t.Fatal("Record aliased source graph")
	}
}

// windowedDynamic alternates between two snapshots in 3-round stable
// windows, advertising exactly those windows through Stability.
type windowedDynamic struct {
	a, b *graph.Graph
}

func (d windowedDynamic) N() int { return d.a.N() }

func (d windowedDynamic) At(r int) *graph.Graph {
	if (r/3)%2 == 0 {
		return d.a
	}
	return d.b
}

func (d windowedDynamic) StableUntil(r int) int { return (r/3+1)*3 - 1 }

func TestRecordDedupsStableWindows(t *testing.T) {
	d := windowedDynamic{a: graph.Path(5), b: graph.Ring(5)}
	tr := record(d, 8)

	// Stability windows survive recording…
	for r, want := range []int{2, 2, 2, 5, 5, 5, math.MaxInt, math.MaxInt} {
		if got := tr.StableUntil(r); got != want {
			t.Errorf("StableUntil(%d) = %d want %d", r, got, want)
		}
	}
	// …and a window stores ONE snapshot, not one clone per round.
	if tr.At(0) != tr.At(1) || tr.At(1) != tr.At(2) {
		t.Error("rounds of the first stable window do not share a snapshot")
	}
	if tr.At(3) != tr.At(4) || tr.At(4) != tr.At(5) {
		t.Error("rounds of the second stable window do not share a snapshot")
	}
	if tr.At(2) == tr.At(3) {
		t.Error("distinct windows share a snapshot")
	}
	// Recorded snapshots are still copies, not aliases of the source.
	if tr.At(0) == d.a || tr.At(3) == d.b {
		t.Error("Record aliased the source graphs")
	}
	for r := 0; r < 8; r++ {
		if !tr.At(r).Equal(d.At(r)) {
			t.Fatalf("round %d content mismatch", r)
		}
	}
}
