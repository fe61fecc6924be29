package tvg_test

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// StableUntil's boundary behaviour carries the engine's window cache; these
// tests pin the edge cases: the last round of a window and single-snapshot
// traces.

func chain(n int, extra ...graph.Edge) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	for _, e := range extra {
		g.AddEdge(e.U, e.V)
	}
	return g
}

func TestTraceStableUntilLastRoundOfWindow(t *testing.T) {
	a := chain(4)
	b := chain(4, graph.Edge{U: 0, V: 2})
	tr := snapshots([]*graph.Graph{a, a, b, b, a})
	// Round 1 is the LAST round of the first window: its window ends at
	// itself plus the run of equal successors — here exactly round 1.
	if got := tr.StableUntil(1); got != 1 {
		t.Fatalf("StableUntil(1) = %d, want 1", got)
	}
	if got := tr.StableUntil(3); got != 3 {
		t.Fatalf("StableUntil(3) = %d, want 3", got)
	}
	// The final round opens the infinite trailing window.
	if got := tr.StableUntil(4); got != math.MaxInt {
		t.Fatalf("StableUntil(4) = %d, want MaxInt", got)
	}
	// Past-the-end rounds repeat the final snapshot forever.
	if got := tr.StableUntil(100); got != math.MaxInt {
		t.Fatalf("StableUntil(100) = %d, want MaxInt", got)
	}
}

func TestTraceSingleSnapshot(t *testing.T) {
	a := chain(3)
	tr := snapshots([]*graph.Graph{a})
	if got := tr.StableUntil(0); got != math.MaxInt {
		t.Fatalf("StableUntil(0) = %d, want MaxInt", got)
	}
	if !tr.At(7).Equal(a) {
		t.Fatal("past-end At must repeat the single snapshot")
	}
	// A different second snapshot closes round 0's window at round 0.
	b := chain(3, graph.Edge{U: 0, V: 2})
	tr = snapshots([]*graph.Graph{a, b})
	if got := tr.StableUntil(0); got != 0 {
		t.Fatalf("two snapshots: StableUntil(0) = %d, want 0", got)
	}
	if got := tr.StableUntil(1); got != math.MaxInt {
		t.Fatalf("two snapshots: StableUntil(1) = %d, want MaxInt", got)
	}
}
