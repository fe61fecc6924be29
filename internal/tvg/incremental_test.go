package tvg_test

import (
	"reflect"
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// The incremental checkers (stability-window skips in StableSubgraph,
// IntervalConnected, InfluenceTimes) must be pure optimisations. Each test
// compares the stability-aware path against a naive reference on the same
// trace, accessed both with and without the Stability interface.

// randomTrace records a trace whose windows change by a few random edge
// flips each.
func randomTrace(t *testing.T, n, windows, winLen int, seed uint64) *ctvg.DeltaTrace {
	t.Helper()
	rng := xrand.New(seed)
	g := graph.RandomConnected(n, 2*n, rng)
	var snaps []*graph.Graph
	for w := 0; w < windows; w++ {
		if w > 0 {
			g = g.Clone()
			for i := 0; i < 3; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					if g.HasEdge(u, v) {
						g.RemoveEdge(u, v)
					} else {
						g.AddEdge(u, v)
					}
				}
			}
		}
		for r := 0; r < winLen; r++ {
			snaps = append(snaps, g)
		}
	}
	return snapshots(snaps)
}

// noStability strips the Stability interface from a Dynamic.
type noStability struct {
	d tvg.Dynamic
}

func (s noStability) N() int                { return s.d.N() }
func (s noStability) At(r int) *graph.Graph { return s.d.At(r) }

func naiveStableSubgraph(d tvg.Dynamic, from, T int) *graph.Graph {
	acc := d.At(from).Clone()
	for r := from + 1; r < from+T; r++ {
		acc = graph.Intersect(acc, d.At(r))
	}
	return acc
}

func naiveInfluenceTimes(d tvg.Dynamic, src, from, horizon int) []int {
	n := d.N()
	out := make([]int, n)
	for v := range out {
		out[v] = tvg.Inf
	}
	out[src] = 0
	reached := make([]bool, n)
	reached[src] = true
	frontier := 1
	for step := 0; step < horizon && frontier < n; step++ {
		g := d.At(from + step)
		var newly []int
		for v := 0; v < n; v++ {
			if reached[v] {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if reached[u] {
					newly = append(newly, v)
					break
				}
			}
		}
		for _, v := range newly {
			reached[v] = true
			out[v] = step + 1
			frontier++
		}
	}
	return out
}

func TestStableSubgraphIncremental(t *testing.T) {
	tr := randomTrace(t, 20, 5, 4, 11)
	for from := 0; from < tr.Len()-1; from++ {
		for _, T := range []int{1, 2, 4, 7, tr.Len() - from} {
			if from+T > tr.Len() {
				continue
			}
			want := naiveStableSubgraph(noStability{tr}, from, T)
			got := tvg.StableSubgraph(tr, from, T)
			if !got.Equal(want) {
				t.Fatalf("StableSubgraph(from=%d, T=%d) diverges from naive reference", from, T)
			}
		}
	}
}

func TestIntervalConnectedIncremental(t *testing.T) {
	// A trace of connected windows must pass for every T, with and without
	// the stability fast path.
	tr := randomTrace(t, 16, 4, 5, 12)
	for _, T := range []int{1, 2, 5, 8} {
		fast := tvg.IntervalConnected(tr, T, tr.Len())
		slow := tvg.IntervalConnected(noStability{tr}, T, tr.Len())
		if fast != slow {
			t.Fatalf("T=%d: incremental %v, naive %v", T, fast, slow)
		}
	}

	// A window with a stable disconnection must fail identically: two stable
	// halves joined only in the middle rounds.
	a := graph.FromEdgeList(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	b := a.Clone()
	b.AddEdge(1, 2)
	tr2 := snapshots([]*graph.Graph{a, a, b, a, a})
	for _, T := range []int{1, 2, 3} {
		fast := tvg.IntervalConnected(tr2, T, tr2.Len())
		slow := tvg.IntervalConnected(noStability{tr2}, T, tr2.Len())
		if fast != slow {
			t.Fatalf("disconnected trace, T=%d: incremental %v, naive %v", T, fast, slow)
		}
		if fast {
			t.Fatalf("disconnected trace, T=%d: reported connected", T)
		}
	}
}

func TestInfluenceTimesIncremental(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 6; trial++ {
		tr := randomTrace(t, 18, 4, 5, uint64(20+trial))
		n := tr.N()
		for _, src := range []int{0, n / 2, n - 1} {
			for _, from := range []int{0, 3, 7} {
				horizon := 1 + rng.Intn(tr.Len())
				want := naiveInfluenceTimes(noStability{tr}, src, from, horizon)
				got := tvg.InfluenceTimes(tr, src, from, horizon)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d src %d from %d horizon %d: InfluenceTimes diverges\n got  %v\n want %v",
						trial, src, from, horizon, got, want)
				}
			}
		}
	}
}

func TestInfluenceTimesLongStableWindow(t *testing.T) {
	// A path graph held stable: the flood must advance exactly one hop per
	// round inside the window, not jump to the window end.
	const n = 10
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	tr := snapshots([]*graph.Graph{g, g, g, g, g, g, g, g, g, g, g, g})
	times := tvg.InfluenceTimes(tr, 0, 0, tr.Len())
	for v := 0; v < n; v++ {
		if times[v] != v {
			t.Fatalf("node %d influenced at %d, want %d", v, times[v], v)
		}
	}
	// Horizon shorter than the path: the tail must stay unreachable.
	times = tvg.InfluenceTimes(tr, 0, 0, 4)
	if times[4] != 4 || times[5] != tvg.Inf {
		t.Fatalf("horizon clamp wrong: times[4]=%d times[5]=%d", times[4], times[5])
	}
}
