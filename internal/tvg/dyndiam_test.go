package tvg_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

func TestInfluenceTimesStaticPath(t *testing.T) {
	d := tvg.Static{G: graph.Path(5)}
	times := tvg.InfluenceTimes(d, 0, 0, 10)
	for v := 0; v < 5; v++ {
		if times[v] != v {
			t.Fatalf("times[%d]=%d", v, times[v])
		}
	}
}

func TestInfluenceTimesHorizonCutoff(t *testing.T) {
	d := tvg.Static{G: graph.Path(5)}
	times := tvg.InfluenceTimes(d, 0, 0, 2)
	if times[2] != 2 || times[3] != tvg.Inf || times[4] != tvg.Inf {
		t.Fatalf("times %v", times)
	}
}

func TestInfluenceTimesDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	d := tvg.Static{G: g}
	times := tvg.InfluenceTimes(d, 0, 0, 10)
	if times[1] != 1 || times[2] != tvg.Inf {
		t.Fatalf("times %v", times)
	}
}

func TestInfluenceThroughChangingEdges(t *testing.T) {
	// Round 0 has edge 0-1 only; round 1 has edge 1-2 only. Influence
	// from 0 reaches 2 in exactly 2 rounds even though no single snapshot
	// connects them.
	g0 := graph.New(3)
	g0.AddEdge(0, 1)
	g1 := graph.New(3)
	g1.AddEdge(1, 2)
	tr := snapshots([]*graph.Graph{g0, g1})
	times := tvg.InfluenceTimes(tr, 0, 0, 5)
	if times[1] != 1 || times[2] != 2 {
		t.Fatalf("times %v", times)
	}
	// Starting at round 1, node 0 can never reach 2 (edge 0-1 is gone and
	// the trace repeats g1 forever).
	times = tvg.InfluenceTimes(tr, 0, 1, 5)
	if times[1] != tvg.Inf || times[2] != tvg.Inf {
		t.Fatalf("from round 1: times %v", times)
	}
}

func TestFloodTime(t *testing.T) {
	d := tvg.Static{G: graph.Path(4)}
	if got := tvg.FloodTime(d, 0, 0, 10); got != 3 {
		t.Fatalf("FloodTime=%d", got)
	}
	if got := tvg.FloodTime(d, 1, 0, 10); got != 2 {
		t.Fatalf("FloodTime from middle=%d", got)
	}
	if got := tvg.FloodTime(d, 0, 0, 2); got != tvg.Inf {
		t.Fatalf("FloodTime with small budget=%d", got)
	}
}

func TestDynamicDiameterStatic(t *testing.T) {
	// Static connected graph: dynamic diameter equals the graph diameter.
	d := tvg.Static{G: graph.Path(6)}
	if got := tvg.DynamicDiameter(d, 3, 10); got != 5 {
		t.Fatalf("DynamicDiameter=%d", got)
	}
}

func TestDynamicDiameterOneIntervalBound(t *testing.T) {
	// Any 1-interval connected network has dynamic diameter <= n-1.
	rng := xrand.New(3)
	snaps := make([]*graph.Graph, 12)
	for i := range snaps {
		snaps[i] = graph.RandomTree(8, rng)
	}
	tr := snapshots(snaps)
	got := tvg.DynamicDiameter(tr, 4, 7)
	if got == tvg.Inf || got > 7 {
		t.Fatalf("DynamicDiameter=%d exceeds n-1", got)
	}
}

func TestDynamicDiameterInf(t *testing.T) {
	g := graph.New(3) // empty forever
	if got := tvg.DynamicDiameter(tvg.Static{G: g}, 1, 5); got != tvg.Inf {
		t.Fatalf("DynamicDiameter of empty graph = %d", got)
	}
}

func TestDynamicDiameterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tvg.DynamicDiameter(tvg.Static{G: graph.Path(2)}, 0, 5)
}

func BenchmarkDynamicDiameter(b *testing.B) {
	rng := xrand.New(1)
	snaps := make([]*graph.Graph, 30)
	for i := range snaps {
		snaps[i] = graph.RandomConnected(40, 60, rng)
	}
	tr := snapshots(snaps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tvg.DynamicDiameter(tr, 5, 39)
	}
}
