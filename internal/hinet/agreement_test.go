package hinet

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// changingHierarchy is a 10-node, 12-round network that opens a window
// every round: one churn edge moves each round, and the hierarchy changes
// at rounds 3 and 5 (a member moves, the heads stay), 7 (node 9 becomes a
// head) and 9 (a member moves). The window [4, 8) therefore starts after
// the first change, sees two more, and changes its head set only at the
// last of them.
func changingHierarchy() *ctvg.Trace {
	const n, rounds = 10, 12
	h := ctvg.NewHierarchy(n)
	h.SetHead(0)
	h.SetHead(1)
	for v := 2; v < n; v++ {
		h.SetMember(v, v%2)
	}
	var snaps []*graph.Graph
	var hier []*ctvg.Hierarchy
	for r := 0; r < rounds; r++ {
		switch r {
		case 3, 5, 9:
			h = h.Clone()
			v := map[int]int{3: 4, 5: 6, 9: 2}[r]
			h.SetMember(v, 1-h.HeadOf(v))
		case 7:
			h = h.Clone()
			h.SetHead(9)
			h.SetMember(7, 9)
		}
		edges := []graph.Edge{{U: 0, V: 8}, {U: 1, V: 9}, {U: 2 + r%8, V: 2 + (r+3)%8}}
		for v := 2; v < n; v++ {
			if h.Role[v] == ctvg.Member {
				edges = append(edges, graph.NormEdge(v, h.HeadOf(v)))
			}
		}
		if r%4 != 2 { // the heads' backbone 0-8-9-1 breaks every fourth round
			edges = append(edges, graph.Edge{U: 8, V: 9})
		}
		snaps = append(snaps, graph.FromEdgeList(n, edges))
		hier = append(hier, h)
	}
	return ctvg.NewTrace(tvg.NewTrace(snaps), hier)
}

// TestCheckersAgreeOnDeltaTrace runs every checker on a DeltaTrace, whose
// cursor recycles two buffers a layer, and on the snapshot Trace that
// ctvg.Record makes of the same recording: every answer must agree.
func TestCheckersAgreeOnDeltaTrace(t *testing.T) {
	fixture := changingHierarchy()
	if h := fixture.HierarchyAt; h(4).Equal(h(5)) || !h(4).SameHeadSet(h(6)) || h(6).SameHeadSet(h(7)) {
		t.Fatal("test setup: window [4, 8) must change the hierarchy twice and the heads only last")
	}
	hiNet := adversary.NewHiNet(adversary.HiNetConfig{
		N: 40, Theta: 6, Heads: 4, L: 2, T: 3, Reaffiliations: 3, HeadChurn: 1, ChurnEdges: 4,
	}, xrand.New(9))
	for _, c := range []struct {
		name   string
		src    ctvg.Dynamic
		rounds int
	}{{"fixture", fixture, fixture.Len()}, {"hinet", hiNet, 18}} {
		t.Run(c.name, func(t *testing.T) {
			dt := ctvg.RecordDeltas(c.src, c.rounds)
			rec := ctvg.Record(dt, c.rounds)
			if dt.Windows() != c.rounds {
				t.Fatalf("%d windows over %d rounds, want one a round", dt.Windows(), c.rounds)
			}
			heads := rec.HierarchyAt(0).Heads()
			for _, r := range []int{c.rounds / 2, c.rounds - 1} {
				heads = append(heads, rec.HierarchyAt(r).Heads()...)
			}
			answers := func(d ctvg.Dynamic, from, T int) string {
				a := []bool{HeadSetStable(d, from, T), HierarchyStable(d, from, T),
					HeadConnectivity(d, from, T), tvg.WindowConnected(d, from, T)}
				for _, k := range heads {
					a = append(a, ClusterStable(d, k, from, T))
				}
				for L := 0; L <= 3; L++ {
					a = append(a, LHopHeadConnectivity(d, from, T, L))
				}
				return fmt.Sprint(a)
			}
			for from := 0; from < c.rounds; from++ {
				for T := 1; from+T <= c.rounds; T++ {
					if got, want := answers(dt, from, T), answers(rec, from, T); got != want {
						t.Errorf("window [%d, %d): delta trace answers %s, snapshots %s", from, from+T, got, want)
					}
				}
			}
			for horizon := 1; horizon <= c.rounds; horizon++ {
				if got, want := Probe(dt, horizon), Probe(rec, horizon); got != want {
					t.Errorf("Probe(%d): delta trace %+v, snapshots %+v", horizon, got, want)
				}
				for T := 1; T <= horizon; T++ {
					if got, want := tvg.IntervalConnected(dt, T, horizon), tvg.IntervalConnected(rec, T, horizon); got != want {
						t.Errorf("IntervalConnected(%d, %d): delta trace %v, snapshots %v", T, horizon, got, want)
					}
					m := Model{T: T, L: 2}
					if got, want := fmt.Sprint(m.CheckValid(dt, horizon/T)), fmt.Sprint(m.CheckValid(rec, horizon/T)); got != want {
						t.Errorf("CheckValid(T %d, %d phases): delta trace %s, snapshots %s", T, horizon/T, got, want)
					}
				}
			}
		})
	}
}
