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
func changingHierarchy() *ctvg.DeltaTrace {
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
	return ctvg.NewTrace(snaps, hier)
}

// copies serves deep copies of a recording's rounds, one a round, and
// advertises no stability windows, so every checker takes its slow path
// on it.
type copies struct {
	gs []*graph.Graph
	hs []*ctvg.Hierarchy
}

func copiesOf(d ctvg.Dynamic, rounds int) copies {
	c := copies{make([]*graph.Graph, rounds), make([]*ctvg.Hierarchy, rounds)}
	for r := range rounds {
		c.gs[r], c.hs[r] = d.At(r).DeepClone(), d.HierarchyAt(r).Clone()
	}
	return c
}

func (c copies) N() int                            { return c.gs[0].N() }
func (c copies) At(r int) *graph.Graph             { return c.gs[min(r, len(c.gs)-1)] }
func (c copies) HierarchyAt(r int) *ctvg.Hierarchy { return c.hs[min(r, len(c.hs)-1)] }

// TestCheckersAgreeOnDeltaTrace runs every checker on a DeltaTrace, whose
// cursor recycles two buffers a layer and whose StableUntil lets the
// checkers skip unchanged rounds, and on per-round deep copies of the same
// recording served without StableUntil: the fast paths must give the slow
// paths' answers.
func TestCheckersAgreeOnDeltaTrace(t *testing.T) {
	fixture := changingHierarchy()
	if h := fixture.HierarchyAt; h(4).Equal(h(5)) || !h(4).SameHeadSet(h(6)) || h(6).SameHeadSet(h(7)) {
		t.Fatal("test setup: window [4, 8) must change the hierarchy twice and the heads only last")
	}
	hiNet := func(churn int) ctvg.Dynamic {
		return adversary.NewHiNet(adversary.HiNetConfig{
			N: 40, Theta: 6, Heads: 4, L: 2, T: 3, Reaffiliations: 3, HeadChurn: 1, ChurnEdges: churn,
		}, xrand.New(9))
	}
	// Without churn edges the HiNet's windows are its 3-round phases, so
	// the checkers' skips over unchanged rounds engage.
	for _, c := range []struct {
		name            string
		src             ctvg.Dynamic
		rounds, windows int
	}{{"fixture", fixture, fixture.Len(), fixture.Len()}, {"hinet", hiNet(4), 18, 18}, {"phases", hiNet(0), 18, 6}} {
		t.Run(c.name, func(t *testing.T) {
			dt := ctvg.Record(c.src, c.rounds)
			rec := copiesOf(dt, c.rounds)
			if dt.Windows() != c.windows {
				t.Fatalf("%d windows over %d rounds, want %d", dt.Windows(), c.rounds, c.windows)
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
						t.Errorf("window [%d, %d): delta trace answers %s, copies %s", from, from+T, got, want)
					}
				}
			}
			for horizon := 1; horizon <= c.rounds; horizon++ {
				if got, want := Probe(dt, horizon), Probe(rec, horizon); got != want {
					t.Errorf("Probe(%d): delta trace %+v, copies %+v", horizon, got, want)
				}
				for T := 1; T <= horizon; T++ {
					if got, want := tvg.IntervalConnected(dt, T, horizon), tvg.IntervalConnected(rec, T, horizon); got != want {
						t.Errorf("IntervalConnected(%d, %d): delta trace %v, copies %v", T, horizon, got, want)
					}
					m := Model{T: T, L: 2}
					if got, want := fmt.Sprint(m.CheckValid(dt, horizon/T)), fmt.Sprint(m.CheckValid(rec, horizon/T)); got != want {
						t.Errorf("CheckValid(T %d, %d phases): delta trace %s, copies %s", T, horizon/T, got, want)
					}
				}
			}
		})
	}
}
