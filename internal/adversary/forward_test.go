package adversary

import (
	"testing"

	"repro/internal/ctvg"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// lifetimeCase is one adversary's round sequence: at returns round r's
// graph and hier its hierarchy (nil for the flat adversaries).
type lifetimeCase struct {
	name   string
	rounds int
	at     func(r int) *graph.Graph
	hier   func(r int) *ctvg.Hierarchy
}

func lifetimeCases() []lifetimeCase {
	var cases []lifetimeCase
	for _, cfg := range []HiNetConfig{
		{N: 40, Theta: 8, L: 2, T: 1, Reaffiliations: 3, HeadChurn: 1},
		{N: 40, Theta: 8, L: 2, T: 1, Reaffiliations: 3, HeadChurn: 1, ChurnEdges: 6},
		{N: 50, Theta: 10, L: 3, T: 3, Reaffiliations: 4, HeadChurn: 2},
		{N: 50, Theta: 10, L: 3, T: 3, Reaffiliations: 4, HeadChurn: 2, ChurnEdges: 8},
		// The Table 3 (1, L)-HiNet row: no head rotation, so links and
		// gateway chains are shared from phase to phase.
		{N: 100, Theta: 30, L: 2, T: 1, Reaffiliations: 5, ChurnEdges: 10},
		// One benched pool node and two swaps per boundary: some boundaries
		// restore the head set, so at seed 5 phases rebuilt on a discarded
		// phase's storage follow phases derived with shared links and
		// gateway chains (rebuilt, rebuilt, rebuilt, derived, rebuilt,
		// derived, rebuilt).
		{N: 40, Theta: 4, Heads: 3, L: 2, T: 1, Reaffiliations: 3, HeadChurn: 2, ChurnEdges: 6},
	} {
		a := NewHiNet(cfg, xrand.New(5))
		cases = append(cases, lifetimeCase{name: "hinet", rounds: 6*cfg.T + 2, at: a.At, hier: a.HierarchyAt})
	}
	for _, churn := range []int{0, 7} {
		cases = append(cases, lifetimeCase{name: "tinterval", rounds: 26, at: NewTInterval(30, 4, churn, xrand.New(6)).At})
	}
	for _, m := range []int{0, 45} {
		cases = append(cases, lifetimeCase{name: "oneinterval", rounds: 12, at: NewOneInterval(30, m, xrand.New(7)).At})
	}
	mob := NewMobility(MobilityConfig{
		N: 30, Field: geom.Field{W: 60, H: 60}, Radius: 15,
		MinSpeed: 1, MaxSpeed: 3, EnsureConnected: true,
	}, xrand.New(8))
	cases = append(cases, lifetimeCase{name: "mobility", rounds: 12, at: mob.At, hier: mob.HierarchyAt})
	return cases
}

// TestRoundLifetime pins the second clause of the lifetime rule on all
// four adversaries: once round r+1 has been generated, the graph and
// hierarchy handed out for round r still equal deep copies taken when they
// were returned. The T = 1 HiNets start a phase every round, each on the
// storage of a discarded one; the churny adversaries alternate two round
// graphs.
func TestRoundLifetime(t *testing.T) {
	for i, c := range lifetimeCases() {
		var prevG, keptG *graph.Graph
		var prevH, keptH *ctvg.Hierarchy
		for r := 0; r < c.rounds; r++ {
			g := c.at(r)
			var h *ctvg.Hierarchy
			if c.hier != nil {
				h = c.hier(r)
			}
			if r > 0 && !prevG.Equal(keptG) {
				t.Fatalf("case %d (%s): round %d graph overwritten by round %d", i, c.name, r-1, r)
			}
			if r > 0 && h != nil && !prevH.Equal(keptH) {
				t.Fatalf("case %d (%s): round %d hierarchy overwritten by round %d", i, c.name, r-1, r)
			}
			prevG, keptG = g, g.DeepClone()
			if h != nil {
				prevH, keptH = h, h.Clone()
			}
		}
	}
}

// TestForwardOnlyRejectsEarlierRounds pins the first clause of the
// lifetime rule: once a later round is generated, asking an adversary for
// a discarded one panics instead of handing out storage a newer round has
// overwritten.
func TestForwardOnlyRejectsEarlierRounds(t *testing.T) {
	for name, at := range map[string]func(int) *graph.Graph{
		"hinet":       NewHiNet(HiNetConfig{N: 30, Theta: 6, L: 2, T: 2, ChurnEdges: 4}, xrand.New(1)).At,
		"tinterval":   NewTInterval(20, 3, 4, xrand.New(1)).At,
		"oneinterval": NewOneInterval(20, 0, xrand.New(1)).At,
		"mobility": NewMobility(MobilityConfig{
			N: 20, Field: geom.Field{W: 50, H: 50}, Radius: 15, MinSpeed: 1, MaxSpeed: 2,
		}, xrand.New(1)).At,
	} {
		at(4)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: round 2 after round 4 did not panic", name)
				}
			}()
			at(2)
		}()
	}
}

// Round allocations at n = 100, measured on warm adversaries:
// graph storage contributes none. A (1, L)-HiNet phase round derives its
// phase into the dropped phase's hierarchy and graph storage and shares
// the previous phase's links and gateway chains, so it allocates nothing
// either.
const (
	forwardChurnRoundAllocs  = 0
	forwardPhaseRoundAllocs  = 0
	forwardOneIntervalAllocs = 0
)

// TestForwardOnlyRoundAllocs pins the allocations of one warm At call at
// the Table 3 point: a churny HiNet round inside a phase, a
// T = 1 HiNet round (a whole new phase plus its churn), and a OneInterval
// round (a fresh spanning tree).
func TestForwardOnlyRoundAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		want float64
		at   func(int) *graph.Graph
		r    int // the last warm-up round
	}{
		{"hinet-churn", forwardChurnRoundAllocs, NewHiNet(HiNetConfig{N: 100, Theta: 30, L: 2, T: 18, Reaffiliations: 20, ChurnEdges: 10}, xrand.New(1)).At, 18},
		{"hinet-phase", forwardPhaseRoundAllocs, NewHiNet(HiNetConfig{N: 100, Theta: 30, L: 2, T: 1, Reaffiliations: 5, ChurnEdges: 10}, xrand.New(1)).At, 40},
		{"oneinterval", forwardOneIntervalAllocs, NewOneInterval(100, 0, xrand.New(1)).At, 40},
	} {
		r := 0
		for ; r <= c.r; r++ {
			c.at(r)
		}
		// Phase 1 of the T = 18 HiNet runs rounds 18..35, so the 17 calls
		// below stay inside it.
		got := testing.AllocsPerRun(16, func() {
			c.at(r)
			r++
		})
		if got != c.want {
			t.Errorf("%s: a warm round allocates %v times, want %v", c.name, got, c.want)
		}
	}
}
