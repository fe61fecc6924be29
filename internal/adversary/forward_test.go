package adversary

import (
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// forwardCase pairs a forward-only adversary with a memoising one drawn
// from the same seed. fwdH and memH are nil for the flat adversaries.
type forwardCase struct {
	name     string
	rounds   int
	fwd, mem func(r int) *graph.Graph
	fwdH     func(r int) *ctvg.Hierarchy
	memH     func(r int) *ctvg.Hierarchy
}

func forwardCases() []forwardCase {
	var cases []forwardCase
	for _, cfg := range []HiNetConfig{
		{N: 40, Theta: 8, L: 2, T: 1, Reaffiliations: 3, HeadChurn: 1},
		{N: 40, Theta: 8, L: 2, T: 1, Reaffiliations: 3, HeadChurn: 1, ChurnEdges: 6},
		{N: 50, Theta: 10, L: 3, T: 3, Reaffiliations: 4, HeadChurn: 2},
		{N: 50, Theta: 10, L: 3, T: 3, Reaffiliations: 4, HeadChurn: 2, ChurnEdges: 8},
		// The Table 3 (1, L)-HiNet row: no head rotation, so links and
		// gateway chains are shared from phase to phase.
		{N: 100, Theta: 30, L: 2, T: 1, Reaffiliations: 5, ChurnEdges: 10},
	} {
		fwd := NewHiNet(cfg, xrand.New(5)).ForwardOnly()
		mem := NewHiNet(cfg, xrand.New(5))
		cases = append(cases, forwardCase{
			name: "hinet", rounds: 6*cfg.T + 2,
			fwd: fwd.At, mem: mem.At, fwdH: fwd.HierarchyAt, memH: mem.HierarchyAt,
		})
	}
	for _, churn := range []int{0, 7} {
		fwd := NewTInterval(30, 4, churn, xrand.New(6)).ForwardOnly()
		mem := NewTInterval(30, 4, churn, xrand.New(6))
		cases = append(cases, forwardCase{name: "tinterval", rounds: 26, fwd: fwd.At, mem: mem.At})
	}
	for _, m := range []int{0, 45} {
		fwd := NewOneInterval(30, m, xrand.New(7)).ForwardOnly()
		mem := NewOneInterval(30, m, xrand.New(7))
		cases = append(cases, forwardCase{name: "oneinterval", rounds: 12, fwd: fwd.At, mem: mem.At})
	}
	return cases
}

// TestForwardOnlyMatchesMemoising pins the recycling modes to the
// memoising ones: over at least four windows, a forward-only adversary
// returns graphs and hierarchies Equal to those of a memoising adversary
// drawn from the same seed. Round r's graph and hierarchy are checked
// again once round r+1 has been generated, which is what the lifetime
// rule promises.
func TestForwardOnlyMatchesMemoising(t *testing.T) {
	for i, c := range forwardCases() {
		var prevG *graph.Graph
		var prevH *ctvg.Hierarchy
		for r := 0; r < c.rounds; r++ {
			g := c.fwd(r)
			if !g.Equal(c.mem(r)) {
				t.Fatalf("case %d (%s): round %d graph differs", i, c.name, r)
			}
			if r > 0 && !prevG.Equal(c.mem(r-1)) {
				t.Fatalf("case %d (%s): round %d graph overwritten by round %d", i, c.name, r-1, r)
			}
			prevG = g
			if c.fwdH == nil {
				continue
			}
			h := c.fwdH(r)
			if !h.Equal(c.memH(r)) {
				t.Fatalf("case %d (%s): round %d hierarchy differs", i, c.name, r)
			}
			if r > 0 && !prevH.Equal(c.memH(r-1)) {
				t.Fatalf("case %d (%s): round %d hierarchy overwritten by round %d", i, c.name, r-1, r)
			}
			prevH = h
		}
	}
}

// TestForwardOnlyRejectsEarlierRounds pins the first clause of the
// lifetime rule: once a later round is generated, asking a forward-only
// adversary for a discarded one panics instead of handing out storage a
// newer round has overwritten.
func TestForwardOnlyRejectsEarlierRounds(t *testing.T) {
	for name, at := range map[string]func(int) *graph.Graph{
		"hinet":       NewHiNet(HiNetConfig{N: 30, Theta: 6, L: 2, T: 2, ChurnEdges: 4}, xrand.New(1)).ForwardOnly().At,
		"tinterval":   NewTInterval(20, 3, 4, xrand.New(1)).ForwardOnly().At,
		"oneinterval": NewOneInterval(20, 0, xrand.New(1)).ForwardOnly().At,
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

// Forward-only round allocations at n = 100, measured on warm adversaries:
// graph storage contributes none. A (1, L)-HiNet phase round reuses the
// dropped phase's hierarchy, graph and gateway map; with no head rotation
// it shares the previous phase's links and gateway chains, so it allocates
// nothing either.
const (
	forwardChurnRoundAllocs  = 0
	forwardPhaseRoundAllocs  = 0
	forwardOneIntervalAllocs = 0
)

// TestForwardOnlyRoundAllocs pins the allocations of one warm forward-only
// At call at the Table 3 point: a churny HiNet round inside a phase, a
// T = 1 HiNet round (a whole new phase plus its churn), and a OneInterval
// round (a fresh spanning tree).
func TestForwardOnlyRoundAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		want float64
		at   func(int) *graph.Graph
		r    int // the last warm-up round
	}{
		{"hinet-churn", forwardChurnRoundAllocs, NewHiNet(HiNetConfig{N: 100, Theta: 30, L: 2, T: 18, Reaffiliations: 20, ChurnEdges: 10}, xrand.New(1)).ForwardOnly().At, 18},
		{"hinet-phase", forwardPhaseRoundAllocs, NewHiNet(HiNetConfig{N: 100, Theta: 30, L: 2, T: 1, Reaffiliations: 5, ChurnEdges: 10}, xrand.New(1)).ForwardOnly().At, 40},
		{"oneinterval", forwardOneIntervalAllocs, NewOneInterval(100, 0, xrand.New(1)).ForwardOnly().At, 40},
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
			t.Errorf("%s: a warm forward-only round allocates %v times, want %v", c.name, got, c.want)
		}
	}
}
