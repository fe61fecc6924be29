package core

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// clusteredStatic turns a random connected topology into a CTVG using the
// real clustering substrate (head election + gateway selection) and holds
// it static — the "deployed clustering layer" integration path, as opposed
// to the scripted HiNet adversary.
func clusteredStatic(t *testing.T, n, m int, rule cluster.Election, seed uint64) (ctvg.Dynamic, *ctvg.Hierarchy, *graph.Graph) {
	t.Helper()
	rng := xrand.New(seed)
	g := graph.RandomConnected(n, m, rng)
	h := cluster.Form(g, cluster.Config{Election: rule})
	if err := h.Validate(g); err != nil {
		t.Fatal(err)
	}
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	return d, h, g
}

// TestAlg1OnFormedClusters runs Algorithm 1 on hierarchies produced by
// each real election rule (MIS lowest-ID, highest-degree, WCDS), not by
// the scripted adversary. Completion must hold with a budget derived from
// the formed hierarchy's own parameters.
func TestAlg1OnFormedClusters(t *testing.T) {
	const n, k = 60, 6
	for _, rule := range []cluster.Election{cluster.LowestID, cluster.HighestDegree, cluster.WCDS} {
		for seed := uint64(0); seed < 4; seed++ {
			d, h, _ := clusteredStatic(t, n, 100, rule, seed)
			theta := len(h.Heads())
			// Static hierarchy: T-interval stable for any T. Budget from
			// Theorem 1 with α=1, L=3 (the worst 1-hop linkage).
			T := Theorem1T(k, 1, 3)
			budget := Theorem1Phases(theta, 1) * T
			assign := token.Spread(n, k, xrand.New(seed+60))
			met := sim.MustRunProtocol(d, Alg1{T: T}, assign,
				sim.Options{MaxRounds: budget, StopWhenComplete: true})
			if !met.Complete {
				t.Fatalf("rule %v seed %d: incomplete (θ=%d): %v", rule, seed, theta, met)
			}
		}
	}
}

// TestAlg1OnFormedClustersBeatsFlooding closes the loop on the paper's
// motivation with the real clustering substrate: fewer token-sends than
// flooding on the same topology and budget.
func TestAlg1OnFormedClustersBeatsFlooding(t *testing.T) {
	const n, k = 80, 8
	d, h, _ := clusteredStatic(t, n, 140, cluster.LowestID, 9)
	theta := len(h.Heads())
	T := Theorem1T(k, 1, 3)
	budget := Theorem1Phases(theta, 1) * T
	assign := token.Spread(n, k, xrand.New(10))

	alg1 := sim.MustRunProtocol(d, Alg1{T: T}, assign, sim.Options{MaxRounds: budget})
	if !alg1.Complete {
		t.Fatalf("alg1 incomplete: %v", alg1)
	}
	flood := sim.MustRunProtocol(d, baseline.Flood{}, assign, sim.Options{MaxRounds: alg1.Rounds})
	if alg1.TokensSent >= flood.TokensSent {
		t.Fatalf("Alg1 on formed clusters (%d) not cheaper than flooding (%d)",
			alg1.TokensSent, flood.TokensSent)
	}
}

// TestAlg2OnMaintainedClusters drives Algorithm 2 through the maintenance
// path: topology perturbed every round, hierarchy incrementally maintained
// (the cluster.Maintain code), dissemination must still complete in n-1
// rounds since every snapshot is connected.
func TestAlg2OnMaintainedClusters(t *testing.T) {
	const n, k = 40, 5
	rng := xrand.New(21)
	// Build a per-round maintained trace: perturb by toggling random
	// extra edges over a stable random tree (always connected).
	backbone := graph.RandomTree(n, rng)
	rounds := Theorem2Rounds(n)
	snaps := make([]*graph.Graph, rounds)
	hiers := make([]*ctvg.Hierarchy, rounds)
	var prev *ctvg.Hierarchy
	for r := 0; r < rounds; r++ {
		g := backbone.Clone()
		for j := 0; j < 8; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		var h *ctvg.Hierarchy
		if prev == nil {
			h = cluster.Form(g, cluster.Config{})
		} else {
			h, _ = cluster.Maintain(g, prev, cluster.Config{})
		}
		if err := h.Validate(g); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		snaps[r] = g
		hiers[r] = h
		prev = h
	}
	d := ctvg.NewTrace(snaps, hiers)
	assign := token.Spread(n, k, xrand.New(22))
	met := sim.MustRunProtocol(d, Alg2{}, assign,
		sim.Options{MaxRounds: rounds, StopWhenComplete: true})
	if !met.Complete {
		t.Fatalf("Alg2 on maintained clusters incomplete: %v", met)
	}
}
