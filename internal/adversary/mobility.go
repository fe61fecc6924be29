package adversary

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ctvg"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// MobilityConfig parameterises the physically-driven adversary.
type MobilityConfig struct {
	// N is the number of mobile nodes.
	N int
	// Field is the deployment area.
	Field geom.Field
	// Radius is the radio range defining the unit-disk graph.
	Radius float64
	// MinSpeed/MaxSpeed/PauseRounds parameterise random waypoint.
	MinSpeed, MaxSpeed float64
	PauseRounds        int
	// Cluster configures incremental clustering maintenance.
	Cluster cluster.Config
	// EnsureConnected, when set, patches each round's snapshot with
	// bridge edges joining connected components (a long-range "base
	// station" link), guaranteeing 1-interval connectivity. Documented
	// substitution: real deployments reach this via higher density; the
	// patch keeps the dissemination guarantees exercisable at small n.
	EnsureConnected bool
}

// Mobility is a CTVG adversary driven by random-waypoint motion: each round
// the nodes move, the unit-disk snapshot is taken, and the cluster
// hierarchy is incrementally maintained (lowest-ID or highest-degree
// election, gateway re-selection). It makes no (T, L)-HiNet promise — it is
// the "reality check" adversary for examples and robustness tests.
//
// Only the current round is kept: each round's snapshot and hierarchy are
// fresh (cluster.Maintain builds a new hierarchy from the last one), so
// nothing needs recycling and the package's lifetime rule holds trivially.
type Mobility struct {
	cfg MobilityConfig
	mob *geom.Mobility
	rng *xrand.Rand

	cur   int // the last generated round; -1 before round 0
	curG  *graph.Graph
	curH  *ctvg.Hierarchy
	stats cluster.Stats
}

// NewMobility builds the adversary.
func NewMobility(cfg MobilityConfig, rng *xrand.Rand) *Mobility {
	if cfg.N < 1 || cfg.Radius <= 0 {
		panic("adversary: invalid mobility config")
	}
	return &Mobility{
		cfg: cfg,
		mob: geom.NewMobility(cfg.N, cfg.Field, cfg.MinSpeed, cfg.MaxSpeed, cfg.PauseRounds, rng.Split()),
		rng: rng,
		cur: -1,
	}
}

// N implements ctvg.Dynamic.
func (a *Mobility) N() int { return a.cfg.N }

// Stats returns accumulated clustering churn over generated rounds.
func (a *Mobility) Stats() cluster.Stats { return a.stats }

// generate advances the motion to round r, clustering every round on the
// way.
func (a *Mobility) generate(r int) {
	if r < 0 {
		panic("adversary: negative round")
	}
	if r < a.cur {
		panic(fmt.Sprintf("adversary: Mobility round %d discarded", r))
	}
	for a.cur < r {
		if a.cur >= 0 {
			a.mob.Step()
		}
		g := a.mob.Snapshot(a.cfg.Radius)
		if a.cfg.EnsureConnected {
			patchConnect(g, a.rng)
		}
		if a.curH == nil {
			a.curH = cluster.Form(g, a.cfg.Cluster)
		} else {
			var st cluster.Stats
			a.curH, st = cluster.Maintain(g, a.curH, a.cfg.Cluster)
			a.stats.Reaffiliations += st.Reaffiliations
			a.stats.NewHeads += st.NewHeads
			a.stats.RemovedHeads += st.RemovedHeads
		}
		a.cur, a.curG = a.cur+1, g
	}
}

// At implements ctvg.Dynamic.
func (a *Mobility) At(r int) *graph.Graph {
	a.generate(r)
	return a.curG
}

// HierarchyAt implements ctvg.Dynamic.
func (a *Mobility) HierarchyAt(r int) *ctvg.Hierarchy {
	a.generate(r)
	return a.curH
}

// patchConnect links the components of g with random bridge edges until g
// is connected.
func patchConnect(g *graph.Graph, rng *xrand.Rand) {
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		a := comps[0][rng.Intn(len(comps[0]))]
		b := comps[1][rng.Intn(len(comps[1]))]
		g.AddEdge(a, b)
	}
}

var _ ctvg.Dynamic = (*Mobility)(nil)
