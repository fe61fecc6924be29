package adversary

import (
	"fmt"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// HiNetConfig parameterises the clustered (T, L)-HiNet adversary.
type HiNetConfig struct {
	// N is the number of nodes.
	N int
	// Theta (θ) is the upper bound on the number of distinct nodes that
	// may ever serve as cluster head: heads are drawn from a fixed pool
	// of this size, matching the paper's "upper bound number of nodes
	// that can be cluster head".
	Theta int
	// Heads is the number of simultaneous cluster heads per phase
	// (0 means Theta).
	Heads int
	// L is the hop bound on cluster-head connectivity (1..3; the paper
	// notes 1-hop clusterings have L <= 3).
	L int
	// T is the phase length in rounds; the hierarchy and backbone are
	// stable within each aligned window [iT, (i+1)T).
	T int
	// Reaffiliations is the number of members moved to a different
	// cluster at each phase boundary.
	Reaffiliations int
	// HeadChurn is the number of heads replaced (from within the θ pool)
	// at each phase boundary; 0 yields the ∞-interval stable head set of
	// Remark 1.
	HeadChurn int
	// ChurnEdges is the number of random extra edges added per round on
	// top of the stable structure, making the instance genuinely dynamic.
	ChurnEdges int
}

// Validate reports whether the configuration can be built: the node count
// must host the heads and their gateway chains, and every count must be in
// range. NewHiNet panics on a configuration that fails it, so a caller
// that takes the parameters from a user checks them here first.
func (c HiNetConfig) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("adversary: N=%d too small", c.N)
	}
	if c.Theta < 1 || c.Theta > c.N {
		return fmt.Errorf("adversary: Theta=%d out of range", c.Theta)
	}
	if c.Heads < 0 || c.Heads > c.Theta {
		return fmt.Errorf("adversary: Heads=%d exceeds Theta=%d", c.Heads, c.Theta)
	}
	if c.L < 1 || c.L > 3 {
		return fmt.Errorf("adversary: L=%d not in 1..3", c.L)
	}
	if c.T < 1 {
		return fmt.Errorf("adversary: T=%d must be positive", c.T)
	}
	if c.Reaffiliations < 0 || c.HeadChurn < 0 || c.ChurnEdges < 0 {
		return fmt.Errorf("adversary: negative churn parameter")
	}
	heads := c.Heads
	if heads == 0 {
		heads = c.Theta
	}
	need := heads + (heads-1)*(c.L-1)
	if c.N < need {
		return fmt.Errorf("adversary: N=%d cannot host %d heads with L=%d (need >= %d)", c.N, heads, c.L, need)
	}
	if c.HeadChurn > heads {
		return fmt.Errorf("adversary: HeadChurn=%d exceeds head count %d", c.HeadChurn, heads)
	}
	return nil
}

// phase is the stable structure of one T-round window.
type phase struct {
	hier   *ctvg.Hierarchy
	stable *graph.Graph // member stars + gateway backbone, constant all phase
	heads  []int
	links  []link         // head-level tree edges
	gwFor  map[link][]int // gateway chain per head-tree edge
}

// link is one edge of the head-level tree.
type link struct{ from, to int }

// HiNetStats counts churn events actually applied.
type HiNetStats struct {
	// Reaffiliations is the total number of member re-affiliation events
	// across all generated phase boundaries (the paper's n_m * n_r
	// aggregate).
	Reaffiliations int
	// HeadChanges is the total number of head replacements applied.
	HeadChanges int
	// Phases is the number of phases generated so far.
	Phases int
}

// HiNet is the clustered adversary realising the paper's (T, L)-HiNet
// model (Definition 8) on aligned phase windows. Construction per phase:
// the heads (a subset of a fixed θ-node pool) are joined into a random
// head-level tree whose edges are realised as gateway chains of exactly
// L-1 intermediate nodes; every remaining node is a member with a stable
// star edge to its head; churn edges are layered per round on top. At each
// phase boundary the configured number of members re-affiliate and heads
// rotate within the pool.
//
// Dynamics are produced as deltas, not snapshot lists: each phase's stable
// graph is materialised once as a frozen CSR (member stars derived from the
// hierarchy plus the backbone), per-round churn is kept as small effective
// edge sets, and round snapshots are assembled copy-on-write with
// graph.ApplyDelta — so a churny round costs O(n + ChurnEdges), not an
// O(E) deep clone, and no per-round snapshot is ever retained beyond a
// one-round cursor. WindowDelta additionally emits the transition between
// two window-start rounds directly (ctvg.DeltaSource), which is what
// ctvg.RecordDeltas consumes.
type HiNet struct {
	cfg      HiNetConfig
	headsPer int
	pool     []int // the θ head-eligible node IDs
	rng      *xrand.Rand
	bd       *graph.Builder // reused across phase materialisations
	// Phase-construction scratch: the free-node pool, then the member
	// list (int32, like the builder's buffers, to keep it small), and the
	// benched pool nodes of a head rotation.
	scratch []int32
	bench   []int

	// phases[i] describes phase phaseBase+i; forward-only mode slides the
	// base upward and recycles older phases.
	phases    []*phase
	phaseBase int
	// churn holds each round's effective churn additions: canonical sorted
	// edges drawn for the round that are not already in the phase's stable
	// graph.
	churn churnMemo
	// One-round cursor for churny At: the last materialised snapshot.
	curRound int
	curG     *graph.Graph

	forward bool
	bufs    graphPair // forward-only churny rounds
	stats   HiNetStats
}

// NewHiNet builds the adversary; it panics on an infeasible configuration
// (see HiNetConfig.Validate).
func NewHiNet(cfg HiNetConfig, rng *xrand.Rand) *HiNet {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	headsPer := cfg.Heads
	if headsPer == 0 {
		headsPer = cfg.Theta
	}
	a := &HiNet{cfg: cfg, headsPer: headsPer, rng: rng,
		bd: graph.NewBuilder(cfg.N), curRound: -1}
	all := make([]int, cfg.N)
	for i := range all {
		all[i] = i
	}
	a.pool = xrand.Sample(rng, all, cfg.Theta)
	return a
}

// ForwardOnly switches the adversary into streaming mode for single-pass
// consumers such as the engine and ctvg.RecordDeltas. Two phases are
// kept; the phase dropping out of that window hands its hierarchy,
// stable-graph storage and gateway map to the phase replacing it. Churn
// sets are dropped as At and WindowDelta advance, and churny rounds are
// assembled into one of two recycled graphs. Memory stays O(E + n) no
// matter how many rounds are generated, and every rng draw stays where it
// was. The lifetime rule:
//   - rounds are requested in ascending order; a discarded round or phase
//     panics;
//   - the graph from At(r) and the hierarchy from HierarchyAt(r) stay
//     valid until the adversary generates round r+2;
//   - anything kept longer is deep-copied (graph.Graph.DeepClone,
//     ctvg.Hierarchy.Clone).
//
// Returns the receiver for chaining.
func (a *HiNet) ForwardOnly() *HiNet {
	a.forward = true
	return a
}

// Config returns the adversary's configuration.
func (a *HiNet) Config() HiNetConfig { return a.cfg }

// Stats returns churn counters for the phases generated so far.
func (a *HiNet) Stats() HiNetStats { return a.stats }

// N implements ctvg.Dynamic.
func (a *HiNet) N() int { return a.cfg.N }

// At implements ctvg.Dynamic.
func (a *HiNet) At(r int) *graph.Graph {
	if r < 0 {
		panic("adversary: negative round")
	}
	if a.cfg.ChurnEdges == 0 {
		// No per-round churn: the round graph IS the phase's stable
		// structure, so hand it out directly instead of cloning one
		// snapshot per round. Snapshot generation draws no randomness on
		// this path, so skipping rounds (as the stability cache does)
		// cannot perturb the rng stream.
		return a.phaseAt(r / a.cfg.T).stable
	}
	if r == a.curRound {
		return a.curG
	}
	if a.forward && r < a.curRound {
		panic(fmt.Sprintf("adversary: HiNet round %d discarded (forward-only)", r))
	}
	a.ensureChurn(r)
	// Copy-on-write assembly: the frozen stable CSR plus this round's
	// effective churn additions. O(n + ChurnEdges), no per-edge clone, and
	// earlier rounds' snapshots stay valid in whoever still holds them (in
	// forward-only mode, as long as the lifetime rule says).
	st, d := a.phaseAt(r/a.cfg.T).stable, &graph.Delta{Add: a.churn.at(r)}
	var g *graph.Graph
	if a.forward {
		g = st.ApplyDeltaInto(a.bufs.take(), d)
		a.churn.drop(a.curRound)
	} else {
		g = st.ApplyDelta(d)
	}
	a.curRound, a.curG = r, g
	return g
}

// ensureChurn draws (and memoises) the effective churn sets of every round
// up to and including r, interleaving phase generation exactly as the
// snapshot path always did: each round first forces its phase, then draws
// ChurnEdges candidate pairs.
func (a *HiNet) ensureChurn(r int) {
	for a.churn.next() <= r {
		a.churn.draw(a.cfg.N, a.cfg.ChurnEdges, a.phaseAt(a.churn.next()/a.cfg.T).stable, a.rng)
	}
}

// HierarchyAt implements ctvg.Dynamic.
func (a *HiNet) HierarchyAt(r int) *ctvg.Hierarchy {
	if r < 0 {
		panic("adversary: negative round")
	}
	return a.phaseAt(r / a.cfg.T).hier
}

// StableUntil implements ctvg.Stability. With no per-round edge churn both
// the graph and the hierarchy are frozen for each aligned T-round phase
// window, so the window runs to the phase boundary; with churn edges every
// round differs and no stability can be promised.
func (a *HiNet) StableUntil(r int) int {
	if r < 0 {
		panic("adversary: negative round")
	}
	if a.cfg.ChurnEdges > 0 {
		return r
	}
	return (r/a.cfg.T+1)*a.cfg.T - 1
}

// phaseAt returns (generating as needed) the stable structure of phase i.
// In forward-only mode, only the two most recent phases are retained, and
// the one dropping out lends its storage to the phase replacing it.
func (a *HiNet) phaseAt(i int) *phase {
	if i < a.phaseBase {
		panic(fmt.Sprintf("adversary: HiNet phase %d discarded (forward-only)", i))
	}
	for a.phaseBase+len(a.phases) <= i {
		var spare *phase
		if a.forward && len(a.phases) == 2 {
			spare = a.phases[0]
			a.phases[0], a.phases[1] = a.phases[1], nil
			a.phases = a.phases[:1]
			a.phaseBase++
		}
		if len(a.phases) == 0 && a.phaseBase == 0 {
			heads := xrand.Sample(a.rng, a.pool, a.headsPer)
			p := a.buildPhase(heads, nil, spare)
			a.materialize(p)
			a.phases = append(a.phases, p)
		} else {
			a.phases = append(a.phases, a.nextPhase(a.phases[len(a.phases)-1], spare))
		}
		a.stats.Phases++
	}
	return a.phases[i-a.phaseBase]
}

// nextPhase derives phase i+1 from phase i: rotate heads within the pool,
// re-affiliate members, rebuild the backbone. A non-nil spare is a
// discarded phase whose storage the new one takes over.
func (a *HiNet) nextPhase(prev, spare *phase) *phase {
	var heads []int
	if spare != nil {
		heads = spare.heads[:0]
	}
	heads = append(heads, prev.heads...)

	// Head churn: replace HeadChurn current heads with pool nodes not
	// currently serving (if any exist). The serving heads are exactly
	// the heads of prev's hierarchy.
	if a.cfg.HeadChurn > 0 {
		bench := a.bench[:0]
		for _, v := range a.pool {
			if !prev.hier.IsHead(v) {
				bench = append(bench, v)
			}
		}
		a.bench = bench
		for c := 0; c < a.cfg.HeadChurn && len(bench) > 0; c++ {
			// Retire a random head, promote a random benched pool node.
			ri := a.rng.Intn(len(heads))
			bi := a.rng.Intn(len(bench))
			heads[ri], bench[bi] = bench[bi], heads[ri]
			a.stats.HeadChanges++
		}
	}

	return a.buildPhaseWithReaffiliation(heads, prev, spare)
}

// buildPhaseWithReaffiliation builds a phase reusing as much of the
// previous stable structure as possible, then forcibly re-affiliates the
// configured number of members. The stable graph is materialised only
// after the re-affiliations, so a moved member's star edge is emitted once
// instead of being inserted and shifted out again — the edits live purely
// on the hierarchy (a member has exactly one stable edge, to its head).
func (a *HiNet) buildPhaseWithReaffiliation(heads []int, prev, spare *phase) *phase {
	p := a.buildPhase(heads, prev, spare)
	// Forced re-affiliations: move random members to a different head.
	members := a.scratch[:0]
	for v := 0; v < a.cfg.N; v++ {
		if p.hier.Role[v] == ctvg.Member {
			members = append(members, int32(v))
		}
	}
	a.scratch = members
	for c := 0; c < a.cfg.Reaffiliations && len(members) > 0 && len(heads) > 1; c++ {
		v := int(members[a.rng.Intn(len(members))])
		old := p.hier.HeadOf(v)
		nh := heads[a.rng.Intn(len(heads))]
		for nh == old {
			nh = heads[a.rng.Intn(len(heads))]
		}
		p.hier.SetMember(v, nh)
		a.stats.Reaffiliations++
	}
	a.materialize(p)
	return p
}

// materialize builds the phase's stable graph in one frozen-CSR pass: the
// head-level backbone realised through the gateway chains, plus one star
// edge per member to its head (read back off the hierarchy, which by now
// includes any re-affiliations). Replaces the old per-edge AddEdge
// assembly, whose O(deg) insert-shifting dominated generation at 100k
// nodes; draws no randomness, so the rng stream is untouched.
func (a *HiNet) materialize(p *phase) {
	bd := a.bd
	for _, lk := range p.links {
		chain := p.gwFor[lk]
		switch a.cfg.L - 1 {
		case 0: // L=1: heads directly adjacent
			bd.Add(lk.from, lk.to)
		case 1: // L=2: one gateway, adjacent to both heads
			bd.Add(lk.from, chain[0])
			bd.Add(chain[0], lk.to)
		case 2: // L=3: two gateways
			bd.Add(lk.from, chain[0])
			bd.Add(chain[0], chain[1])
			bd.Add(chain[1], lk.to)
		}
	}
	for v, role := range p.hier.Role {
		if role == ctvg.Member {
			bd.Add(v, p.hier.Cluster[v])
		}
	}
	p.stable = bd.BuildInto(p.stable)
}

// buildPhase constructs a phase's hierarchy and stable graph for the given
// head set, which the phase takes over. When prev is non-nil, the
// structure is sticky: the head-level tree is reused if the head set is
// unchanged, gateway chains are reused per head pair, and members keep
// their previous head when it is still serving. Churn beyond the
// configured re-affiliations and head rotation is thereby avoided, so the
// paper's n_r parameter maps directly onto the forced re-affiliation
// count. A non-nil spare is a discarded phase whose hierarchy, graph
// storage and gateway map are reused; links and gateway chains are never
// reused that way, since consecutive phases share them.
func (a *HiNet) buildPhase(heads []int, prev, spare *phase) *phase {
	n := a.cfg.N
	p := spare
	if p == nil {
		p = &phase{hier: ctvg.NewHierarchy(n), gwFor: map[link][]int{}}
	} else {
		for v := range p.hier.Role {
			p.hier.Role[v], p.hier.Cluster[v] = ctvg.Unaffiliated, ctvg.NoCluster
		}
		clear(p.gwFor)
	}
	// The hierarchy under construction doubles as the membership scratch:
	// heads are marked first, then every node committed to a gateway chain
	// (a gateway affiliated nowhere until the chains are final), so a node
	// still unaffiliated is free.
	h := p.hier
	for _, v := range heads {
		h.SetHead(v)
	}

	// Head-level tree: reuse the previous tree when the head set is
	// unchanged, otherwise draw a fresh random tree (attach head i to a
	// random earlier head).
	var links []link
	if prev != nil && sameHeads(prev.heads, len(heads), h) {
		links = prev.links
	} else {
		for i := 1; i < len(heads); i++ {
			links = append(links, link{heads[a.rng.Intn(i)], heads[i]})
		}
	}

	// Gateway chains: reuse the previous chain for a link when all its
	// nodes are still free; otherwise draw fresh gateways from the nodes
	// no chain or head has claimed this phase.
	gwPerLink := a.cfg.L - 1
	gwFor := p.gwFor
	needFresh := 0
	for _, lk := range links {
		if prev != nil {
			chain := prev.gwFor[lk]
			ok := len(chain) == gwPerLink
			for _, g := range chain {
				if h.Role[g] != ctvg.Unaffiliated {
					ok = false
					break
				}
			}
			if ok {
				for _, g := range chain {
					h.SetGateway(g, ctvg.NoCluster)
				}
				gwFor[lk] = chain
				continue
			}
		}
		needFresh += gwPerLink
		gwFor[lk] = nil
	}
	// Pool of free nodes for fresh chains, shuffled.
	if needFresh > 0 {
		free := a.scratch[:0]
		for v := 0; v < n; v++ {
			if h.Role[v] == ctvg.Unaffiliated {
				free = append(free, int32(v))
			}
		}
		a.scratch = free
		a.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		idx := 0
		for _, lk := range links {
			if gwFor[lk] != nil {
				continue
			}
			chain := make([]int, gwPerLink)
			for c := range chain {
				chain[c] = int(free[idx])
				h.SetGateway(chain[c], ctvg.NoCluster)
				idx++
			}
			gwFor[lk] = chain
		}
	}

	// Assign gateway roles along the backbone; the edges themselves are
	// emitted later by materialize, once the hierarchy is final.
	for _, lk := range links {
		chain := gwFor[lk]
		switch gwPerLink {
		case 1: // L=2: one gateway, adjacent to both heads
			h.SetGateway(chain[0], lk.from)
		case 2: // L=3: two gateways
			h.SetGateway(chain[0], lk.from)
			h.SetGateway(chain[1], lk.to)
		}
	}

	// Members: keep the previous head when it is still serving (whether
	// the node was a member or an affiliated gateway), else a random head.
	for v := 0; v < n; v++ {
		if h.Role[v] != ctvg.Unaffiliated {
			continue
		}
		head := -1
		if prev != nil {
			if ph := prev.hier.HeadOf(v); ph != ctvg.NoCluster && ph != v && h.IsHead(ph) {
				head = ph
			}
		}
		if head < 0 {
			head = heads[a.rng.Intn(len(heads))]
		}
		h.SetMember(v, head)
	}
	p.heads, p.links = heads, links
	return p
}

// WindowDelta implements ctvg.DeltaSource: the transition between the
// snapshots (and hierarchies) of two window-start rounds, emitted natively
// from the phase structures and churn sets instead of diffing materialised
// snapshots. For rounds inside one phase only the churn sets differ, so
// the delta costs O(ChurnEdges); across a phase boundary the stable
// structures are diffed once per boundary and adjusted for the churn
// layers (a churn edge of one round may coincide with a stable edge of the
// other phase, so plain set union does not commute with the diff).
func (a *HiNet) WindowDelta(r0, r1 int) (*graph.Delta, ctvg.HierarchyDelta) {
	if r0 < 0 || r1 <= r0 {
		panic("adversary: WindowDelta needs 0 <= r0 < r1")
	}
	if a.cfg.ChurnEdges > 0 {
		a.ensureChurn(r1)
	}
	p0, p1 := a.phaseAt(r0/a.cfg.T), a.phaseAt(r1/a.cfg.T)
	var hd ctvg.HierarchyDelta
	if p0 != p1 {
		hd = ctvg.HierarchyDeltaBetween(p0.hier, p1.hier)
	}
	if a.cfg.ChurnEdges == 0 {
		if p0 == p1 {
			return &graph.Delta{}, hd
		}
		return graph.DeltaBetween(p0.stable, p1.stable), hd
	}
	c0, c1 := a.churn.at(r0), a.churn.at(r1)
	var gd *graph.Delta
	if p0 == p1 {
		// Same stable structure: the transition is pure churn algebra.
		gd = &graph.Delta{Add: edgeSetDiff(c1, c0), Remove: edgeSetDiff(c0, c1)}
	} else {
		// Round r's edge set is S ∪ C with C ∩ S = ∅ by construction, so
		// with D = diff(S0, S1):
		//   adds    = (D.Add \ C0)    ∪ (C1 \ C0 \ S0)
		//   removes = (D.Remove \ C1) ∪ (C0 \ C1 \ S1)
		d := graph.DeltaBetween(p0.stable, p1.stable)
		add := edgeSetDiff(d.Add, c0)
		for _, e := range edgeSetDiff(c1, c0) {
			if !p0.stable.HasEdge(e.U, e.V) {
				add = append(add, e)
			}
		}
		graph.SortEdges(add)
		rem := edgeSetDiff(d.Remove, c1)
		for _, e := range edgeSetDiff(c0, c1) {
			if !p1.stable.HasEdge(e.U, e.V) {
				rem = append(rem, e)
			}
		}
		graph.SortEdges(rem)
		gd = &graph.Delta{Add: add, Remove: rem}
	}
	if a.forward {
		// Single-pass consumption: churn sets before the previous window
		// start can no longer be asked for.
		a.churn.drop(r0)
	}
	return gd, hd
}

// edgeSetDiff returns the entries of a not present in b; both inputs are
// canonical sorted edge lists, so this is a linear merge.
func edgeSetDiff(a, b []graph.Edge) []graph.Edge {
	var out []graph.Edge
	j := 0
	for _, e := range a {
		for j < len(b) && (b[j].U < e.U || (b[j].U == e.U && b[j].V < e.V)) {
			j++
		}
		if j < len(b) && b[j] == e {
			continue
		}
		out = append(out, e)
	}
	return out
}

// sameHeads reports whether prev is exactly the head set of h, which holds
// n heads.
func sameHeads(prev []int, n int, h *ctvg.Hierarchy) bool {
	if len(prev) != n {
		return false
	}
	for _, v := range prev {
		if !h.IsHead(v) {
			return false
		}
	}
	return true
}

var (
	_ ctvg.Dynamic     = (*HiNet)(nil)
	_ ctvg.Stability   = (*HiNet)(nil)
	_ ctvg.DeltaSource = (*HiNet)(nil)
)
