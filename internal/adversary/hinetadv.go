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

	// phases[i] describes phase phaseBase+i; forward-only mode slides the
	// base upward and discards older phases.
	phases    []*phase
	phaseBase int
	// churn[r-churnBase] is round r's effective churn additions: canonical
	// sorted edges drawn for the round that are not already in the phase's
	// stable graph.
	churn     [][]graph.Edge
	churnBase int
	// One-round cursor for churny At: the last materialised snapshot.
	curRound int
	curG     *graph.Graph

	forward bool
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

// ForwardOnly switches the adversary into streaming mode: phases (and, as
// WindowDelta consumes them, churn sets) older than the working window are
// discarded, so memory stays O(E + ChurnEdges·retained rounds) no matter
// how many rounds are generated. Accessing a discarded round panics.
// Intended for single-pass consumers like ctvg.RecordDeltas; returns the
// receiver for chaining.
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
	a.ensureChurn(r)
	// Copy-on-write assembly: the frozen stable CSR plus this round's
	// effective churn additions. O(n + ChurnEdges), no per-edge clone, and
	// earlier rounds' snapshots stay valid in whoever still holds them.
	g := a.phaseAt(r / a.cfg.T).stable.ApplyDelta(&graph.Delta{Add: a.churnAt(r)})
	a.curRound, a.curG = r, g
	return g
}

// ensureChurn draws (and memoises) the effective churn sets of every round
// up to and including r, interleaving phase generation exactly as the
// snapshot path always did: each round first forces its phase, then draws
// ChurnEdges candidate pairs. Pairs that are self-loops, already in the
// phase's stable graph, or repeats within the round add no edge — the same
// outcomes AddEdge's no-op path used to produce — so only the effective
// additions are stored.
func (a *HiNet) ensureChurn(r int) {
	if r < a.churnBase {
		panic(fmt.Sprintf("adversary: HiNet round %d discarded (forward-only)", r))
	}
	for a.churnBase+len(a.churn) <= r {
		cur := a.churnBase + len(a.churn)
		p := a.phaseAt(cur / a.cfg.T)
		set := make([]graph.Edge, 0, a.cfg.ChurnEdges)
		for j := 0; j < a.cfg.ChurnEdges; j++ {
			u, v := a.rng.Intn(a.cfg.N), a.rng.Intn(a.cfg.N)
			if u == v {
				continue
			}
			e := graph.NormEdge(u, v)
			if p.stable.HasEdge(e.U, e.V) {
				continue
			}
			dup := false
			for _, x := range set {
				if x == e {
					dup = true
					break
				}
			}
			if !dup {
				set = append(set, e)
			}
		}
		graph.SortEdges(set)
		a.churn = append(a.churn, set)
	}
}

// churnAt returns round r's effective churn additions (ensureChurn must
// have reached r).
func (a *HiNet) churnAt(r int) []graph.Edge {
	if r < a.churnBase {
		panic(fmt.Sprintf("adversary: HiNet round %d discarded (forward-only)", r))
	}
	return a.churn[r-a.churnBase]
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
// In forward-only mode, only the two most recent phases are retained.
func (a *HiNet) phaseAt(i int) *phase {
	if i < a.phaseBase {
		panic(fmt.Sprintf("adversary: HiNet phase %d discarded (forward-only)", i))
	}
	for a.phaseBase+len(a.phases) <= i {
		if len(a.phases) == 0 && a.phaseBase == 0 {
			heads := xrand.Sample(a.rng, a.pool, a.headsPer)
			p := a.buildPhase(heads, nil)
			a.materialize(p)
			a.phases = append(a.phases, p)
		} else {
			a.phases = append(a.phases, a.nextPhase(a.phases[len(a.phases)-1]))
		}
		a.stats.Phases++
		if a.forward && len(a.phases) > 2 {
			a.phases[0] = nil
			a.phases = a.phases[1:]
			a.phaseBase++
		}
	}
	return a.phases[i-a.phaseBase]
}

// nextPhase derives phase i+1 from phase i: rotate heads within the pool,
// re-affiliate members, rebuild the backbone.
func (a *HiNet) nextPhase(prev *phase) *phase {
	heads := append([]int(nil), prev.heads...)

	// Head churn: replace HeadChurn current heads with pool nodes not
	// currently serving (if any exist).
	if a.cfg.HeadChurn > 0 {
		serving := make([]bool, a.cfg.N)
		for _, h := range heads {
			serving[h] = true
		}
		bench := make([]int, 0, len(a.pool)-len(heads))
		for _, v := range a.pool {
			if !serving[v] {
				bench = append(bench, v)
			}
		}
		for c := 0; c < a.cfg.HeadChurn && len(bench) > 0; c++ {
			// Retire a random head, promote a random benched pool node.
			ri := a.rng.Intn(len(heads))
			bi := a.rng.Intn(len(bench))
			heads[ri], bench[bi] = bench[bi], heads[ri]
			a.stats.HeadChanges++
		}
	}

	return a.buildPhaseWithReaffiliation(heads, prev)
}

// buildPhaseWithReaffiliation builds a phase reusing as much of the
// previous stable structure as possible, then forcibly re-affiliates the
// configured number of members. The stable graph is materialised only
// after the re-affiliations, so a moved member's star edge is emitted once
// instead of being inserted and shifted out again — the edits live purely
// on the hierarchy (a member has exactly one stable edge, to its head).
func (a *HiNet) buildPhaseWithReaffiliation(heads []int, prev *phase) *phase {
	p := a.buildPhase(heads, prev)
	// Forced re-affiliations: move random members to a different head.
	members := make([]int, 0, a.cfg.N)
	for v := 0; v < a.cfg.N; v++ {
		if p.hier.Role[v] == ctvg.Member {
			members = append(members, v)
		}
	}
	for c := 0; c < a.cfg.Reaffiliations && len(members) > 0 && len(heads) > 1; c++ {
		v := members[a.rng.Intn(len(members))]
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
	p.stable = bd.Build()
}

// buildPhase constructs a phase's hierarchy and stable graph for the given
// head set. When prev is non-nil, the structure is sticky: the head-level
// tree is reused if the head set is unchanged, gateway chains are reused
// per head pair, and members keep their previous head when it is still
// serving. Churn beyond the configured re-affiliations and head rotation
// is thereby avoided, so the paper's n_r parameter maps directly onto the
// forced re-affiliation count.
func (a *HiNet) buildPhase(heads []int, prev *phase) *phase {
	n := a.cfg.N
	h := ctvg.NewHierarchy(n)
	isHead := make([]bool, n)
	for _, v := range heads {
		h.SetHead(v)
		isHead[v] = true
	}

	// Head-level tree: reuse the previous tree when the head set is
	// unchanged, otherwise draw a fresh random tree (attach head i to a
	// random earlier head).
	var links []link
	if prev != nil && sameHeads(prev.heads, len(heads), isHead) {
		links = prev.links
	} else {
		for i := 1; i < len(heads); i++ {
			links = append(links, link{heads[a.rng.Intn(i)], heads[i]})
		}
	}

	// Gateway chains: reuse the previous chain for a link when all its
	// nodes are still non-heads; otherwise draw fresh gateways, preferring
	// nodes not previously affiliated anywhere special. `taken` tracks
	// nodes already committed as gateways this phase.
	gwPerLink := a.cfg.L - 1
	taken := make([]bool, n)
	gwFor := make(map[link][]int, len(links))
	needFresh := 0
	for _, lk := range links {
		if prev != nil {
			chain := prev.gwFor[lk]
			ok := len(chain) == gwPerLink
			for _, g := range chain {
				if isHead[g] || taken[g] {
					ok = false
					break
				}
			}
			if ok {
				for _, g := range chain {
					taken[g] = true
				}
				gwFor[lk] = chain
				continue
			}
		}
		needFresh += gwPerLink
		gwFor[lk] = nil
	}
	// Pool of free non-head nodes for fresh chains, shuffled.
	if needFresh > 0 {
		var free []int
		for v := 0; v < n; v++ {
			if !isHead[v] && !taken[v] {
				free = append(free, v)
			}
		}
		a.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		idx := 0
		for _, lk := range links {
			if gwFor[lk] != nil || gwPerLink == 0 {
				continue
			}
			chain := make([]int, gwPerLink)
			for c := range chain {
				chain[c] = free[idx]
				taken[free[idx]] = true
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
		if isHead[v] || taken[v] {
			continue
		}
		head := -1
		if prev != nil {
			if ph := prev.hier.HeadOf(v); ph != ctvg.NoCluster && ph != v && isHead[ph] {
				head = ph
			}
		}
		if head < 0 {
			head = heads[a.rng.Intn(len(heads))]
		}
		h.SetMember(v, head)
	}
	return &phase{
		hier:  h,
		heads: append([]int(nil), heads...),
		links: links,
		gwFor: gwFor,
	}
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
	c0, c1 := a.churnAt(r0), a.churnAt(r1)
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
	if a.forward && r0 > a.churnBase {
		// Single-pass consumption: churn sets before the previous window
		// start can no longer be asked for.
		a.churn = a.churn[r0-a.churnBase:]
		a.churnBase = r0
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

// sameHeads reports whether prev is exactly the head set marked in isHead,
// which holds n heads.
func sameHeads(prev []int, n int, isHead []bool) bool {
	if len(prev) != n {
		return false
	}
	for _, h := range prev {
		if !isHead[h] {
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
