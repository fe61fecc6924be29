// Package selfstab implements a message-passing, self-stabilizing
// clustering protocol in the style of Bernard–Bui–Pilard–Sohier: every
// live node broadcasts one beacon per round (its ID, whether it claims to
// be a head, and which cluster it is affiliated with), and each node
// recomputes its own role purely from the beacons it heard. There is no
// oracle: heads are elected, members affiliate, gateways mark themselves,
// orphans are adopted and adjacent heads merge — all from node-local state
// over the same faulty links the dissemination payload rides.
//
// The protocol converges to the same target shape the cluster package
// constructs centrally (a ctvg.Hierarchy whose heads dominate the graph
// and whose heads-plus-gateways backbone connects them), and it repairs
// that shape after arbitrary transient faults — the self-stabilization
// property. The rules mirror cluster's lowest-ID election:
//
//   - a head that hears a lower-ID head abdicates and joins it (merge);
//   - a member that hears its head stays put; one whose head has been
//     silent for OrphanAfter rounds (or is heard beaconing as a non-head)
//     re-affiliates to the lowest-ID head it heard, elects itself when it
//     heard neither a head nor a lower-ID unaffiliated contender, and
//     otherwise waits unaffiliated;
//   - an unaffiliated node adopts the lowest-ID head it heard, elects
//     itself when no head and no lower-ID contender is audible, and
//     otherwise defers;
//   - a member that hears any cluster other than its own sits on a
//     cluster boundary and marks itself gateway (keeping its
//     affiliation), which bridges heads up to three hops apart.
//
// The state update is double-buffered: a round reads only the previous
// round's states and writes only the next, so the per-node transition can
// be sharded across workers in any order and still produce byte-identical
// results. Link faults enter exclusively through the loss predicate passed
// to Shard, which the engine binds to the round's link-loss rows — the
// same draws that filter payload messages.
package selfstab

import (
	"repro/internal/ctvg"
	"repro/internal/graph"
)

// Config parameterises the protocol.
type Config struct {
	// OrphanAfter is the number of consecutive rounds a member tolerates
	// silence from its head before treating itself as orphaned; 0 means
	// the default of 2 (one lost beacon is forgiven, two are a crash).
	OrphanAfter int
}

func (c Config) orphanAfter() int {
	if c.OrphanAfter <= 0 {
		return 2
	}
	return c.OrphanAfter
}

// Stats counts the repair events of one protocol round. The engine merges
// the per-shard counters in shard order, so totals are deterministic at
// any worker count.
type Stats struct {
	// Elections counts nodes that elected themselves head this round.
	Elections int
	// Adoptions counts orphaned or unaffiliated nodes that (re-)joined a
	// cluster this round.
	Adoptions int
	// HeadMerges counts heads that abdicated to a lower-ID neighbour.
	HeadMerges int
	// BeaconsSent counts the beacons broadcast this round: one per live
	// node — the maintenance message budget the protocol consumes.
	BeaconsSent int
	// BeaconsHeard counts beacon receptions that survived the link
	// faults, summed over all receivers.
	BeaconsHeard int
}

func (s *Stats) add(o Stats) {
	s.Elections += o.Elections
	s.Adoptions += o.Adoptions
	s.HeadMerges += o.HeadMerges
	s.BeaconsSent += o.BeaconsSent
	s.BeaconsHeard += o.BeaconsHeard
}

type nodeState struct {
	head    int // claimed cluster head; ctvg.NoCluster when none
	role    ctvg.Role
	silence int // consecutive rounds the claimed head has been silent
}

// State holds the node-local protocol state of all n nodes plus the
// emergent hierarchy the engine substitutes for the oracle's. All storage
// is allocated by New; Begin/Shard/Commit are allocation-free so the
// engine's hot loop stays flat.
type State struct {
	cfg     Config
	n       int
	cur     []nodeState
	next    []nodeState
	hier    *ctvg.Hierarchy
	shards  []Stats
	g       *graph.Graph
	crashed []bool
	sent    int

	// BFS scratch for Valid: epoch-stamped visit marks and component
	// labels, reused across rounds without clearing.
	visit      []uint32
	epoch      uint32
	relayComp  []int32
	relayEpoch []uint32
	queue      []int
}

// New returns protocol state for n nodes sharded over shards stat slots
// (one per worker shard; pass 1 for serial runs).
func New(n int, cfg Config, shards int) *State {
	if shards < 1 {
		shards = 1
	}
	s := &State{
		cfg:        cfg,
		n:          n,
		cur:        make([]nodeState, n),
		next:       make([]nodeState, n),
		hier:       ctvg.NewHierarchy(n),
		shards:     make([]Stats, shards),
		visit:      make([]uint32, n),
		relayComp:  make([]int32, n),
		relayEpoch: make([]uint32, n),
		queue:      make([]int, 0, n),
	}
	for v := range s.cur {
		s.cur[v] = nodeState{head: ctvg.NoCluster, role: ctvg.Unaffiliated}
		s.next[v] = s.cur[v]
	}
	return s
}

// Hierarchy returns the emergent hierarchy as of the last Commit. The
// engine hands it to protocols and observers for the duration of one
// round; it is rewritten in place by the next Shard pass.
func (s *State) Hierarchy() *ctvg.Hierarchy { return s.hier }

// Begin starts a protocol round on snapshot g with the given crash mask.
// Both are retained until the next Begin; the crash mask must not change
// while shards run.
func (s *State) Begin(g *graph.Graph, crashed []bool) {
	s.g = g
	s.crashed = crashed
	s.sent = 0
	for v := 0; v < s.n; v++ {
		if !crashed[v] {
			s.sent++
		}
	}
	for i := range s.shards {
		s.shards[i] = Stats{}
	}
}

// Shard advances nodes [lo, hi) one round. lost reports whether the
// beacon to v from its i-th neighbour in the round's graph is lost; it
// must be pure in (v, i) for the duration of the round, and nil loses
// nothing. Keying by neighbour index lets the engine answer from a slot
// of v's loss row without a search. Shard only reads previous-round states
// and writes states and hierarchy entries it owns, so distinct shards may
// run concurrently.
func (s *State) Shard(shard, lo, hi int, lost func(v, i int) bool) {
	st := &s.shards[shard]
	for v := lo; v < hi; v++ {
		if s.crashed[v] {
			// A crashed node holds no state: it rejoins as a fresh
			// unaffiliated node, and its silence lets members detect the
			// dead head.
			s.next[v] = nodeState{head: ctvg.NoCluster, role: ctvg.Unaffiliated}
			s.hier.Role[v] = ctvg.Unaffiliated
			s.hier.Cluster[v] = ctvg.NoCluster
			continue
		}
		s0 := s.cur[v]
		myHead := ctvg.NoCluster
		if s0.role != ctvg.Head {
			myHead = s0.head
		}

		lowestHead := -1
		headAlive := false
		headDemoted := false
		lowerContender := false
		affA, affB := -1, -1 // first two distinct cluster IDs heard
		heard := 0
		for i, u := range s.g.Neighbors(v) {
			if s.crashed[u] || lost != nil && lost(v, i) {
				continue
			}
			heard++
			su := s.cur[u]
			var claim int
			switch {
			case su.role == ctvg.Head:
				if lowestHead == -1 || u < lowestHead {
					lowestHead = u
				}
				if u == myHead {
					headAlive = true
				}
				claim = u
			case su.head != ctvg.NoCluster:
				if u == myHead {
					headDemoted = true // our head now claims membership elsewhere
				}
				claim = su.head
			default:
				if u == myHead {
					headDemoted = true
				}
				if u < v {
					lowerContender = true
				}
				continue
			}
			if claim != affA {
				if affA == -1 {
					affA = claim
				} else if affB == -1 {
					affB = claim
				}
			}
		}

		var ns nodeState
		switch {
		case s0.role == ctvg.Head:
			if lowestHead != -1 && lowestHead < v {
				ns = nodeState{head: lowestHead, role: ctvg.Member}
				st.HeadMerges++
			} else {
				ns = nodeState{head: v, role: ctvg.Head}
			}
		case s0.head != ctvg.NoCluster:
			switch {
			case headAlive:
				ns = nodeState{head: s0.head, role: ctvg.Member}
			case !headDemoted && s0.silence+1 < s.cfg.orphanAfter():
				ns = nodeState{head: s0.head, role: ctvg.Member, silence: s0.silence + 1}
			case lowestHead != -1:
				ns = nodeState{head: lowestHead, role: ctvg.Member}
				st.Adoptions++
			case !lowerContender:
				ns = nodeState{head: v, role: ctvg.Head}
				st.Elections++
			default:
				ns = nodeState{head: ctvg.NoCluster, role: ctvg.Unaffiliated}
			}
		default:
			switch {
			case lowestHead != -1:
				ns = nodeState{head: lowestHead, role: ctvg.Member}
				st.Adoptions++
			case !lowerContender:
				ns = nodeState{head: v, role: ctvg.Head}
				st.Elections++
			default:
				ns = nodeState{head: ctvg.NoCluster, role: ctvg.Unaffiliated}
			}
		}
		// Boundary detection: a member that heard any cluster other than
		// its own bridges clusters and marks itself gateway. Tracking the
		// first two distinct claims suffices — at most one of them can
		// equal the member's own cluster.
		if ns.role == ctvg.Member &&
			((affA != -1 && affA != ns.head) || (affB != -1 && affB != ns.head)) {
			ns.role = ctvg.Gateway
		}
		st.BeaconsHeard += heard
		s.next[v] = ns
		s.hier.Role[v] = ns.role
		s.hier.Cluster[v] = ns.head
	}
}

// Commit finishes the round: swaps the state buffers and returns the
// per-shard counters merged in shard order.
func (s *State) Commit() Stats {
	s.cur, s.next = s.next, s.cur
	var total Stats
	total.BeaconsSent = s.sent
	for i := range s.shards {
		total.add(s.shards[i])
	}
	return total
}

// Valid reports whether the hierarchy produced by the last Commit is
// structurally valid for the live part of the round's graph: every live
// node is covered (heads self-identify, members and gateways name a live
// adjacent head, nobody is unaffiliated), and within each connected
// component of the live subgraph the heads are mutually connected through
// live relays — the paper's stable-head-subgraph shape. Crashed nodes are
// ignored on both sides.
func (s *State) Valid() bool {
	h := s.hier
	anyLive := false
	for v := 0; v < s.n; v++ {
		if s.crashed[v] {
			continue
		}
		anyLive = true
		switch h.Role[v] {
		case ctvg.Head:
			if h.Cluster[v] != v {
				return false
			}
		case ctvg.Member, ctvg.Gateway:
			c := h.Cluster[v]
			if c == ctvg.NoCluster || s.crashed[c] || h.Role[c] != ctvg.Head || !s.g.HasEdge(v, c) {
				return false
			}
		default:
			return false // a live unaffiliated node means repair is unfinished
		}
	}
	if !anyLive {
		return true
	}
	return s.headsBridged()
}

// headsBridged labels relay-connected components by BFS over live relays,
// then checks that all heads inside one live-graph component share a
// relay component.
func (s *State) headsBridged() bool {
	h := s.hier
	s.epoch++
	var nComp int32
	for v := 0; v < s.n; v++ {
		if s.crashed[v] || !h.IsRelay(v) || s.relayEpoch[v] == s.epoch {
			continue
		}
		nComp++
		s.queue = s.queue[:0]
		s.queue = append(s.queue, v)
		s.relayEpoch[v] = s.epoch
		s.relayComp[v] = nComp
		for len(s.queue) > 0 {
			u := s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
			for _, w := range s.g.Neighbors(u) {
				if s.crashed[w] || !h.IsRelay(w) || s.relayEpoch[w] == s.epoch {
					continue
				}
				s.relayEpoch[w] = s.epoch
				s.relayComp[w] = nComp
				s.queue = append(s.queue, w)
			}
		}
	}
	// Walk each live-graph component and require one relay label across
	// its heads.
	for v := 0; v < s.n; v++ {
		if s.crashed[v] || s.visit[v] == s.epoch {
			continue
		}
		comp := int32(0)
		s.queue = s.queue[:0]
		s.queue = append(s.queue, v)
		s.visit[v] = s.epoch
		for len(s.queue) > 0 {
			u := s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
			if h.Role[u] == ctvg.Head {
				if comp == 0 {
					comp = s.relayComp[u]
				} else if s.relayComp[u] != comp {
					return false
				}
			}
			for _, w := range s.g.Neighbors(u) {
				if s.crashed[w] || s.visit[w] == s.epoch {
					continue
				}
				s.visit[w] = s.epoch
				s.queue = append(s.queue, w)
			}
		}
	}
	return true
}
