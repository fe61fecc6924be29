package selfstab

import (
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// step runs one full protocol round over nShards equal shards. drop
// reports whether the beacon from u to v is lost.
func step(s *State, g *graph.Graph, crashed []bool, drop func(u, v int) bool, nShards int) Stats {
	s.Begin(g, crashed)
	lost := func(v, i int) bool { return drop(g.Neighbors(v)[i], v) }
	n := g.N()
	per := (n + nShards - 1) / nShards
	for i := 0; i < nShards; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > n {
			hi = n
		}
		if lo < hi {
			s.Shard(i, lo, hi, lost)
		}
	}
	return s.Commit()
}

func noDrop(u, v int) bool { return false }

// converge steps until the state is valid AND quiescent (a round changes
// nothing — validity alone can hold mid-merge-cascade), returning the
// rounds taken (-1 when the budget runs out first).
func converge(s *State, g *graph.Graph, crashed []bool, drop func(u, v int) bool, budget int) int {
	prev := s.Hierarchy().Clone()
	for r := 0; r < budget; r++ {
		step(s, g, crashed, drop, 1)
		if s.Valid() && s.Hierarchy().Equal(prev) {
			return r + 1
		}
		prev = s.Hierarchy().Clone()
	}
	return -1
}

func TestConvergesOnRandomConnected(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(40)
		g := graph.RandomConnected(n, 2*n, rng)
		crashed := make([]bool, n)
		s := New(n, Config{}, 1)
		rounds := converge(s, g, crashed, noDrop, 4*n)
		if rounds < 0 {
			t.Fatalf("seed %d: no convergence on %v", seed, g)
		}
		h := s.Hierarchy()
		if err := h.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for v := 0; v < n; v++ {
			if h.HeadOf(v) == ctvg.NoCluster {
				t.Fatalf("seed %d: node %d uncovered after convergence", seed, v)
			}
		}
		// Fixed point: one more fault-free round must change nothing.
		before := h.Clone()
		step(s, g, crashed, noDrop, 1)
		if !s.Hierarchy().Equal(before) {
			t.Fatalf("seed %d: converged state is not a fixed point", seed)
		}
	}
}

func TestRepairsAfterHeadCrash(t *testing.T) {
	rng := xrand.New(42)
	n := 30
	g := graph.RandomConnected(n, 70, rng)
	crashed := make([]bool, n)
	s := New(n, Config{}, 1)
	if converge(s, g, crashed, noDrop, 4*n) < 0 {
		t.Fatal("no initial convergence")
	}
	// Kill every elected head.
	killed := 0
	for _, v := range s.Hierarchy().Heads() {
		crashed[v] = true
		killed++
	}
	if killed == 0 {
		t.Fatal("no heads elected")
	}
	var repair Stats
	reconverged := -1
	for r := 0; r < 4*n; r++ {
		repair.add(step(s, g, crashed, noDrop, 1))
		if s.Valid() {
			reconverged = r + 1
			break
		}
	}
	if reconverged < 0 {
		t.Fatal("no reconvergence after head crashes")
	}
	if repair.Elections == 0 {
		t.Fatalf("repair elected nobody: %+v", repair)
	}
	// The dead heads must not be named by any live node.
	h := s.Hierarchy()
	for v := 0; v < n; v++ {
		if !crashed[v] && crashed[h.HeadOf(v)] {
			t.Fatalf("live node %d still affiliated to dead head %d", v, h.HeadOf(v))
		}
	}
}

func TestAdjacentHeadsMerge(t *testing.T) {
	// Two 3-cliques {0,1,2} and {3,4,5} converge separately (heads 0 and
	// 3); adding the 0-3 bridge must merge head 3 into head 0.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	crashed := make([]bool, 6)
	s := New(6, Config{}, 1)
	if converge(s, g, crashed, noDrop, 20) < 0 {
		t.Fatal("no convergence on disjoint cliques")
	}
	if !s.Hierarchy().IsHead(0) || !s.Hierarchy().IsHead(3) {
		t.Fatalf("heads %v, want 0 and 3", s.Hierarchy().Heads())
	}
	g.AddEdge(0, 3)
	var merged Stats
	for r := 0; r < 20; r++ {
		merged.add(step(s, g, crashed, noDrop, 1))
		if s.Valid() && !s.Hierarchy().IsHead(3) {
			break
		}
	}
	if s.Hierarchy().IsHead(3) {
		t.Fatal("head 3 never abdicated to adjacent lower-ID head 0")
	}
	if merged.HeadMerges == 0 {
		t.Fatalf("merge not counted: %+v", merged)
	}
	if got := s.Hierarchy().HeadOf(3); got != 0 {
		t.Fatalf("demoted head affiliated to %d, want 0", got)
	}
}

func TestMemberForgivesOneLostBeacon(t *testing.T) {
	// Path 0-1: head 0, member 1 (OrphanAfter 2). One dropped beacon must
	// not orphan the member; two must.
	g := graph.Path(2)
	crashed := make([]bool, 2)
	s := New(2, Config{}, 1)
	if converge(s, g, crashed, noDrop, 10) < 0 {
		t.Fatal("no convergence")
	}
	if !s.Hierarchy().IsHead(0) || s.Hierarchy().HeadOf(1) != 0 {
		t.Fatalf("unexpected shape: %v", s.Hierarchy().Heads())
	}
	dropHeadBeacon := func(u, v int) bool { return u == 0 && v == 1 }
	step(s, g, crashed, dropHeadBeacon, 1)
	if s.Hierarchy().HeadOf(1) != 0 {
		t.Fatal("one lost beacon orphaned the member")
	}
	step(s, g, crashed, dropHeadBeacon, 1)
	if s.Hierarchy().HeadOf(1) == 0 && s.Hierarchy().Role[1] != ctvg.Head {
		t.Fatal("member never gave up a silent head")
	}
}

func TestShardCountInvariance(t *testing.T) {
	// The same lossy run sharded 1, 2 and 5 ways must produce identical
	// hierarchies and stats every round.
	rng := xrand.New(7)
	n := 37
	g := graph.RandomConnected(n, 90, rng)
	seed := rng.Uint64()
	crashed := make([]bool, n)
	crashed[5] = true
	crashed[11] = true

	type trace struct {
		stats []Stats
		hier  *ctvg.Hierarchy
	}
	run := func(shards int) trace {
		s := New(n, Config{}, shards)
		var tr trace
		for r := 0; r < 60; r++ {
			drop := func(u, v int) bool {
				return xrand.HashFloat64(seed, uint64(r), uint64(u), uint64(v)) < 0.2
			}
			tr.stats = append(tr.stats, step(s, g, crashed, drop, shards))
		}
		tr.hier = s.Hierarchy().Clone()
		return tr
	}
	base := run(1)
	for _, shards := range []int{2, 5} {
		got := run(shards)
		if !got.hier.Equal(base.hier) {
			t.Fatalf("%d shards: hierarchy diverged", shards)
		}
		for r := range base.stats {
			if got.stats[r] != base.stats[r] {
				t.Fatalf("%d shards: round %d stats %+v != %+v", shards, r, got.stats[r], base.stats[r])
			}
		}
	}
}

func TestValidRejectsUncoveredAndUnbridged(t *testing.T) {
	// Freshly initialised state: everyone unaffiliated, so Valid is false
	// until the protocol has run.
	g := graph.Path(4)
	crashed := make([]bool, 4)
	s := New(4, Config{}, 1)
	s.Begin(g, crashed)
	s.Shard(0, 0, 4, nil)
	s.Commit()
	if s.Valid() {
		t.Fatal("one round from cold cannot already be valid")
	}
	if converge(s, g, crashed, noDrop, 20) < 0 {
		t.Fatal("no convergence on a path")
	}
	// All nodes crashed: vacuously valid.
	for v := range crashed {
		crashed[v] = true
	}
	step(s, g, crashed, noDrop, 1)
	if !s.Valid() {
		t.Fatal("fully-crashed network must be vacuously valid")
	}
}

func TestOrphanAfterDefault(t *testing.T) {
	if (Config{}).orphanAfter() != 2 || (Config{OrphanAfter: 5}).orphanAfter() != 5 {
		t.Fatal("orphanAfter defaulting wrong")
	}
}
