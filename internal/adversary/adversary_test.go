package adversary

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/ctvg"
	"repro/internal/geom"
	"repro/internal/hinet"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

func TestOneIntervalEveryRoundConnected(t *testing.T) {
	a := NewOneInterval(20, 0, xrand.New(1))
	for r := 0; r < 30; r++ {
		if !a.At(r).Connected() {
			t.Fatalf("round %d disconnected", r)
		}
		if a.At(r).M() != 19 {
			t.Fatalf("round %d has %d edges, want spanning tree", r, a.At(r).M())
		}
	}
	if !tvg.AlwaysConnected(NewOneInterval(20, 0, xrand.New(1)), 30) {
		t.Fatal("not 1-interval connected")
	}
}

func TestOneIntervalMemoised(t *testing.T) {
	a := NewOneInterval(10, 15, xrand.New(2))
	g1 := a.At(5)
	g2 := a.At(5)
	if g1 != g2 {
		t.Fatal("asking for the current round again returned another graph")
	}
	if g1.M() != 15 {
		t.Fatalf("m=%d", g1.M())
	}
}

func TestOneIntervalActuallyChanges(t *testing.T) {
	a := NewOneInterval(15, 0, xrand.New(3))
	same := 0
	prev := a.At(0)
	for r := 1; r < 20; r++ {
		g := a.At(r)
		if g.Equal(prev) {
			same++
		}
		prev = g
	}
	if same > 2 {
		t.Fatalf("%d/19 consecutive rounds identical; adversary too static", same)
	}
}

func TestOneIntervalValidation(t *testing.T) {
	for _, bad := range []struct{ n, m int }{{0, 0}, {5, 3}, {5, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d m=%d accepted", bad.n, bad.m)
				}
			}()
			NewOneInterval(bad.n, bad.m, xrand.New(1))
		}()
	}
}

func TestTIntervalAlignedWindowsStable(t *testing.T) {
	const T = 5
	a := NewTInterval(20, T, 8, xrand.New(4))
	for w := 0; w < 4; w++ {
		st := tvg.StableSubgraph(a, w*T, T)
		if !st.Connected() {
			t.Fatalf("window %d lacks stable connected spanning subgraph", w)
		}
		if st.M() < 19 {
			t.Fatalf("window %d stable subgraph too small: %d edges", w, st.M())
		}
	}
}

func TestTIntervalChurnAddsEdges(t *testing.T) {
	a := NewTInterval(30, 4, 10, xrand.New(5))
	// Each round must have more edges than the bare backbone tree.
	for r := 0; r < 8; r++ {
		if a.At(r).M() <= 29 {
			t.Fatalf("round %d has no churn edges (m=%d)", r, a.At(r).M())
		}
	}
	// Backbone changes across windows (probabilistically near-certain).
	a = NewTInterval(30, 4, 10, xrand.New(5))
	b0 := tvg.StableSubgraph(a, 0, 4)
	b1 := tvg.StableSubgraph(a, 4, 4)
	if b0.Equal(b1) {
		t.Log("warning: two consecutive backbones identical (possible but unlikely)")
	}
}

func TestTIntervalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params accepted")
		}
	}()
	NewTInterval(10, 0, 0, xrand.New(1))
}

func TestHiNetSatisfiesModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  HiNetConfig
	}{
		{"L2 stable heads", HiNetConfig{N: 40, Theta: 8, L: 2, T: 12, Reaffiliations: 3, ChurnEdges: 6}},
		{"L3 with head churn", HiNetConfig{N: 50, Theta: 10, Heads: 6, L: 3, T: 15, Reaffiliations: 5, HeadChurn: 2, ChurnEdges: 4}},
		{"L1 direct heads", HiNetConfig{N: 30, Theta: 5, L: 1, T: 8, ChurnEdges: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := ctvg.Recording(NewHiNet(tc.cfg, xrand.New(7)))
			m := hinet.Model{T: tc.cfg.T, L: tc.cfg.L}
			if err := m.CheckValid(a, 5); err != nil {
				t.Fatalf("model violated: %v", err)
			}
		})
	}
}

func TestHiNetHeadPoolRespected(t *testing.T) {
	cfg := HiNetConfig{N: 40, Theta: 6, Heads: 4, L: 2, T: 5, HeadChurn: 2, Reaffiliations: 2, ChurnEdges: 2}
	a := NewHiNet(cfg, xrand.New(9))
	seen := map[int]bool{}
	for p := 0; p < 12; p++ {
		for _, h := range a.HierarchyAt(p * cfg.T).Heads() {
			seen[h] = true
		}
	}
	if len(seen) > cfg.Theta {
		t.Fatalf("%d distinct heads observed, pool bound is %d", len(seen), cfg.Theta)
	}
	if len(seen) <= cfg.Heads {
		t.Fatalf("head churn never rotated heads: only %v", seen)
	}
}

// TestHiNetHeadChurnNeedsBenchedPool pins HeadChurn's documented
// condition: a rotation promotes a pool node that is not serving, so at
// Heads = Theta (the default, and the 1k, 10k and 100k benchmark
// instances' setting) five phases change no head, while Heads < Theta
// rotates.
func TestHiNetHeadChurnNeedsBenchedPool(t *testing.T) {
	for _, c := range []struct {
		heads   int
		rotates bool
	}{{0, false}, {12, false}, {10, true}} {
		cfg := HiNetConfig{N: 120, Theta: 12, Heads: c.heads, L: 2, T: 4, Reaffiliations: 5, HeadChurn: 2}
		a := NewHiNet(cfg, xrand.New(3))
		a.At(5*cfg.T - 1)
		if st := a.Stats(); st.Phases != 5 || (st.HeadChanges > 0) != c.rotates {
			t.Errorf("Heads=%d: %d head changes over %d phases, want rotation %v", c.heads, st.HeadChanges, st.Phases, c.rotates)
		}
	}
}

func TestHiNetStableHeadSetWhenNoChurn(t *testing.T) {
	cfg := HiNetConfig{N: 30, Theta: 5, L: 2, T: 6, Reaffiliations: 2, ChurnEdges: 3}
	a := ctvg.Recording(NewHiNet(cfg, xrand.New(11)))
	horizon := 8 * cfg.T
	if !hinet.HeadSetStableForever(a, horizon) {
		t.Fatal("HeadChurn=0 should yield an ∞-interval stable head set")
	}
}

func TestHiNetReaffiliationStats(t *testing.T) {
	cfg := HiNetConfig{N: 30, Theta: 5, L: 2, T: 4, Reaffiliations: 3, ChurnEdges: 0}
	a := NewHiNet(cfg, xrand.New(13))
	a.At(5*cfg.T - 1) // 5 phases generated
	st := a.Stats()
	if st.Phases != 5 {
		t.Fatalf("phases %d", st.Phases)
	}
	// Phase 0 has no boundary; 4 boundaries x 3 re-affiliations.
	if st.Reaffiliations != 12 {
		t.Fatalf("reaffiliations %d, want 12", st.Reaffiliations)
	}
}

func TestHiNetMembershipChangesAcrossPhases(t *testing.T) {
	cfg := HiNetConfig{N: 30, Theta: 5, L: 2, T: 4, Reaffiliations: 3, ChurnEdges: 0}
	a := NewHiNet(cfg, xrand.New(15))
	h0 := a.HierarchyAt(0)
	h1 := a.HierarchyAt(cfg.T)
	diff := 0
	for v := 0; v < cfg.N; v++ {
		if h0.Cluster[v] != h1.Cluster[v] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("no membership changed across a phase boundary despite re-affiliations")
	}
}

func TestHiNetInfeasibleConfigsPanic(t *testing.T) {
	bad := []HiNetConfig{
		{N: 1, Theta: 1, L: 1, T: 1},                          // too small
		{N: 10, Theta: 0, L: 1, T: 1},                         // no heads
		{N: 10, Theta: 11, L: 1, T: 1},                        // theta > n
		{N: 10, Theta: 5, L: 4, T: 1},                         // L out of range
		{N: 10, Theta: 5, L: 2, T: 0},                         // T zero
		{N: 6, Theta: 5, Heads: 5, L: 3, T: 1},                // cannot host gateways
		{N: 30, Theta: 5, Heads: 3, L: 2, T: 1, HeadChurn: 4}, // churn > heads
		{N: 30, Theta: 5, L: 2, T: 1, Reaffiliations: -1},     // negative
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d accepted: %+v", i, cfg)
				}
			}()
			NewHiNet(cfg, xrand.New(1))
		}()
	}
}

func TestHiNetDeterministic(t *testing.T) {
	cfg := HiNetConfig{N: 25, Theta: 5, L: 2, T: 5, Reaffiliations: 2, ChurnEdges: 3}
	a := NewHiNet(cfg, xrand.New(21))
	b := NewHiNet(cfg, xrand.New(21))
	for r := 0; r < 20; r++ {
		if !a.At(r).Equal(b.At(r)) {
			t.Fatalf("round %d graphs differ", r)
		}
		if !a.HierarchyAt(r).Equal(b.HierarchyAt(r)) {
			t.Fatalf("round %d hierarchies differ", r)
		}
	}
}

func TestMobilityHierarchiesValidEveryRound(t *testing.T) {
	cfg := MobilityConfig{
		N:        40,
		Field:    geom.Field{W: 60, H: 60},
		Radius:   18,
		MinSpeed: 0.5, MaxSpeed: 2, PauseRounds: 1,
		Cluster: cluster.Config{Election: cluster.LowestID},
	}
	a := NewMobility(cfg, xrand.New(17))
	for r := 0; r < 50; r++ {
		if err := a.HierarchyAt(r).Validate(a.At(r)); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	st := a.Stats()
	if st.Reaffiliations == 0 && st.NewHeads == 0 && st.RemovedHeads == 0 {
		t.Log("note: no churn observed in 50 rounds (possible at this density)")
	}
}

func TestMobilityEnsureConnected(t *testing.T) {
	cfg := MobilityConfig{
		N:        25,
		Field:    geom.Field{W: 100, H: 100}, // sparse: would disconnect
		Radius:   12,
		MinSpeed: 1, MaxSpeed: 3,
		EnsureConnected: true,
	}
	a := NewMobility(cfg, xrand.New(19))
	if !tvg.AlwaysConnected(a, 40) {
		t.Fatal("EnsureConnected failed to keep rounds connected")
	}
}

func TestMobilityCoverage(t *testing.T) {
	// With EnsureConnected and maintenance, every node must always have a
	// head (possibly itself).
	cfg := MobilityConfig{
		N: 30, Field: geom.Field{W: 80, H: 80}, Radius: 15,
		MinSpeed: 1, MaxSpeed: 2, EnsureConnected: true,
	}
	a := NewMobility(cfg, xrand.New(23))
	for r := 0; r < 30; r++ {
		h := a.HierarchyAt(r)
		for v := 0; v < cfg.N; v++ {
			if h.HeadOf(v) == ctvg.NoCluster {
				t.Fatalf("round %d: node %d uncovered", r, v)
			}
		}
	}
}

func TestMobilityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	NewMobility(MobilityConfig{N: 0, Radius: 1}, xrand.New(1))
}

func BenchmarkHiNetRound(b *testing.B) {
	cfg := HiNetConfig{N: 100, Theta: 30, L: 2, T: 10, Reaffiliations: 3, ChurnEdges: 10}
	a := NewHiNet(cfg, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.At(i)
	}
}

func BenchmarkMobilityRound(b *testing.B) {
	cfg := MobilityConfig{
		N: 100, Field: geom.Field{W: 100, H: 100}, Radius: 20,
		MinSpeed: 1, MaxSpeed: 2, EnsureConnected: true,
	}
	a := NewMobility(cfg, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.At(i)
	}
}

func TestHiNetStableUntil(t *testing.T) {
	// Without per-round edge churn each aligned T-round phase is frozen, so
	// every round's window runs to its phase boundary.
	cfg := HiNetConfig{N: 30, Theta: 5, L: 2, T: 6, Reaffiliations: 2, HeadChurn: 1}
	a := NewHiNet(cfg, xrand.New(3))
	for _, c := range []struct{ r, want int }{
		{0, 5}, {3, 5}, {5, 5}, {6, 11}, {17, 17}, {18, 23},
	} {
		if got := a.StableUntil(c.r); got != c.want {
			t.Errorf("StableUntil(%d) = %d want %d", c.r, got, c.want)
		}
	}
	// The promise must be true: every round of a window equals its first.
	for r := 1; r < cfg.T; r++ {
		if !a.At(r).Equal(a.At(0)) {
			t.Fatalf("round %d differs from round 0 inside the promised window", r)
		}
		if !a.HierarchyAt(r).Equal(a.HierarchyAt(0)) {
			t.Fatalf("hierarchy %d differs inside the promised window", r)
		}
	}
	if a.At(cfg.T).Equal(a.At(0)) && a.HierarchyAt(cfg.T).Equal(a.HierarchyAt(0)) {
		t.Fatal("phase boundary produced no change; churn config ineffective")
	}

	// With per-round edge churn no window can be promised.
	churny := NewHiNet(HiNetConfig{N: 30, Theta: 5, L: 2, T: 6, ChurnEdges: 3}, xrand.New(3))
	for _, r := range []int{0, 4, 7} {
		if got := churny.StableUntil(r); got != r {
			t.Errorf("ChurnEdges>0: StableUntil(%d) = %d want %d", r, got, r)
		}
	}
}

func TestHiNetStableUntilNegativePanics(t *testing.T) {
	a := NewHiNet(HiNetConfig{N: 10, Theta: 3, L: 2, T: 4}, xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative round")
		}
	}()
	a.StableUntil(-1)
}

// table3Models builds each dynamics model of the Table 3 point (n=100,
// θ=30, L=2, T=18, ten churn edges a round) as experiment.Table3Config
// runs it, with the row's round budget: KLO T-interval, Algorithm 1's
// (T, L)-HiNet with 20 re-affiliations per phase boundary, KLO 1-interval
// flooding, and Algorithm 2's (1, L)-HiNet with 5 per round.
var table3Models = []struct {
	name   string
	budget int
	build  func(seed uint64) tvg.Dynamic
}{
	{"klo_t", 180, func(seed uint64) tvg.Dynamic { return NewTInterval(100, 18, 10, xrand.New(seed)) }},
	{"alg1", 126, func(seed uint64) tvg.Dynamic {
		return NewHiNet(HiNetConfig{N: 100, Theta: 30, L: 2, T: 18, Reaffiliations: 20, ChurnEdges: 10}, xrand.New(seed))
	}},
	{"flood", 99, func(seed uint64) tvg.Dynamic { return NewOneInterval(100, 0, xrand.New(seed)) }},
	{"alg2", 99, func(seed uint64) tvg.Dynamic {
		return NewHiNet(HiNetConfig{N: 100, Theta: 30, L: 2, T: 1, Reaffiliations: 5, ChurnEdges: 10}, xrand.New(seed))
	}},
}

// churnyRoundAllocs bounds the allocations of a fresh churny round of
// HiNet.At and TInterval.At at the Table 3 point, inside a phase: the
// round's churn set and the churn memo's occasional growth. The round's
// graph is written into a recycled one by graph.ApplyDeltaInto.
const churnyRoundAllocs = 21

func TestChurnyRoundAllocs(t *testing.T) {
	for _, m := range table3Models {
		if m.name == "flood" || m.name == "alg2" {
			continue // every round draws a fresh structure, not just churn
		}
		d := m.build(1)
		r := 18 // phase 1 runs rounds 18..35
		d.At(r)
		got := testing.AllocsPerRun(16, func() {
			r++
			d.At(r)
		})
		if got > churnyRoundAllocs {
			t.Errorf("%s: a fresh churny round allocates %v times, budget %d", m.name, got, churnyRoundAllocs)
		}
	}
}

// BenchmarkTable3Round generates one fresh round of each Table 3 dynamics
// model (see table3Models). Each adversary is rebuilt after its row's
// round budget, as a replication would, so phase boundaries weigh in at
// their real rate. It explains
// sim.StageSnapshot on perfbench's table3-grid, which times exactly these
// At calls. Run with -benchmem.
func BenchmarkTable3Round(b *testing.B) {
	for _, m := range table3Models {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var d tvg.Dynamic
			for i := 0; i < b.N; i++ {
				r := i % m.budget
				if r == 0 {
					d = m.build(uint64(i))
				}
				d.At(r)
			}
		})
	}
}
