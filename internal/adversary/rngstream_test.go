package adversary

import (
	"hash/fnv"
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// This file pins the exact RNG consumption of the generating adversaries,
// in the spirit of graph's TestGeneratorsRNGStreamUnchanged: the delta
// refactor (Builder-based phase materialisation, churn-set extraction,
// native WindowDelta emission) must not move a single draw. The golden
// fingerprints below were captured from the pre-delta snapshot
// implementation; they hash every round's edge set and hierarchy, the
// churn statistics, and four post-run sentinel draws from the shared rng —
// so both the generated structure and the stream position are locked.

// fingerprint folds a round sequence and the post-run rng position into
// one 64-bit FNV-1a digest.
type fingerprint struct {
	h interface{ Write([]byte) (int, error) }
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) word(x uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	f.h.Write(b[:])
}

func (f *fingerprint) graph(g *graph.Graph) {
	f.word(uint64(g.N()))
	f.word(uint64(g.M()))
	for _, e := range g.Edges() {
		f.word(uint64(e.U)<<32 | uint64(e.V))
	}
}

func (f *fingerprint) hierarchy(h *ctvg.Hierarchy) {
	for v := 0; v < h.N(); v++ {
		f.word(uint64(byte(h.Role[v]))<<32 | uint64(uint32(h.Cluster[v])))
	}
}

func (f *fingerprint) sum() uint64 {
	return f.h.(interface{ Sum64() uint64 }).Sum64()
}

// hiNetFingerprint drives a HiNet sequentially for `rounds` rounds the way
// the engine does (every round when churning, else At is also exercised at
// each round to prove round-skipping paths draw nothing) and digests
// everything observable.
func hiNetFingerprint(cfg HiNetConfig, seed uint64, rounds int) uint64 {
	rng := xrand.New(seed)
	a := NewHiNet(cfg, rng)
	f := newFingerprint()
	for r := 0; r < rounds; r++ {
		f.graph(a.At(r))
		f.hierarchy(a.HierarchyAt(r))
		f.word(uint64(a.StableUntil(r) & 0xffffffff))
	}
	st := a.Stats()
	f.word(uint64(st.Reaffiliations))
	f.word(uint64(st.HeadChanges))
	f.word(uint64(st.Phases))
	for i := 0; i < 4; i++ {
		f.word(rng.Uint64()) // post-run stream position sentinel
	}
	return f.sum()
}

// hiNetWindowFingerprint accesses only window-start rounds, the pattern the
// stability cache and delta recorder use; with ChurnEdges == 0 this must
// not perturb the stream relative to dense access.
func hiNetWindowFingerprint(cfg HiNetConfig, seed uint64, rounds int) uint64 {
	rng := xrand.New(seed)
	a := NewHiNet(cfg, rng)
	f := newFingerprint()
	for r := 0; r < rounds; r = a.StableUntil(r) + 1 {
		f.graph(a.At(r))
		f.hierarchy(a.HierarchyAt(r))
	}
	for i := 0; i < 4; i++ {
		f.word(rng.Uint64())
	}
	return f.sum()
}

func tIntervalFingerprint(n, T, churn int, seed uint64, rounds int) uint64 {
	rng := xrand.New(seed)
	a := NewTInterval(n, T, churn, rng)
	f := newFingerprint()
	for r := 0; r < rounds; r++ {
		f.graph(a.At(r))
	}
	for i := 0; i < 4; i++ {
		f.word(rng.Uint64())
	}
	return f.sum()
}

var hiNetGoldens = []struct {
	name   string
	cfg    HiNetConfig
	seed   uint64
	rounds int
	want   uint64
}{
	{
		name: "stable-L2",
		cfg: HiNetConfig{N: 60, Theta: 12, L: 2, T: 6,
			Reaffiliations: 4, HeadChurn: 2},
		seed: 1, rounds: 30, want: 0x2179b8631a8d1ea9,
	},
	{
		name: "churn-L3",
		cfg: HiNetConfig{N: 40, Theta: 8, L: 3, T: 5,
			Reaffiliations: 3, HeadChurn: 1, ChurnEdges: 6},
		seed: 2, rounds: 25, want: 0x467fa44e009f8f2f,
	},
	{
		name: "churn-L1-noheadchurn",
		cfg: HiNetConfig{N: 30, Theta: 6, L: 1, T: 4,
			Reaffiliations: 2, ChurnEdges: 2},
		seed: 3, rounds: 16, want: 0x3d62f86cd27dad7d,
	},
	{
		name: "stable-headsubset",
		cfg: HiNetConfig{N: 80, Theta: 20, Heads: 10, L: 2, T: 8,
			Reaffiliations: 6, HeadChurn: 3},
		seed: 4, rounds: 40, want: 0x6b7b50d354b12852,
	},
	{
		// Table 3's (1, L)-HiNet row: a new phase and new churn every
		// round, each phase derived from the one before it.
		name: "table3-t1",
		cfg: HiNetConfig{N: 100, Theta: 30, L: 2, T: 1,
			Reaffiliations: 5, ChurnEdges: 10},
		seed: 5, rounds: 48, want: 0xb4c4214010584638,
	},
	{
		// 20 re-affiliations among 21 members: at every boundary some
		// member moves twice, and some back to the head it started at.
		name: "repeat-moves",
		cfg:  HiNetConfig{N: 30, Theta: 5, L: 2, T: 2, Reaffiliations: 20},
		seed: 6, rounds: 24, want: 0x5f5137c5c4bdd4db,
	},
	{
		// One benched pool node and two swaps per boundary: about one
		// boundary in three restores the head set, so phases that keep
		// their heads and phases whose heads rotate follow each other.
		name: "rotate-restore",
		cfg: HiNetConfig{N: 40, Theta: 4, Heads: 3, L: 2, T: 1,
			Reaffiliations: 3, HeadChurn: 2, ChurnEdges: 4},
		seed: 7, rounds: 40, want: 0xa48a9437e883184b,
	},
	{
		name: "rotate-restore-l3",
		cfg: HiNetConfig{N: 40, Theta: 4, Heads: 3, L: 3, T: 2,
			Reaffiliations: 3, HeadChurn: 2},
		seed: 8, rounds: 40, want: 0xad944d95fb7dd68b,
	},
}

func TestHiNetRNGStreamUnchanged(t *testing.T) {
	for _, g := range hiNetGoldens {
		if got := hiNetFingerprint(g.cfg, g.seed, g.rounds); got != g.want {
			t.Errorf("%s: fingerprint %#x, want %#x — HiNet's rng draw order changed", g.name, got, g.want)
		}
	}
}

func TestHiNetRNGStreamWindowAccess(t *testing.T) {
	// Window-start-only access must consume the identical stream for
	// churn-free instances (round skipping draws nothing).
	for _, g := range hiNetGoldens {
		if g.cfg.ChurnEdges != 0 {
			continue
		}
		dense := func() uint64 {
			rng := xrand.New(g.seed)
			a := NewHiNet(g.cfg, rng)
			f := newFingerprint()
			for r := 0; r < g.rounds; r = a.StableUntil(r) + 1 {
				f.graph(a.At(r))
				f.hierarchy(a.HierarchyAt(r))
			}
			for i := 0; i < 4; i++ {
				f.word(rng.Uint64())
			}
			return f.sum()
		}()
		if got := hiNetWindowFingerprint(g.cfg, g.seed, g.rounds); got != dense {
			t.Errorf("%s: window-start access diverged from itself: %#x vs %#x", g.name, got, dense)
		}
	}
}

var tIntervalGoldens = []struct {
	name        string
	n, T, churn int
	seed        uint64
	rounds      int
	want        uint64
}{
	{name: "churny", n: 30, T: 5, churn: 4, seed: 1, rounds: 23, want: 0xe8fa336622080cd1},
	{name: "pure", n: 25, T: 4, churn: 0, seed: 2, rounds: 17, want: 0xeaf62e242e64623e},
}

func TestTIntervalRNGStreamUnchanged(t *testing.T) {
	for _, g := range tIntervalGoldens {
		if got := tIntervalFingerprint(g.n, g.T, g.churn, g.seed, g.rounds); got != g.want {
			t.Errorf("%s: fingerprint %#x, want %#x — TInterval's rng draw order changed", g.name, got, g.want)
		}
	}
}

// oneIntervalFingerprint digests `rounds` rounds of a OneInterval and the
// post-run rng position.
func oneIntervalFingerprint(n, m int, seed uint64, rounds int) uint64 {
	rng := xrand.New(seed)
	a := NewOneInterval(n, m, rng)
	f := newFingerprint()
	for r := 0; r < rounds; r++ {
		f.graph(a.At(r))
	}
	for i := 0; i < 4; i++ {
		f.word(rng.Uint64())
	}
	return f.sum()
}

// The OneInterval goldens were captured from the memoising implementation,
// which drew each round with graph.RandomConnected: a bare spanning tree
// (m = n-1, passed as 0 and as 29) and a denser graph (m > n-1).
var oneIntervalGoldens = []struct {
	name   string
	n, m   int
	seed   uint64
	rounds int
	want   uint64
}{
	{name: "tree", n: 30, m: 0, seed: 1, rounds: 12, want: 0x714ca57d521db1d4},
	{name: "tree-explicit", n: 30, m: 29, seed: 1, rounds: 12, want: 0x714ca57d521db1d4},
	{name: "dense", n: 25, m: 60, seed: 2, rounds: 9, want: 0x18fa9d2659499f50},
}

func TestOneIntervalRNGStreamUnchanged(t *testing.T) {
	for _, g := range oneIntervalGoldens {
		if got := oneIntervalFingerprint(g.n, g.m, g.seed, g.rounds); got != g.want {
			t.Errorf("%s: fingerprint %#x, want %#x — OneInterval's rng draw order changed", g.name, got, g.want)
		}
	}
}
