package sim

import (
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/token"
)

func TestWorkersForClamp(t *testing.T) {
	cases := []struct {
		workers, n, procs, want int
	}{
		// Unset: one shard per minShardNodes nodes, at most procs.
		{0, 5, 2, 1},                              // far below the threshold → serial
		{0, 2*minShardNodes - 1, 2, 1},            // one node short of two shards → serial
		{0, 10_000, 2, 2},                         // 10k on 2 procs → 2 shards
		{0, 100_000, 1, 1},                        // one proc → serial at any size
		{0, 100_000, 64, 100_000 / minShardNodes}, // many procs → capped at n/minShardNodes
		{0, 64 * minShardNodes, 64, 64},           // ...and at procs
		{-3, 5, 2, 1},                             // nonsense → serial
		{-3, 100_000, 64, 1},                      // ...above the threshold too
		{1, 100_000, 64, 1},                       // explicit serial above the threshold
		{4, 5, 1, 4},                              // explicit counts ignore procs
		{5, 5, 2, 5},
		{8, 5, 2, 5},  // more workers than nodes → clamp to n
		{64, 1, 2, 1}, // single node never parallelises
		{16, 16, 2, 16},
	}
	for _, c := range cases {
		if got := workersFor(c.workers, c.n, c.procs); got != c.want {
			t.Errorf("workersFor(workers=%d, n=%d, procs=%d) = %d, want %d", c.workers, c.n, c.procs, got, c.want)
		}
	}
}

func TestWorkersExceedingNodes(t *testing.T) {
	// Regression: Workers larger than the node count used to be passed to
	// the shard partition unclamped. The run must behave exactly like the
	// serial one.
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	opts := Options{MaxRounds: 6}
	want := MustRunProtocol(d, floodProto{}, assign, opts)
	opts.Workers = 64
	got := MustRunProtocol(d, floodProto{}, assign, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Workers=64 over 3 nodes diverges from serial:\n  got  %+v\n  want %+v", got, want)
	}
	if !got.Complete {
		t.Fatal("clamped run did not complete")
	}
}

// arenaFlood is floodNode rebuilt on the View arena: payloads come from
// NewSet/NewMessage and die at the round barrier, like the real protocols.
type arenaFlood struct{ ta *bitset.Set }

func (f *arenaFlood) Send(v *View) *Message {
	payload := v.NewSet()
	payload.CopyFrom(f.ta)
	m := v.NewMessage()
	m.To = NoAddr
	m.Kind = KindBroadcast
	m.Tokens = payload
	return m
}

func (f *arenaFlood) Deliver(v *View, msgs []*Message) {
	for _, m := range msgs {
		f.ta.UnionWith(m.Tokens)
	}
}

func (f *arenaFlood) Tokens() *bitset.Set { return f.ta }

func TestRunHotPathAllocFree(t *testing.T) {
	// The arena makes the steady-state round loop allocation-free: across a
	// 200-round run over 50 broadcasting nodes, an engine without pooling
	// would allocate at least rounds·n message+payload pairs (20 000). With
	// pooling, everything after the first round's arena warm-up comes from
	// recycled storage, so the whole run must stay well under one allocation
	// per (node, round).
	const n, rounds = 50, 200
	assign := token.SingleSource(n, 4, 0)
	for t1 := 1; t1 < 4; t1++ {
		assign.Initial[0].Add(t1)
	}
	d := staticPath(n)
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = &arenaFlood{ta: assign.Initial[v].Clone()}
	}
	avg := testing.AllocsPerRun(5, func() {
		MustRun(d, nodes, assign, Options{MaxRounds: rounds})
	})
	if avg > 2000 {
		t.Fatalf("Run allocated %.0f times over %d rounds x %d nodes; the arena is not recycling", avg, rounds, n)
	}
}
