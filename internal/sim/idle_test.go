package sim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/token"
	"repro/internal/tvg"
)

// wakeProbe calls Idle whenever its Send returns nil, which is on every
// call, and records the rounds its Send was called in and a copy of the
// view of every Deliver call. It absorbs what it hears, so arrivals and
// garbage collection work around it.
type wakeProbe struct {
	ta    *bitset.Set
	sends []int
	views []View
}

func (p *wakeProbe) Send(v *View) *Message {
	p.sends = append(p.sends, v.Round)
	v.Idle()
	return nil
}

func (p *wakeProbe) Deliver(v *View, msgs []*Message) {
	for _, m := range msgs {
		p.ta.UnionWith(m.Tokens)
	}
	p.views = append(p.views, View{Round: v.Round, Role: v.Role, Head: v.Head, Neighbors: slices.Clone(v.Neighbors)})
}

func (p *wakeProbe) Tokens() *bitset.Set    { return p.ta }
func (p *wakeProbe) Inject(r, tok int)      { p.ta.Add(tok) }
func (p *wakeProbe) Collect(gc *bitset.Set) { p.ta.DifferenceWith(gc) }
func (p *wakeProbe) OnRecover(int)          {}

// arrFlood is a floodNode that takes arrivals: it is never idle, so a
// token injected at it reaches every neighbour the same round.
type arrFlood struct{ floodNode }

func (f *arrFlood) Inject(r, tok int)      { f.ta.Add(tok) }
func (f *arrFlood) Collect(gc *bitset.Set) { f.ta.DifferenceWith(gc) }

// wakeLog is what an observer sees of the wake events: each round's role
// and head of every node and who is up, and the rounds of every recovery,
// arrival and garbage collection.
type wakeLog struct {
	roles   [][]ctvg.Role
	heads   [][]int
	up      [][]bool
	rejoin  map[[2]int]bool // (round, node)
	arrived map[[2]int]bool // (round, node)
	gc      map[int]bool
}

// newWakeLog returns an empty log and the observer that fills it.
func newWakeLog(n int) (*wakeLog, *Observer) {
	l := &wakeLog{rejoin: map[[2]int]bool{}, arrived: map[[2]int]bool{}, gc: map[int]bool{}}
	down := make([]bool, n)
	return l, &Observer{
		Recovered: func(r, v int) { l.rejoin[[2]int{r, v}] = true; down[v] = false },
		Crashed:   func(r, v int) { down[v] = true },
		// RoundStart follows the round's Recovered and Crashed events.
		RoundStart: func(r int, g *graph.Graph, h *ctvg.Hierarchy) {
			heads, up := make([]int, n), make([]bool, n)
			for v := range heads {
				heads[v], up[v] = h.HeadOf(v), !down[v]
			}
			l.roles = append(l.roles, slices.Clone(h.Role))
			l.heads = append(l.heads, heads)
			l.up = append(l.up, up)
		},
		Arrived:   func(r, v, tok int, seq int64) { l.arrived[[2]int{r, v}] = true },
		Collected: func(r, tok int, seq int64, born int) { l.gc[r] = true },
	}
}

// expected returns the rounds in which node v's Send must be called under
// the engine's wake rules, for a node that idles on every call: its first
// live round, then the first live round after each wake event — a change
// of role or head, a recovery, an arrival at it, or a garbage collection
// at the previous round's barrier.
func (l *wakeLog) expected(v int) []int {
	var want []int
	wake := true
	for r := range l.roles {
		if r > 0 && (l.roles[r][v] != l.roles[r-1][v] || l.heads[r][v] != l.heads[r-1][v]) {
			wake = true
		}
		if l.rejoin[[2]int{r, v}] || l.arrived[[2]int{r, v}] || r > 0 && l.gc[r-1] {
			wake = true
		}
		if wake && l.up[r][v] {
			want = append(want, r)
			wake = false
		}
	}
	return want
}

// wakeRun runs the nodes built by mk serially and on 4 shards. Both runs
// must call each probe's Send in the same rounds, exactly the ones the wake
// rules predict. It returns the serial run's log and nodes.
func wakeRun(t *testing.T, d ctvg.Dynamic, mk func(v int) Node, opts Options) (*wakeLog, []Node) {
	t.Helper()
	var logs [2]*wakeLog
	var runs [2][]Node
	for i, workers := range []int{1, 4} {
		nodes := make([]Node, d.N())
		for v := range nodes {
			nodes[v] = mk(v)
		}
		var obs *Observer
		logs[i], obs = newWakeLog(d.N())
		o := opts
		o.Observer, o.Workers = obs, workers
		MustRun(d, nodes, token.SingleSource(d.N(), 1, 0), o)
		runs[i] = nodes
	}
	for v, nd := range runs[0] {
		p, ok := nd.(*wakeProbe)
		if !ok {
			continue
		}
		if par := runs[1][v].(*wakeProbe).sends; !slices.Equal(p.sends, par) {
			t.Fatalf("node %d: Send called in rounds %v serially, %v on 4 shards", v, p.sends, par)
		}
		if want := logs[0].expected(v); !slices.Equal(p.sends, want) {
			t.Fatalf("node %d: Send called in rounds %v, the wake rules give %v", v, p.sends, want)
		}
	}
	return logs[0], runs[0]
}

// probe builds a wakeProbe that holds no token.
func probe(v int) Node { return &wakeProbe{ta: bitset.New(1)} }

// sendRounds lists every node's Send rounds, nil for a node that is not a
// probe.
func sendRounds(nodes []Node) [][]int {
	out := make([][]int, len(nodes))
	for v, nd := range nodes {
		if p, ok := nd.(*wakeProbe); ok {
			out[v] = p.sends
		}
	}
	return out
}

// TestIdleWindowsWakeOnRoleOrHead pins the window rules. Graph windows
// open at rounds 2, 4 and 6, and the hierarchy changes at round 5, where
// node 2 turns gateway and node 3 moves to head 1. A window that keeps a
// node's role and head must not wake it; the view it gets in Deliver
// still shows the current round and window.
func TestIdleWindowsWakeOnRoleOrHead(t *testing.T) {
	const n = 6
	a, b := graph.Path(n), graph.Ring(n)
	h0, h1 := ctvg.NewHierarchy(n), ctvg.NewHierarchy(n)
	for _, h := range []*ctvg.Hierarchy{h0, h1} {
		h.SetHead(0)
		h.SetHead(1)
		h.SetMember(4, 1)
	}
	h0.SetMember(2, 0)
	h0.SetMember(3, 0)
	h1.SetGateway(2, 0)
	h1.SetMember(3, 1)
	graphs := []*graph.Graph{a, a, b, b, a, a, b, b}
	hiers := []*ctvg.Hierarchy{h0, h0, h0, h0, h0, h1, h1, h1}
	d := ctvg.NewTrace(tvg.NewTrace(graphs), hiers)

	_, nodes := wakeRun(t, d, probe, Options{MaxRounds: len(graphs)})
	want := [][]int{{0}, {0}, {0, 5}, {0, 5}, {0}, {0}}
	if got := sendRounds(nodes); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Send rounds %v, want %v", got, want)
	}
	for v, nd := range nodes {
		for r, vw := range nd.(*wakeProbe).views {
			if vw.Round != r || !slices.Equal(vw.Neighbors, graphs[r].Neighbors(v)) ||
				vw.Role != hiers[r].Role[v] || vw.Head != hiers[r].HeadOf(v) {
				t.Fatalf("node %d, round %d: Deliver's view %+v is not the round's", v, r, vw)
			}
		}
	}
}

// TestIdleWakesOnRecovery: a node that rejoins after a downtime is called
// again in its rejoin round; a crash-stop node and the nodes that stay up
// are not.
func TestIdleWakesOnRecovery(t *testing.T) {
	d := NewFlat(tvg.Static{G: graph.Complete(5)})
	l, nodes := wakeRun(t, d, probe, Options{MaxRounds: 10, Faults: &Faults{
		CrashAt:      map[int]int{2: 3, 3: 2},
		RecoverAfter: map[int]int{2: 2},
	}})
	if !l.rejoin[[2]int{5, 2}] {
		t.Fatal("node 2 did not rejoin at round 5")
	}
	want := [][]int{{0}, {0}, {0, 5}, {0}, {0}}
	if got := sendRounds(nodes); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Send rounds %v, want %v", got, want)
	}
}

// TestIdleWakesOnArrivalsAndGC: on a star whose centre floods, an arrival
// at the centre is collected at the same round's barrier, and every leaf
// is called in the next round. An arrival at a leaf wakes that leaf in its
// round, and is never collected, since the leaf never sends.
func TestIdleWakesOnArrivalsAndGC(t *testing.T) {
	d := NewFlat(tvg.Static{G: graph.Star(9, 0)})
	mk := func(v int) Node {
		if v == 0 {
			return &arrFlood{floodNode{ta: token.SingleSource(1, 1, 0).Initial[0].Clone()}}
		}
		return probe(v)
	}
	l, _ := wakeRun(t, d, mk, Options{MaxRounds: 40, Arrivals: &Arrivals{Rate: 0.6, Seed: 7, Stop: 30}})
	atLeaf := 0
	for rv := range l.arrived {
		if rv[1] != 0 {
			atLeaf++
		}
	}
	if atLeaf == 0 || len(l.gc) < 3 {
		t.Fatalf("%d arrivals at leaves and %d GC rounds: too few wakes to test", atLeaf, len(l.gc))
	}
}

// TestIdleSelfStabilize: under SelfStabilize every round opens a window,
// and only the nodes whose emergent role or head changed wake, here also
// around a head that crashes and rejoins.
func TestIdleSelfStabilize(t *testing.T) {
	const n = 12
	d := NewFlat(tvg.Static{G: graph.Path(n)})
	l, nodes := wakeRun(t, d, probe, Options{
		MaxRounds:     24,
		SelfStabilize: &SelfStabilize{},
		Faults:        &Faults{CrashAt: map[int]int{0: 8}, RecoverAfter: map[int]int{0: 6}},
	})
	changes, calls := 0, 0
	for r := 1; r < len(l.roles); r++ {
		for v := 0; v < n; v++ {
			if l.roles[r][v] != l.roles[r-1][v] || l.heads[r][v] != l.heads[r-1][v] {
				changes++
			}
		}
	}
	for _, s := range sendRounds(nodes) {
		calls += len(s)
	}
	if changes == 0 || calls >= n*len(l.roles)/2 {
		t.Fatalf("%d role or head changes and %d Send calls over %d node-rounds: nothing is tested",
			changes, calls, n*len(l.roles))
	}
}

// TestViewFitsACacheLine pins the View at 64 bytes on 64-bit platforms.
// A large run's view array is page-aligned, so each node's view then sits
// in one cache line, which delivery loads and writes every round.
func TestViewFitsACacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(View{}) != 64 {
		t.Fatalf("View is %d bytes, want 64", unsafe.Sizeof(View{}))
	}
}
