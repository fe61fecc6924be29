package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/token"
	"repro/internal/tvg"
)

// wakeProbe calls Idle whenever its Send returns nil, which is on every
// call unless the probe is busy, and records the rounds its Send was
// called in and a copy of the view of every Deliver call. It absorbs what
// it hears, so arrivals and garbage collection work around it.
type wakeProbe struct {
	ta    *bitset.Set
	busy  bool // never idles
	sends []int
	views []View
}

func (p *wakeProbe) Send(v *View) *Message {
	p.sends = append(p.sends, v.Round)
	if !p.busy {
		v.Idle()
	}
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

// delivered returns the rounds of the probe's Deliver calls.
func (p *wakeProbe) delivered() []int {
	rounds := make([]int, len(p.views))
	for i, vw := range p.views {
		rounds[i] = vw.Round
	}
	return rounds
}

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
func newWakeLog(n int) (*wakeLog, Observer) {
	l := &wakeLog{rejoin: map[[2]int]bool{}, arrived: map[[2]int]bool{}, gc: map[int]bool{}}
	down := make([]bool, n)
	return l, func(rd *Round) {
		for _, v := range rd.Recovered {
			l.rejoin[[2]int{rd.R, v}] = true
			down[v] = false
		}
		for _, v := range rd.Crashed {
			down[v] = true
		}
		h := rd.Hier
		heads, up := make([]int, n), make([]bool, n)
		for v := range heads {
			heads[v], up[v] = h.HeadOf(v), !down[v]
		}
		l.roles = append(l.roles, slices.Clone(h.Role))
		l.heads = append(l.heads, heads)
		l.up = append(l.up, up)
		for _, a := range rd.Arrived {
			l.arrived[[2]int{rd.R, a.Node}] = true
		}
		if len(rd.Collected) > 0 {
			l.gc[rd.R] = true
		}
	}
}

// expected returns the rounds in which node v's Send must be called under
// the engine's wake rules: every live round for a busy node, and for a
// node that idles on every call its first live round, then the first live
// round after each wake event — a change of role or head, a recovery, an
// arrival at it, or a garbage collection at the previous round's barrier.
func (l *wakeLog) expected(v int, busy bool) []int {
	var want []int
	wake := true
	for r := range l.roles {
		if r > 0 && (l.roles[r][v] != l.roles[r-1][v] || l.heads[r][v] != l.heads[r-1][v]) {
			wake = true
		}
		if l.rejoin[[2]int{r, v}] || l.arrived[[2]int{r, v}] || r > 0 && l.gc[r-1] {
			wake = true
		}
		if (wake || busy) && l.up[r][v] {
			want = append(want, r)
			wake = false
		}
	}
	return want
}

// wakeRun runs the nodes built by mk serially and on 4 shards. Both runs
// must end with the same Metrics, call each probe's Send in the same
// rounds, exactly the ones the wake rules predict, and hand it the same
// deliveries. It returns the serial run's log, nodes and Metrics.
func wakeRun(t *testing.T, d ctvg.Dynamic, mk func(v int) Node, opts Options) (*wakeLog, []Node, *Metrics) {
	t.Helper()
	var logs [2]*wakeLog
	var runs [2][]Node
	var mets [2]*Metrics
	for i, workers := range []int{1, 4} {
		nodes := make([]Node, d.N())
		for v := range nodes {
			nodes[v] = mk(v)
		}
		var obs Observer
		logs[i], obs = newWakeLog(d.N())
		o := opts
		o.Observer, o.Workers = obs, workers
		mets[i] = MustRun(d, nodes, token.SingleSource(d.N(), 1, 0), o)
		runs[i] = nodes
	}
	if !reflect.DeepEqual(mets[0], mets[1]) {
		t.Fatalf("metrics differ serially and on 4 shards:\n%+v\n%+v", *mets[0], *mets[1])
	}
	for v, nd := range runs[0] {
		p, ok := nd.(*wakeProbe)
		if !ok {
			continue
		}
		par := runs[1][v].(*wakeProbe)
		if !slices.Equal(p.sends, par.sends) {
			t.Fatalf("node %d: Send called in rounds %v serially, %v on 4 shards", v, p.sends, par.sends)
		}
		if fmt.Sprint(p.views) != fmt.Sprint(par.views) {
			t.Fatalf("node %d: Deliver handed views %v serially, %v on 4 shards", v, p.views, par.views)
		}
		if want := logs[0].expected(v, p.busy); !slices.Equal(p.sends, want) {
			t.Fatalf("node %d: Send called in rounds %v, the wake rules give %v", v, p.sends, want)
		}
	}
	return logs[0], runs[0], mets[0]
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
	d := ctvg.NewTrace(graphs, hiers)

	_, nodes, _ := wakeRun(t, d, probe, Options{MaxRounds: len(graphs)})
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
	l, nodes, _ := wakeRun(t, d, probe, Options{MaxRounds: 10, Faults: &Faults{
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
	l, _, _ := wakeRun(t, d, mk, Options{MaxRounds: 40, Arrivals: &Arrivals{Rate: 0.6, Seed: 7, Stop: 30}})
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
	l, nodes, _ := wakeRun(t, d, probe, Options{
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

// lateStar is a star centred on node 0 whose last leaf joins it at round
// join: a flood from the centre completes at the end of that round.
func lateStar(n, join int) ctvg.Dynamic {
	bd := graph.NewBuilder(n)
	for v := 1; v < n-1; v++ {
		bd.Add(0, v)
	}
	cut, graphs, hiers := bd.Build(), make([]*graph.Graph, join+1), make([]*ctvg.Hierarchy, join+1)
	for r := range join {
		graphs[r] = cut
	}
	graphs[join] = graph.Star(n, 0)
	for r := range hiers {
		hiers[r] = ctvg.NewHierarchy(n)
	}
	return ctvg.NewTrace(graphs, hiers)
}

// starFlood makes node 0 a flood of token 0, node 1 a busy probe and every
// other node a probe that idles.
func starFlood(v int) Node {
	switch v {
	case 0:
		return &arrFlood{floodNode{ta: token.SingleSource(1, 1, 0).Initial[0].Clone()}}
	case 1:
		return &wakeProbe{ta: bitset.New(1), busy: true}
	}
	return probe(v)
}

// firstRounds returns the rounds 0 to n-1.
func firstRounds(n int) []int {
	rounds := make([]int, n)
	for r := range rounds {
		rounds[r] = r
	}
	return rounds
}

// TestIdleDeliveryStopsAtCompletion: the flood of lateStar completes at
// the end of round 4. Until then every probe is handed its deliveries
// every round. From round 5 on no message can teach a node a token, and
// an idle probe is handed none, while the busy probe still is.
func TestIdleDeliveryStopsAtCompletion(t *testing.T) {
	const n, join, rounds = 6, 4, 10
	_, nodes, met := wakeRun(t, lateStar(n, join), starFlood, Options{MaxRounds: rounds})
	if !met.Complete || met.CompletionRound != join+1 {
		t.Fatalf("complete %v at round %d, want round %d", met.Complete, met.CompletionRound, join+1)
	}
	for v := 1; v < n; v++ {
		p := nodes[v].(*wakeProbe)
		want := firstRounds(join + 1)
		if p.busy {
			want = firstRounds(rounds)
		}
		if got := p.delivered(); !slices.Equal(got, want) {
			t.Fatalf("node %d (busy %v): Deliver called in rounds %v, want %v", v, p.busy, got, want)
		}
	}
}

// nopTracer attaches a Tracer that records nothing.
type nopTracer struct{}

func (nopTracer) RunStart(n, k, shards int, nodes []Node)                           {}
func (nopTracer) RoundStart(r int, hier *ctvg.Hierarchy)                            {}
func (nopTracer) Delivered(shard, v int, vw *View, inbox []*Message, t *bitset.Set) {}
func (nopTracer) RoundEnd(r int, crashed []bool) (first, redundant int)             { return 0, 0 }

// TestIdleDeliveryWhileCounted: after completion an idle probe is still
// handed its deliveries when something counts single deliveries: a
// tracer, i.i.d. or burst loss, or duplication.
func TestIdleDeliveryWhileCounted(t *testing.T) {
	const n, join, rounds = 6, 4, 16
	cases := []struct {
		name string
		opts Options
	}{
		{"tracer", Options{Tracer: nopTracer{}}},
		{"iid-loss", Options{Faults: &Faults{Seed: 3, DropProb: 0.2}}},
		{"burst-loss", Options{Faults: &Faults{Seed: 4, Burst: &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.4, DropBad: 1}}}},
		{"duplication", Options{Faults: &Faults{Seed: 6, DupProb: 0.2}}},
	}
	for _, c := range cases {
		o := c.opts
		o.MaxRounds = rounds
		_, nodes, met := wakeRun(t, lateStar(n, join), starFlood, o)
		if !met.Complete || met.CompletionRound >= rounds {
			t.Fatalf("%s: complete %v at round %d of %d: nothing is tested", c.name, met.Complete, met.CompletionRound, rounds)
		}
		for v := 1; v < n; v++ {
			if got := nodes[v].(*wakeProbe).delivered(); !slices.Equal(got, firstRounds(rounds)) {
				t.Fatalf("%s: node %d: Deliver called in rounds %v, want every round", c.name, v, got)
			}
		}
	}
}

// TestIdleArrivalsPastCompletion: arrivals at the centre of a star stop at
// round 20, and the run completes when their last token is collected. It
// goes on past completion, and must end as the run in which every leaf is
// busy does, in Metrics and token sets; only the idle leaves' deliveries
// stop.
func TestIdleArrivalsPastCompletion(t *testing.T) {
	const n, rounds = 9, 40
	d := NewFlat(tvg.Static{G: graph.Star(n, 0)})
	arr := &Arrivals{Rate: 0.6, Seed: 7, Stop: 20, Hotspot: true, HotspotNode: 0}
	run := func(busy bool) ([]Node, *Metrics) {
		mk := func(v int) Node {
			if v == 0 {
				return &arrFlood{floodNode{ta: token.SingleSource(1, 1, 0).Initial[0].Clone()}}
			}
			return &wakeProbe{ta: bitset.New(1), busy: busy}
		}
		_, nodes, met := wakeRun(t, d, mk, Options{MaxRounds: rounds, Arrivals: arr})
		return nodes, met
	}
	idle, idleMet := run(false)
	busy, busyMet := run(true)
	if !idleMet.Complete || idleMet.CompletionRound >= rounds || idleMet.TokensInjected == 0 {
		t.Fatalf("complete %v at round %d of %d after %d arrivals: nothing is tested",
			idleMet.Complete, idleMet.CompletionRound, rounds, idleMet.TokensInjected)
	}
	if !reflect.DeepEqual(idleMet, busyMet) {
		t.Fatalf("metrics differ from the busy run:\n%+v\n%+v", *idleMet, *busyMet)
	}
	for v := range idle {
		if a, b := idle[v].Tokens(), busy[v].Tokens(); !a.Equal(b) {
			t.Fatalf("node %d ends with %v, %v in the busy run", v, a, b)
		}
	}
	for v := 1; v < n; v++ {
		if got := idle[v].(*wakeProbe).delivered(); !slices.Equal(got, firstRounds(idleMet.CompletionRound)) {
			t.Fatalf("node %d: Deliver called in rounds %v, want every round before %d", v, got, idleMet.CompletionRound)
		}
		if got := busy[v].(*wakeProbe).delivered(); !slices.Equal(got, firstRounds(rounds)) {
			t.Fatalf("busy node %d: Deliver called in rounds %v, want every round", v, got)
		}
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
