// Package conformance is a reusable safety harness for dissemination
// protocols: it runs any sim.Protocol against a recorded dynamic network
// and checks the invariants every correct protocol must satisfy,
// independent of its algorithmic strategy:
//
//   - causality: a node may hold token t in round r only if some initial
//     owner of t causally influenced it by round r (information cannot
//     outrun the dynamic graph — checked against tvg.InfluenceTimes);
//   - monotonicity: TA never shrinks;
//   - domain safety: no token outside {0..k-1} ever appears;
//   - a read-only view: Send and Deliver leave the sim.View they are
//     handed as they found it (it is engine storage, reused for the rest
//     of the stability window);
//   - determinism: two runs from identical inputs produce identical
//     metrics and final states;
//   - the idle promise (see sim.View.Idle): a run in which every node gets
//     a detached View, so Idle does nothing and Send and Deliver are called
//     every round, sends the same messages (sender, addressee, kind and
//     payload, in order) and ends with the same token sets as the plain
//     replay. It audits both clauses: a skipped Send that would have sent,
//     and a Deliver skipped after completion that would have changed a
//     later Send. Note counts are not compared: a detached View drops
//     notes.
//
// The kit exists for downstream protocol authors: a new protocol that
// passes Check on the standard scenarios is at least not cheating the
// model. Every protocol in this repository is held to it (see the test).
package conformance

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
)

// Violation describes one invariant breach.
type Violation struct {
	Round int
	Node  int
	Desc  string
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d node %d: %s", v.Round, v.Node, v.Desc)
}

// Check runs the protocol on the recorded network for `rounds` rounds and
// returns all invariant violations (empty = conformant). The network must
// be a recorded trace (or otherwise deterministic and re-readable), since
// causal reachability is precomputed from its snapshots.
func Check(d ctvg.Dynamic, p sim.Protocol, assign *token.Assignment, rounds int) []Violation {
	var out []Violation

	// Precompute causal availability: earliest[t][v] = first round count
	// after which v can possibly know token t (0 for initial owners).
	earliest := make([][]int, assign.K)
	for t := 0; t < assign.K; t++ {
		earliest[t] = make([]int, d.N())
		for v := range earliest[t] {
			earliest[t][v] = tvg.Inf
		}
		for owner := 0; owner < assign.N(); owner++ {
			if !assign.Initial[owner].Contains(t) {
				continue
			}
			times := tvg.InfluenceTimes(d, owner, 0, rounds)
			for v, tm := range times {
				if tm < earliest[t][v] {
					earliest[t][v] = tm
				}
			}
		}
	}

	inner := p.Nodes(assign)
	nodes := make([]sim.Node, len(inner))
	for v := range inner {
		nodes[v] = &auditNode{
			id:       v,
			inner:    inner[v],
			k:        assign.K,
			earliest: earliest,
			prev:     bitset.New(assign.K),
			report: func(vio Violation) {
				out = append(out, vio)
			},
		}
	}
	// Serial: every auditNode reports into the one out slice, and a
	// sharded run (the default from 8192 nodes) would call Deliver of
	// different shards concurrently.
	first := sim.MustRun(d, nodes, assign, sim.Options{MaxRounds: rounds, Workers: 1})

	// Determinism: replay on fresh nodes, then compare every metric and
	// every node's final token set.
	replay := p.Nodes(assign)
	var replaySent, calledSent []sentMsg
	second := sim.MustRun(d, replay, assign, sim.Options{MaxRounds: rounds, Observer: recordSent(&replaySent)})
	if !reflect.DeepEqual(first, second) {
		out = append(out, Violation{Round: -1, Node: -1,
			Desc: fmt.Sprintf("nondeterministic metrics: %+v vs %+v", *first, *second)})
	}
	for v := range inner {
		if a, b := inner[v].Tokens(), replay[v].Tokens(); !a.Equal(b) {
			out = append(out, Violation{Round: -1, Node: v,
				Desc: fmt.Sprintf("nondeterministic final tokens: %v vs %v", a, b)})
		}
	}

	// The idle promise: with detached Views every Send and Deliver is
	// called, and the run must send and end as the replay did. The streams part at the
	// earlier of their first two differing messages.
	called := p.Nodes(assign)
	detached := make([]sim.Node, len(called))
	for v := range called {
		detached[v] = &detachedNode{Node: called[v]}
	}
	sim.MustRun(d, detached, assign, sim.Options{MaxRounds: rounds, Observer: recordSent(&calledSent)})
	for i := 0; i < len(replaySent) || i < len(calledSent); i++ {
		a, b := msgAt(replaySent, i), msgAt(calledSent, i)
		if a == b {
			continue
		}
		first := a
		if b.before(a) {
			first = b
		}
		out = append(out, Violation{Round: first.round, Node: first.from,
			Desc: fmt.Sprintf("broke the idle promise: the replay's message %d is %v, with Send called every round %v", i, a, b)})
		break
	}
	for v := range called {
		if a, b := replay[v].Tokens(), called[v].Tokens(); !a.Equal(b) {
			out = append(out, Violation{Round: -1, Node: v,
				Desc: fmt.Sprintf("broke the idle promise: final tokens %v, with Send called every round %v", a, b)})
		}
	}
	return out
}

// sentMsg is one transmission of a run, as its round records show it.
type sentMsg struct {
	round, from, to int
	kind            sim.MsgKind
	payload         string
}

// noMsg stands in for a message past the end of a stream: it comes after
// every real one.
var noMsg = sentMsg{round: math.MaxInt}

func (m sentMsg) String() string {
	if m == noMsg {
		return "no message"
	}
	return fmt.Sprintf("{round %d, %d -> %d, %v, %s}", m.round, m.from, m.to, m.kind, m.payload)
}

// before orders messages as recordSent lists them: by round, then sender.
func (m sentMsg) before(o sentMsg) bool {
	return m.round < o.round || m.round == o.round && m.from < o.from
}

// msgAt returns msgs[i], or noMsg past the end.
func msgAt(msgs []sentMsg, i int) sentMsg {
	if i < len(msgs) {
		return msgs[i]
	}
	return noMsg
}

// recordSent returns an observer that appends every transmission to out,
// in ascending sender order within a round.
func recordSent(out *[]sentMsg) sim.Observer {
	return func(rd *sim.Round) {
		for _, m := range rd.Outbox {
			if m == nil {
				continue
			}
			payload := "nil"
			if m.Tokens != nil {
				payload = m.Tokens.String()
			}
			*out = append(*out, sentMsg{round: rd.R, from: m.From, to: m.To, kind: m.Kind, payload: payload})
		}
	}
}

// detachedNode hands its node a detached copy of each View, with only
// Round, Role, Head and Neighbors set. The copy belongs to no engine run,
// so View.Idle does nothing on it and the engine calls Send and Deliver
// every round.
type detachedNode struct {
	sim.Node
	view sim.View
}

func (d *detachedNode) detach(v *sim.View) *sim.View {
	d.view = sim.View{Round: v.Round, Role: v.Role, Head: v.Head, Neighbors: v.Neighbors}
	return &d.view
}

func (d *detachedNode) Send(v *sim.View) *sim.Message { return d.Node.Send(d.detach(v)) }
func (d *detachedNode) Deliver(v *sim.View, msgs []*sim.Message) {
	d.Node.Deliver(d.detach(v), msgs)
}

// auditNode wraps a protocol node, checks that the node leaves its view
// alone, and audits its token set after every delivery.
type auditNode struct {
	id       int
	inner    sim.Node
	k        int
	earliest [][]int
	prev     *bitset.Set
	report   func(Violation)

	// view and nbrs hold the view as handed to the inner node, and the
	// neighbour IDs behind it, for the check after the call.
	view sim.View
	nbrs []int
}

func (a *auditNode) Send(v *sim.View) *sim.Message {
	a.keepView(v)
	msg := a.inner.Send(v)
	a.checkView(v, "Send")
	return msg
}

// keepView copies the view, and its neighbour IDs, before the inner call.
func (a *auditNode) keepView(v *sim.View) {
	a.view = *v
	a.nbrs = append(a.nbrs[:0], v.Neighbors...)
}

// checkView reports a violation when the inner call changed any field of
// the view, or a neighbour ID behind it.
func (a *auditNode) checkView(v *sim.View, call string) {
	if !reflect.DeepEqual(a.view, *v) || !slices.Equal(a.nbrs, v.Neighbors) {
		a.report(Violation{Round: a.view.Round, Node: a.id,
			Desc: fmt.Sprintf("%s wrote its View: was %s, now %s",
				call, viewString(&a.view, a.nbrs), viewString(v, v.Neighbors))})
	}
}

// viewString formats a view's fields, with nbrs as its neighbour IDs.
func viewString(v *sim.View, nbrs []int) string {
	return fmt.Sprintf("{Round:%d Role:%v Head:%d Neighbors:%v}", v.Round, v.Role, v.Head, nbrs)
}

func (a *auditNode) Deliver(v *sim.View, msgs []*sim.Message) {
	a.keepView(v)
	a.inner.Deliver(v, msgs)
	a.checkView(v, "Deliver")
	r, ta := a.view.Round, a.inner.Tokens()

	// Monotonicity.
	if !a.prev.SubsetOf(ta) {
		a.report(Violation{Round: r, Node: a.id,
			Desc: fmt.Sprintf("token set shrank: had %v, now %v", a.prev, ta)})
	}
	// Domain safety.
	if max := ta.Max(); max >= a.k {
		a.report(Violation{Round: r, Node: a.id,
			Desc: fmt.Sprintf("out-of-domain token %d (k=%d)", max, a.k)})
	}
	// Causality: token t present => reachable by round r+1.
	ta.Range(func(t int) bool {
		if t < a.k && a.earliest[t][a.id] > r+1 {
			a.report(Violation{Round: r, Node: a.id,
				Desc: fmt.Sprintf("holds token %d before causal reachability (earliest %d)",
					t, a.earliest[t][a.id])})
			return false
		}
		return true
	})
	a.prev.CopyFrom(ta)
}

func (a *auditNode) Tokens() *bitset.Set { return a.inner.Tokens() }
