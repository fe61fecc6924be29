package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// wrappedNode forwards every call to its node and counts its Send and
// Deliver calls. With detached set it hands the node a detached copy of
// each View, with only Round, Role, Head and Neighbors set. The copy
// belongs to no engine run, so Idle on it does nothing and the engine
// calls Send and Deliver every round: the reference an idling run must
// match.
type wrappedNode struct {
	inner    sim.Node
	detached bool
	view     sim.View
	calls    int
	delivers int
}

func (w *wrappedNode) viewFor(v *sim.View) *sim.View {
	if !w.detached {
		return v
	}
	w.view = sim.View{Round: v.Round, Role: v.Role, Head: v.Head, Neighbors: v.Neighbors}
	return &w.view
}

func (w *wrappedNode) Send(v *sim.View) *sim.Message {
	w.calls++
	return w.inner.Send(w.viewFor(v))
}
func (w *wrappedNode) Deliver(v *sim.View, msgs []*sim.Message) {
	w.delivers++
	w.inner.Deliver(w.viewFor(v), msgs)
}
func (w *wrappedNode) Tokens() *bitset.Set    { return w.inner.Tokens() }
func (w *wrappedNode) Inject(r, tok int)      { w.inner.(sim.Injector).Inject(r, tok) }
func (w *wrappedNode) Collect(gc *bitset.Set) { w.inner.(sim.Collectible).Collect(gc) }
func (w *wrappedNode) OnRecover(r int)        { w.inner.(sim.Recoverer).OnRecover(r) }

// idleRun is one run's outputs: its Metrics, its Sent stream rendered one
// message a line, every node's final token set, and its Send and Deliver
// calls.
type idleRun struct {
	met      *sim.Metrics
	sent     []string
	tokens   []string
	calls    int
	delivers int
}

func runWrapped(d ctvg.Dynamic, p sim.Protocol, assign *token.Assignment, opts sim.Options, detached bool) idleRun {
	var out idleRun
	opts.Observer = onSent(func(r int, m *sim.Message) {
		out.sent = append(out.sent, fmt.Sprintf("r%d %d->%d %v %v", r, m.From, m.To, m.Kind, m.Tokens))
	})
	nodes := p.Nodes(assign)
	for v := range nodes {
		nodes[v] = &wrappedNode{inner: nodes[v], detached: detached}
	}
	out.met = sim.MustRun(d, nodes, assign, opts)
	for _, nd := range nodes {
		out.tokens = append(out.tokens, nd.Tokens().String())
		out.calls += nd.(*wrappedNode).calls
		out.delivers += nd.(*wrappedNode).delivers
	}
	return out
}

// TestIdleMatchesAlwaysCalled holds every node that makes the idle promise
// (Algorithm 1 without failover, in each variant, and Algorithm 2 without
// failover) to it: a run in which the engine skips idle nodes must match,
// in Metrics, Sent stream and final token sets, a run in which every Send
// and Deliver is called, under crash-recovery, i.i.d. and burst loss,
// duplication, arrivals and self-stabilizing clustering, serially and on 4
// shards. Each run of an idling variant must also skip some Sends, or it
// tests nothing. Its Deliver calls must be fewer where the run completes
// early with nothing counting single deliveries (crash-recovery at round
// 36 for Algorithm 1 and 16 for Algorithm 2, self-stabilizing at 30 and
// 8), and exactly as many where loss or duplication counts them; arrivals
// complete before the last round for some variants only, so they are not
// compared.
func TestIdleMatchesAlwaysCalled(t *testing.T) {
	const n, k, rounds = 60, 8, 72
	T := Theorem1T(k, 2, 2)
	d := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: 6, Heads: 5, L: 2, T: T,
		Reaffiliations: 3, HeadChurn: 1, ChurnEdges: 6,
	}, xrand.New(11)), rounds)
	assign := token.Spread(n, k, xrand.New(12))

	// A promiscuous member's Deliver can give it an upload, so it never
	// idles; it is here to catch a change that lets it.
	protocols := []struct {
		p     sim.Protocol
		idles bool
	}{
		{Alg1{T: T}, true},
		{Alg1{T: T, StableHeads: true}, true},
		{Alg1{T: T, UploadLowFirst: true}, true},
		{Alg1{T: T, Promiscuous: true}, false},
		{Alg2{}, true},
	}
	const fewer, same = "fewer", "same"
	conditions := []struct {
		name     string
		delivers string // an idling run's Deliver calls against the always-called run's
		opts     func() sim.Options
	}{
		{"crash-recovery", fewer, func() sim.Options {
			return sim.Options{Faults: &sim.Faults{
				CrashAt:           map[int]int{7: 5, 19: T + 4, 33: 2*T + 6, 45: 3},
				RecoverAfter:      map[int]int{7: 3, 19: 5, 33: 2, 45: T},
				HeadCrashRounds:   []int{2*T + 1},
				HeadCrashDowntime: 4,
			}}
		}},
		{"iid-loss", same, func() sim.Options { return sim.Options{Faults: &sim.Faults{Seed: 3, DropProb: 0.2}} }},
		{"burst-loss", same, func() sim.Options {
			return sim.Options{Faults: &sim.Faults{Seed: 4, Burst: &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.4, DropBad: 1}}}
		}},
		{"duplication", same, func() sim.Options { return sim.Options{Faults: &sim.Faults{Seed: 6, DupProb: 0.2}} }},
		{"arrivals", "", func() sim.Options {
			return sim.Options{Arrivals: &sim.Arrivals{Rate: 0.4, Seed: 5, Stop: rounds * 2 / 3}}
		}},
		{"selfstab", fewer, func() sim.Options {
			return sim.Options{
				SelfStabilize: &sim.SelfStabilize{},
				Faults:        &sim.Faults{CrashAt: map[int]int{2: T}, RecoverAfter: map[int]int{2: 3}},
			}
		}},
	}
	for _, pc := range protocols {
		p := pc.p
		for _, c := range conditions {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s%+v/%s/workers=%d", p.Name(), p, c.name, workers)
				opts := func() sim.Options {
					o := c.opts()
					o.MaxRounds, o.Workers = rounds, workers
					return o
				}
				idling := runWrapped(d, p, assign, opts(), false)
				always := runWrapped(d, p, assign, opts(), true)
				if skipped := idling.calls < always.calls; skipped != pc.idles {
					t.Fatalf("%s: %d Send calls, %d when always called", name, idling.calls, always.calls)
				}
				want := c.delivers
				if !pc.idles {
					want = same
				}
				if want == fewer && idling.delivers >= always.delivers || want == same && idling.delivers != always.delivers {
					t.Fatalf("%s: %d Deliver calls, %d when always called; want %s", name, idling.delivers, always.delivers, want)
				}
				if !reflect.DeepEqual(idling.met, always.met) {
					t.Fatalf("%s: metrics differ from the always-called run:\n%+v\n%+v", name, *idling.met, *always.met)
				}
				if i := firstDiff(idling.sent, always.sent); i >= 0 {
					t.Fatalf("%s: Sent stream differs from the always-called run at message %d: %q vs %q",
						name, i, at(idling.sent, i), at(always.sent, i))
				}
				if i := firstDiff(idling.tokens, always.tokens); i >= 0 {
					t.Fatalf("%s: node %d ends with %s, %s when always called", name, i, idling.tokens[i], always.tokens[i])
				}
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// at returns s[i], or "none" past its end.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "none"
}
