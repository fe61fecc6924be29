// Package adversary generates dynamic networks that provably satisfy the
// connectivity/stability models the paper's theorems assume.
//
// Three families are provided:
//
//   - flat adversaries for the KLO models: OneInterval (a fresh random
//     connected graph every round — worst-case 1-interval connectivity) and
//     TInterval (a random stable connected backbone per aligned window of T
//     rounds, with per-round churn edges on top);
//   - HiNet, the clustered adversary realising the paper's (T, L)-HiNet:
//     a stable hierarchy and an L-hop head backbone per phase, controlled
//     member re-affiliation and optional head churn at phase boundaries;
//   - Mobility, a physically-driven adversary (random waypoint + unit-disk
//     radio + incremental clustering) with no a-priori model guarantee,
//     used by the examples.
//
// All adversaries draw exclusively from an xrand stream given at
// construction, so runs are reproducible from a seed, and At(r) is
// content-stable across repeated calls. The structured families (TInterval,
// HiNet) produce their dynamics as deltas over frozen stable structures
// rather than memoised per-round snapshots: churny rounds are assembled
// copy-on-write in O(n + churn). HiNet also emits its window transitions
// natively through WindowDelta (ctvg.DeltaSource), so recording a delta
// trace never pays an O(E) clone per round. OneInterval, whose rounds share
// nothing by design, memoises every round by default.
//
// OneInterval, TInterval and HiNet each have a ForwardOnly mode for
// single-pass consumers (the engine, ctvg.RecordDeltas): nothing behind the
// working window is kept, and round storage is recycled, so a warm round
// allocates no graph. Every rng draw stays where it is, so both modes
// produce the same rounds. Rounds are requested in ascending order, the
// graph and hierarchy of round r stay valid until round r+2 is generated,
// and a consumer that keeps one longer deep-copies it. The experiment
// harness builds every adversary forward-only; callers that need random
// access (ctvg.Record, the hinet checkers, the hinet facade's networks)
// keep the memoising mode.
package adversary

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// OneInterval is a flat adversary producing an independent random connected
// graph every round: the hardest legal behaviour under 1-interval
// connectivity (no edge is guaranteed to survive to the next round).
type OneInterval struct {
	n     int
	m     int
	rng   *xrand.Rand
	snaps []*graph.Graph

	// Forward-only mode: the last drawn round and its graph, drawn with
	// bd's reused buffers into one of bufs.
	forward bool
	bd      *graph.Builder
	bufs    graphPair
	cur     int
	curG    *graph.Graph
}

// NewOneInterval returns a 1-interval connected adversary on n nodes whose
// rounds have m edges each (m >= n-1; pass 0 for the minimum, a bare
// spanning tree — maximal churn).
func NewOneInterval(n, m int, rng *xrand.Rand) *OneInterval {
	if n < 1 {
		panic("adversary: need n >= 1")
	}
	if m == 0 {
		m = n - 1
	}
	if m < n-1 || m > n*(n-1)/2 {
		panic(fmt.Sprintf("adversary: infeasible edge count m=%d for n=%d", m, n))
	}
	return &OneInterval{n: n, m: m, rng: rng, cur: -1}
}

// ForwardOnly switches the adversary into streaming mode for single-pass
// consumers such as the engine: rounds are no longer memoised. Each round
// is drawn, consuming the rng exactly as the memoising mode does, into one
// of two recycled graphs. The lifetime rule:
//   - rounds are requested in ascending order; an earlier round panics;
//   - the graph from At(r) stays valid until the adversary generates round
//     r+2;
//   - anything kept longer is deep-copied (graph.Graph.DeepClone).
//
// Returns the receiver for chaining.
func (a *OneInterval) ForwardOnly() *OneInterval {
	a.forward = true
	a.bd = graph.NewBuilder(a.n)
	return a
}

// N implements tvg.Dynamic.
func (a *OneInterval) N() int { return a.n }

// At implements tvg.Dynamic; rounds are generated on demand and memoised
// unless the adversary is forward-only.
func (a *OneInterval) At(r int) *graph.Graph {
	if r < 0 {
		panic("adversary: negative round")
	}
	if !a.forward {
		for len(a.snaps) <= r {
			a.snaps = append(a.snaps, graph.RandomConnected(a.n, a.m, a.rng))
		}
		return a.snaps[r]
	}
	if r < a.cur {
		panic(fmt.Sprintf("adversary: OneInterval round %d discarded (forward-only)", r))
	}
	for a.cur < r {
		a.curG = a.bd.RandomConnected(a.m, a.rng, a.bufs.take())
		a.cur++
	}
	return a.curG
}

// TInterval is a flat adversary realising T-interval connectivity on
// aligned windows: rounds [iT, (i+1)T) share a random connected spanning
// backbone; every round adds fresh churn edges on top of it. Aligned-window
// stability is exactly what phase-structured protocols (KLO's T-interval
// algorithm, the paper's Algorithm 1) consume.
//
// Like HiNet, TInterval produces deltas, not snapshot lists: the backbone
// of a window is drawn once, each round's effective churn additions are
// kept as a small edge set, and At assembles the round copy-on-write over
// the frozen backbone.
type TInterval struct {
	n     int
	T     int
	churn int // extra random edges per round
	rng   *xrand.Rand

	backbones []*graph.Graph // backbones[w-bbBase] is window w's backbone
	bbBase    int
	sets      churnMemo
	curRound  int
	curG      *graph.Graph

	forward bool
	bufs    graphPair
}

// NewTInterval returns a T-interval connected adversary on n nodes with
// `churn` extra random edges per round beyond the stable backbone.
func NewTInterval(n, T, churn int, rng *xrand.Rand) *TInterval {
	if n < 1 || T < 1 || churn < 0 {
		panic("adversary: invalid TInterval parameters")
	}
	return &TInterval{n: n, T: T, churn: churn, rng: rng, curRound: -1}
}

// ForwardOnly switches the adversary into streaming mode for single-pass
// consumers such as the engine: only the newest window's backbone and the
// churn sets of the last two requested rounds are kept, and churny rounds
// are assembled into one of two recycled graphs. Every rng draw stays
// where it was. The lifetime rule:
//   - rounds are requested in ascending order; an earlier round panics;
//   - the graph from At(r) stays valid until the adversary generates round
//     r+2;
//   - anything kept longer is deep-copied (graph.Graph.DeepClone).
//
// Returns the receiver for chaining.
func (a *TInterval) ForwardOnly() *TInterval {
	a.forward = true
	return a
}

// N implements tvg.Dynamic.
func (a *TInterval) N() int { return a.n }

// Interval returns the stability interval T.
func (a *TInterval) Interval() int { return a.T }

// backbone returns (drawing as needed) the stable spanning backbone of
// window w.
func (a *TInterval) backbone(w int) *graph.Graph {
	if w < a.bbBase {
		panic(fmt.Sprintf("adversary: TInterval window %d discarded (forward-only)", w))
	}
	for a.bbBase+len(a.backbones) <= w {
		bb := graph.RandomTree(a.n, a.rng)
		if a.forward && len(a.backbones) == 1 {
			// Forward-only mode keeps the newest backbone only.
			a.backbones[0] = bb
			a.bbBase++
		} else {
			a.backbones = append(a.backbones, bb)
		}
	}
	return a.backbones[w-a.bbBase]
}

// ensureChurn draws (and memoises) the effective churn additions of every
// round up to r, forcing each round's backbone before its draws exactly as
// the snapshot path always did.
func (a *TInterval) ensureChurn(r int) {
	for a.sets.next() <= r {
		a.sets.draw(a.n, a.churn, a.backbone(a.sets.next()/a.T), a.rng)
	}
}

// At implements tvg.Dynamic.
func (a *TInterval) At(r int) *graph.Graph {
	if r < 0 {
		panic("adversary: negative round")
	}
	if a.churn == 0 {
		// The round graph IS the window's backbone; hand it out directly.
		return a.backbone(r / a.T)
	}
	if r == a.curRound {
		return a.curG
	}
	if a.forward && r < a.curRound {
		panic(fmt.Sprintf("adversary: TInterval round %d discarded (forward-only)", r))
	}
	a.ensureChurn(r)
	d := &graph.Delta{Add: a.sets.at(r)}
	var g *graph.Graph
	if a.forward {
		g = a.backbone(r/a.T).ApplyDeltaInto(a.bufs.take(), d)
		a.sets.drop(a.curRound)
	} else {
		g = a.backbone(r / a.T).ApplyDelta(d)
	}
	a.curRound, a.curG = r, g
	return g
}

// StableUntil implements tvg.Stability: without churn every aligned
// T-window is frozen; with churn every round differs.
func (a *TInterval) StableUntil(r int) int {
	if r < 0 {
		panic("adversary: negative round")
	}
	if a.churn > 0 {
		return r
	}
	return (r/a.T+1)*a.T - 1
}

var (
	_ tvg.Dynamic   = (*OneInterval)(nil)
	_ tvg.Dynamic   = (*TInterval)(nil)
	_ tvg.Stability = (*TInterval)(nil)
)
