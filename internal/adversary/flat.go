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
// construction, so runs are reproducible from a seed. The structured
// families (TInterval, HiNet) produce their dynamics as deltas over frozen
// stable structures: churny rounds are assembled copy-on-write in
// O(n + churn). HiNet builds each phase from what changed: a phase that
// keeps its predecessor's heads is derived from it, sharing its links and
// gateway chains read-only and swapping the moved members' star edges in
// a compact copy of its stable graph; only phase 0 and phases whose heads
// rotate are built from scratch. HiNet also emits its window transitions
// natively through WindowDelta (ctvg.DeltaSource), so recording a delta
// trace never pays an O(E) clone per round.
//
// Every adversary generates its rounds in one pass, for single-pass
// consumers such as the engine and ctvg.Record. Nothing behind the
// working window is kept, and OneInterval, TInterval and HiNet recycle
// their round storage, so a warm round allocates no graph. Rounds are
// requested in ascending order, and asking for a discarded round panics.
// Each round's graph and hierarchy follow the lifetime rule stated on
// tvg.Dynamic and ctvg.Dynamic: valid until two further windows have been
// generated, deep-copied by a consumer that keeps one longer.
//
// A caller that needs random access over the rounds reads a recording
// instead: ctvg.Recording extends one on demand, and ctvg.Record records
// a fixed number of rounds.
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
	n   int
	m   int
	rng *xrand.Rand

	// The last drawn round and its graph, drawn with bd's reused buffers
	// into one of bufs.
	bd   *graph.Builder
	bufs graphPair
	cur  int
	curG *graph.Graph
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
	return &OneInterval{n: n, m: m, rng: rng, bd: graph.NewBuilder(n), cur: -1}
}

// N implements tvg.Dynamic.
func (a *OneInterval) N() int { return a.n }

// At implements tvg.Dynamic: each round is drawn on demand into one of
// two recycled graphs.
func (a *OneInterval) At(r int) *graph.Graph {
	if r < 0 {
		panic("adversary: negative round")
	}
	if r < a.cur {
		panic(fmt.Sprintf("adversary: OneInterval round %d discarded", r))
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
// the frozen backbone into one of two recycled graphs. Only the newest
// window's backbone and the churn sets of the last two requested rounds
// are kept.
type TInterval struct {
	n     int
	T     int
	churn int // extra random edges per round
	rng   *xrand.Rand

	bb       *graph.Graph // window bbWin's backbone
	bbWin    int
	sets     churnMemo
	curRound int
	curG     *graph.Graph
	bufs     graphPair
}

// NewTInterval returns a T-interval connected adversary on n nodes with
// `churn` extra random edges per round beyond the stable backbone.
func NewTInterval(n, T, churn int, rng *xrand.Rand) *TInterval {
	if n < 1 || T < 1 || churn < 0 {
		panic("adversary: invalid TInterval parameters")
	}
	return &TInterval{n: n, T: T, churn: churn, rng: rng, bbWin: -1, curRound: -1}
}

// N implements tvg.Dynamic.
func (a *TInterval) N() int { return a.n }

// backbone returns (drawing as needed) the stable spanning backbone of
// window w. A skipped window's backbone is still drawn, so the rng stream
// does not depend on which rounds are asked for.
func (a *TInterval) backbone(w int) *graph.Graph {
	if w < a.bbWin {
		panic(fmt.Sprintf("adversary: TInterval window %d discarded", w))
	}
	for a.bbWin < w {
		a.bb = graph.RandomTree(a.n, a.rng)
		a.bbWin++
	}
	return a.bb
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
	if r < a.curRound {
		panic(fmt.Sprintf("adversary: TInterval round %d discarded", r))
	}
	a.ensureChurn(r)
	g := a.backbone(r/a.T).ApplyDeltaInto(a.bufs.take(), &graph.Delta{Add: a.sets.at(r)})
	a.sets.drop(a.curRound)
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
