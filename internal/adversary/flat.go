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
// nothing by design, still memoises — there is no sub-O(E) representation
// of maximal churn.
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
	return &OneInterval{n: n, m: m, rng: rng}
}

// N implements tvg.Dynamic.
func (a *OneInterval) N() int { return a.n }

// At implements tvg.Dynamic; rounds are generated on demand and memoised.
func (a *OneInterval) At(r int) *graph.Graph {
	if r < 0 {
		panic("adversary: negative round")
	}
	for len(a.snaps) <= r {
		a.snaps = append(a.snaps, graph.RandomConnected(a.n, a.m, a.rng))
	}
	return a.snaps[r]
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

	backbones []*graph.Graph // backbones[w] is window w's backbone
	churnSets [][]graph.Edge // churnSets[r] is round r's effective churn
	curRound  int
	curG      *graph.Graph
}

// NewTInterval returns a T-interval connected adversary on n nodes with
// `churn` extra random edges per round beyond the stable backbone.
func NewTInterval(n, T, churn int, rng *xrand.Rand) *TInterval {
	if n < 1 || T < 1 || churn < 0 {
		panic("adversary: invalid TInterval parameters")
	}
	return &TInterval{n: n, T: T, churn: churn, rng: rng, curRound: -1}
}

// N implements tvg.Dynamic.
func (a *TInterval) N() int { return a.n }

// Interval returns the stability interval T.
func (a *TInterval) Interval() int { return a.T }

// backbone returns (drawing as needed) the stable spanning backbone of
// window w.
func (a *TInterval) backbone(w int) *graph.Graph {
	for len(a.backbones) <= w {
		a.backbones = append(a.backbones, graph.RandomTree(a.n, a.rng))
	}
	return a.backbones[w]
}

// ensureChurn draws (and memoises) the effective churn additions of every
// round up to r, forcing each round's backbone before its draws exactly as
// the snapshot path always did. Self-loops, edges already in the backbone
// and within-round repeats add nothing, matching AddEdge's no-op outcomes.
func (a *TInterval) ensureChurn(r int) {
	for len(a.churnSets) <= r {
		bb := a.backbone(len(a.churnSets) / a.T)
		set := make([]graph.Edge, 0, a.churn)
		for j := 0; j < a.churn; j++ {
			u, v := a.rng.Intn(a.n), a.rng.Intn(a.n)
			if u == v {
				continue
			}
			e := graph.NormEdge(u, v)
			if bb.HasEdge(e.U, e.V) {
				continue
			}
			dup := false
			for _, x := range set {
				if x == e {
					dup = true
					break
				}
			}
			if !dup {
				set = append(set, e)
			}
		}
		graph.SortEdges(set)
		a.churnSets = append(a.churnSets, set)
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
	a.ensureChurn(r)
	g := a.backbone(r / a.T).ApplyDelta(&graph.Delta{Add: a.churnSets[r]})
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
