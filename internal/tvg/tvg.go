// Package tvg implements the Time-Varying Graph model of flat dynamic
// networks and the T-interval connectivity property of Kuhn, Lynch and
// Oshman (STOC 2010).
//
// A TVG (Casteigts et al., 2012) is G = (V, E, Γ, ρ, ζ): a footprint edge
// set E over vertex set V, a lifetime Γ divided into synchronous rounds, a
// presence function ρ(e, t) saying whether edge e exists in round t, and a
// latency function ζ(e, t) giving the time to cross e. This repository's
// simulator is round-synchronous, so ζ ≡ 1 round; the paper's CTVG
// (internal/ctvg) extends this model with cluster roles and membership.
package tvg

import (
	"math"

	"repro/internal/graph"
)

// Dynamic is a dynamic network: a sequence of static snapshots on a fixed
// vertex set, one per round. Implementations may be recordings
// (ctvg.DeltaTrace) or lazily generated adversaries.
//
// The lifetime rule covers every dynamic network, recordings included: the
// graph of a round stays valid until the dynamic has materialised two
// further windows (runs of rounds sharing one snapshot), and a reader that
// keeps one longer copies it with graph.Graph.DeepClone. A Clone of a
// frozen graph shares its lists, so it is no copy here. A reader that
// steps one window at a time, forward or back, may therefore keep the
// window before the one it reads; a seek across several windows
// materialises the ones it passes. Generators (internal/adversary) also
// serve rounds in ascending order only; a recording (ctvg.DeltaTrace)
// serves any round. ctvg.Dynamic extends the rule to the hierarchy.
type Dynamic interface {
	// N returns the number of vertices (constant over the lifetime).
	N() int
	// At returns the communication graph of round r (r >= 0), read-only
	// and valid under the lifetime rule above.
	At(r int) *graph.Graph
}

// Stability is the optional interface through which a Dynamic advertises
// its T-interval stable windows (Casteigts et al.: the maximal intervals
// over which the presence function is constant). The simulation engine uses
// it to freeze per-round state for the whole window instead of re-deriving
// it every round.
type Stability interface {
	// StableUntil returns the largest round s >= r such that every round
	// in [r, s] presents content-identical state to round r — the same
	// snapshot, and for clustered dynamics the same hierarchy too.
	// Implementations that cannot prove stability return r; math.MaxInt
	// means "stable forever".
	StableUntil(r int) int
}

// StableSubgraph returns the intersection of the snapshots of rounds
// [from, from+T): the maximal subgraph present throughout the window.
// When the dynamic advertises Stability, rounds inside a stability window
// are intersected once, so the cost is O(distinct snapshots), not O(T).
// The result shares no storage with d: the first snapshot is deep-copied,
// as the lifetime rule asks of a graph kept across the window.
func StableSubgraph(d Dynamic, from, T int) *graph.Graph {
	if T <= 0 {
		panic("tvg: StableSubgraph needs T > 0")
	}
	st, _ := d.(Stability)
	acc := d.At(from).DeepClone()
	r := from + 1
	for r < from+T {
		if st != nil {
			if s := st.StableUntil(r - 1); s >= r {
				// Rounds r-1..s share one snapshot, already intersected.
				if s >= from+T-1 {
					break
				}
				r = s + 1
			}
		}
		acc = graph.Intersect(acc, d.At(r))
		r++
	}
	return acc
}

// WindowConnected reports whether a stable connected spanning subgraph
// exists across rounds [from, from+T). Because the maximal stable subgraph
// of a window is the intersection of its snapshots, such a subgraph exists
// iff the intersection is connected (and spans V by construction).
func WindowConnected(d Dynamic, from, T int) bool {
	return StableSubgraph(d, from, T).Connected()
}

// IntervalConnected reports whether the dynamic graph is T-interval
// connected over rounds [0, horizon): every window of T consecutive rounds
// within the horizon contains a stable connected spanning subgraph (KLO's
// definition, checked on sliding windows).
//
// When the dynamic advertises Stability, a slid window is re-checked only
// if its content changed: sliding [from-1, from-1+T) to [from, from+T)
// drops round from-1 and gains round from+T-1, so if round from-1 equals
// round from and round from+T-2 equals round from+T-1, the window's
// snapshot set — hence its intersection — is unchanged.
func IntervalConnected(d Dynamic, T, horizon int) bool {
	if T <= 0 || horizon < T {
		panic("tvg: IntervalConnected needs 0 < T <= horizon")
	}
	st, _ := d.(Stability)
	checked := false
	for from := 0; from+T <= horizon; from++ {
		if checked && st != nil &&
			st.StableUntil(from-1) >= from &&
			st.StableUntil(from+T-2) >= from+T-1 {
			continue
		}
		if !WindowConnected(d, from, T) {
			return false
		}
		checked = true
	}
	return true
}

// AlwaysConnected reports 1-interval connectivity over [0, horizon): every
// individual snapshot is connected.
func AlwaysConnected(d Dynamic, horizon int) bool {
	return IntervalConnected(d, 1, horizon)
}

// Static wraps a single graph as an unchanging Dynamic.
type Static struct {
	G *graph.Graph
}

// N implements Dynamic.
func (s Static) N() int { return s.G.N() }

// At implements Dynamic.
func (s Static) At(r int) *graph.Graph { return s.G }

// StableUntil implements Stability: a static network never changes.
func (s Static) StableUntil(r int) int { return math.MaxInt }

var (
	_ Dynamic   = Static{}
	_ Stability = Static{}
)
