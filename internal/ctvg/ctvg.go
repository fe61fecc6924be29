// Package ctvg implements the Cluster-based Time-Varying Graph of the
// paper's Definition 1: a flat time-varying graph (internal/tvg) extended
// with a per-round role function C: V×Γ → {head, gateway, member} and a
// per-round cluster-membership function I: V×Γ → N.
//
// A CTVG dynamic network is the object on which the (T, L)-HiNet stability
// properties (internal/hinet) are stated and on which the hierarchical
// dissemination algorithms (internal/core) run.
package ctvg

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tvg"
)

// Role is the cluster status of a node in a given round: the value of the
// paper's C(v, t).
type Role byte

const (
	// Member is an ordinary cluster member ("m" in the paper).
	Member Role = iota
	// Head is a cluster head ("h"); its node ID doubles as the cluster ID.
	Head
	// Gateway is an ordinary node that forwards packets between clusters
	// ("g"); it may additionally belong to a cluster.
	Gateway
	// Unaffiliated marks a node currently in no cluster. The paper allows
	// this ("each node belongs to AT MOST one cluster at any given time").
	Unaffiliated
)

// String returns the paper's single-letter status for the role.
func (r Role) String() string {
	switch r {
	case Member:
		return "m"
	case Head:
		return "h"
	case Gateway:
		return "g"
	case Unaffiliated:
		return "-"
	default:
		return fmt.Sprintf("Role(%d)", byte(r))
	}
}

// NoCluster is the I(v, t) value of a node that belongs to no cluster.
const NoCluster = -1

// Hierarchy is the cluster structure of one round: the restriction of C and
// I to a single time instant.
type Hierarchy struct {
	// Role[v] is C(v, t).
	Role []Role
	// Cluster[v] is I(v, t): the node ID of v's cluster head, or NoCluster.
	Cluster []int
}

// NewHierarchy returns a hierarchy on n nodes with every node unaffiliated.
func NewHierarchy(n int) *Hierarchy {
	h := &Hierarchy{
		Role:    make([]Role, n),
		Cluster: make([]int, n),
	}
	for v := range h.Role {
		h.Role[v] = Unaffiliated
		h.Cluster[v] = NoCluster
	}
	return h
}

// N returns the number of nodes.
func (h *Hierarchy) N() int { return len(h.Role) }

// Clone returns an independent copy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{
		Role:    append([]Role(nil), h.Role...),
		Cluster: append([]int(nil), h.Cluster...),
	}
	return c
}

// SetHead makes v the head of its own cluster.
func (h *Hierarchy) SetHead(v int) {
	h.Role[v] = Head
	h.Cluster[v] = v
}

// SetMember affiliates v with the cluster headed by head.
func (h *Hierarchy) SetMember(v, head int) {
	h.Role[v] = Member
	h.Cluster[v] = head
}

// SetGateway marks v a gateway affiliated with the cluster headed by head
// (pass NoCluster for a gateway that belongs to no cluster).
func (h *Hierarchy) SetGateway(v, head int) {
	h.Role[v] = Gateway
	h.Cluster[v] = head
}

// Heads returns the cluster-head set V_h of this round, ascending.
func (h *Hierarchy) Heads() []int {
	var out []int
	for v, r := range h.Role {
		if r == Head {
			out = append(out, v)
		}
	}
	return out
}

// MembersOf returns the member set M_k of the cluster headed by k,
// including gateway nodes affiliated with k but excluding k itself,
// ascending.
func (h *Hierarchy) MembersOf(k int) []int {
	var out []int
	for v, c := range h.Cluster {
		if c == k && v != k {
			out = append(out, v)
		}
	}
	return out
}

// Gateways returns all gateway nodes of this round, ascending.
func (h *Hierarchy) Gateways() []int {
	var out []int
	for v, r := range h.Role {
		if r == Gateway {
			out = append(out, v)
		}
	}
	return out
}

// HeadOf returns the cluster head of v (which is v itself for a head), or
// NoCluster if v is unaffiliated.
func (h *Hierarchy) HeadOf(v int) int { return h.Cluster[v] }

// IsHead reports whether v is a cluster head.
func (h *Hierarchy) IsHead(v int) bool { return h.Role[v] == Head }

// IsRelay reports whether v broadcasts like a head/gateway under the
// paper's algorithms (both roles execute the identical relay code).
func (h *Hierarchy) IsRelay(v int) bool {
	return h.Role[v] == Head || h.Role[v] == Gateway
}

// Validate checks the structural invariants of the paper's system model
// against the round's communication graph g:
//
//   - a head's cluster ID is its own node ID;
//   - every affiliated node's cluster ID names a head;
//   - members are neighbours of their head ("the members of a cluster are
//     neighbors of the cluster head");
//   - roles and cluster IDs are consistent (unaffiliated ⇔ no cluster).
func (h *Hierarchy) Validate(g *graph.Graph) error {
	if g.N() != h.N() {
		return fmt.Errorf("ctvg: hierarchy has %d nodes, graph has %d", h.N(), g.N())
	}
	for v, role := range h.Role {
		c := h.Cluster[v]
		switch role {
		case Head:
			if c != v {
				return fmt.Errorf("ctvg: head %d has cluster ID %d", v, c)
			}
		case Member:
			if c == NoCluster {
				return fmt.Errorf("ctvg: member %d has no cluster", v)
			}
			if h.Role[c] != Head {
				return fmt.Errorf("ctvg: member %d names non-head %d", v, c)
			}
			if !g.HasEdge(v, c) {
				return fmt.Errorf("ctvg: member %d not adjacent to head %d", v, c)
			}
		case Gateway:
			if c != NoCluster {
				if h.Role[c] != Head {
					return fmt.Errorf("ctvg: gateway %d names non-head %d", v, c)
				}
				if !g.HasEdge(v, c) {
					return fmt.Errorf("ctvg: gateway %d not adjacent to head %d", v, c)
				}
			}
		case Unaffiliated:
			if c != NoCluster {
				return fmt.Errorf("ctvg: unaffiliated %d has cluster %d", v, c)
			}
		default:
			return fmt.Errorf("ctvg: node %d has invalid role %d", v, byte(role))
		}
	}
	return nil
}

// Equal reports whether two hierarchies assign identical roles and cluster
// IDs to every node.
func (h *Hierarchy) Equal(o *Hierarchy) bool {
	if o == nil || h.N() != o.N() {
		return false
	}
	for v := range h.Role {
		if h.Role[v] != o.Role[v] || h.Cluster[v] != o.Cluster[v] {
			return false
		}
	}
	return true
}

// SameHeadSet reports whether h and o have identical head sets (Definition
// 2's per-round comparison V_h^i = V_h^j).
func (h *Hierarchy) SameHeadSet(o *Hierarchy) bool {
	if o == nil || h.N() != o.N() {
		return false
	}
	for v := range h.Role {
		if (h.Role[v] == Head) != (o.Role[v] == Head) {
			return false
		}
	}
	return true
}

// SameCluster reports whether cluster k has identical member sets in h and
// o (Definition 3's per-round comparison M_k^i = M_k^j).
func (h *Hierarchy) SameCluster(o *Hierarchy, k int) bool {
	if o == nil || h.N() != o.N() {
		return false
	}
	for v := range h.Cluster {
		if (h.Cluster[v] == k) != (o.Cluster[v] == k) {
			return false
		}
	}
	return true
}

// Dynamic is a dynamic network with a cluster hierarchy: the full CTVG.
//
// The lifetime rule of tvg.Dynamic covers the hierarchy too, with windows
// over both layers: a round's graph and hierarchy stay valid until the
// dynamic has materialised two further windows, and a reader that keeps
// one longer copies it with graph.Graph.DeepClone or Hierarchy.Clone.
// Adversaries generate their rounds under it, DeltaTrace replays a
// recording under it, and the checkers (internal/hinet, tvg's
// connectivity predicates) read rounds under it.
type Dynamic interface {
	tvg.Dynamic
	// HierarchyAt returns the round-r hierarchy, read-only and valid under
	// the lifetime rule above.
	HierarchyAt(r int) *Hierarchy
}

// Stability is the optional window-stability interface (see tvg.Stability).
// For a clustered dynamic the contract covers both layers: within
// [r, StableUntil(r)] the snapshot AND the hierarchy are content-identical
// to round r's.
type Stability = tvg.Stability
