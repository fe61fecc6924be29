package provenance

import (
	"slices"

	"repro/internal/ctvg"
	"repro/internal/sim"
)

// pairKey packs a (node, token) pair into a map key.
func pairKey(node, token int) int64 {
	return int64(node)<<32 | int64(uint32(token))
}

// edgeIndex maps each (learner, token) pair to its edge position. Every
// pair has at most one edge (first delivery), so the map is total over
// log.Edges.
func (l *Log) edgeIndex() map[int64]int {
	idx := make(map[int64]int, len(l.Edges))
	for i, e := range l.Edges {
		idx[pairKey(e.Learner, e.Token)] = i
	}
	return idx
}

// initiallyHolds reports whether node held token before round 0.
func (l *Log) initiallyHolds(node, token int) bool {
	if token < 0 || token >= len(l.Meta.Holders) {
		return false
	}
	for _, v := range l.Meta.Holders[token] {
		if v == node {
			return true
		}
	}
	return false
}

// Lineage returns the first-delivery chain that brought token to node, in
// chronological order (the hop out of an initial holder first). The chain
// is empty when node held the token initially; the second result is false
// when node never acquired it (or the log does not cover it), and when the
// walk back through teachers revisits a node: a log whose edges form a
// cycle credits no initial holder. A chain ends early at a NoTeacher hop:
// network-coded decodes with no single attributable source have no
// further ancestry.
func (l *Log) Lineage(node, token int) ([]Edge, bool) {
	idx := l.edgeIndex()
	var chain []Edge
	seen := map[int]bool{}
	for cur := node; ; {
		if seen[cur] {
			return nil, false
		}
		seen[cur] = true
		i, ok := idx[pairKey(cur, token)]
		if !ok {
			if !l.initiallyHolds(cur, token) {
				return nil, false
			}
			break
		}
		chain = append(chain, l.Edges[i])
		if cur = l.Edges[i].Teacher; cur == NoTeacher {
			break
		}
	}
	slices.Reverse(chain)
	return chain, true
}

// Path is a critical-path account of one (node, token) acquisition.
type Path struct {
	Node, Token int
	// Edges is the lineage, chronological.
	Edges []Edge
	// Depth is the hop count (len(Edges)).
	Depth int
	// Rounds is the end-to-end latency in rounds: the token existed from
	// round 0 and arrived at the end of round Edges[last].Round, so
	// Rounds = last hop round + 1 (0 for an initial holder).
	Rounds int
	// Queued is Rounds − Depth: every hop spends exactly one round in
	// flight, so the remainder is rounds the token sat waiting in some
	// holder's set (typically queued behind other tokens at a head).
	Queued int
	// KindHops / RoleHops break the hop count down by credited message
	// kind and teacher role — the member→head→gateway→head→member
	// composition of the route.
	KindHops [sim.NumKinds]int
	RoleHops [ctvg.Unaffiliated + 1]int
}

// path builds the Path account from a lineage chain.
func path(node, token int, chain []Edge) Path {
	p := Path{Node: node, Token: token, Edges: chain, Depth: len(chain)}
	if len(chain) > 0 {
		p.Rounds = chain[len(chain)-1].Round + 1
		p.Queued = p.Rounds - p.Depth
		for _, e := range chain {
			p.KindHops[e.Kind]++
			p.RoleHops[e.TeacherRole]++
		}
	}
	return p
}

// CriticalPath returns the Path account for one (node, token) pair; false
// when the node never acquired the token.
func (l *Log) CriticalPath(node, token int) (Path, bool) {
	chain, ok := l.Lineage(node, token)
	if !ok {
		return Path{}, false
	}
	return path(node, token, chain), true
}

// TokenCritical returns the critical path of one token: the lineage of its
// slowest acquisition (the last first-delivery in stream order, which is
// the latest-round one). False when the log has no edge for the token —
// either nobody needed it or the log is empty.
func (l *Log) TokenCritical(token int) (Path, bool) {
	last := -1
	for i, e := range l.Edges {
		if e.Token == token {
			last = i
		}
	}
	if last < 0 {
		return Path{}, false
	}
	e := l.Edges[last]
	chain, ok := l.Lineage(e.Learner, token)
	if !ok {
		return Path{}, false
	}
	return path(e.Learner, token, chain), true
}

// AllCritical returns one critical path per token below Meta.K that has at
// least one edge, ascending by token ID.
func (l *Log) AllCritical() []Path {
	var toks []int
	for _, e := range l.Edges {
		if e.Token >= 0 && e.Token < l.Meta.K {
			toks = append(toks, e.Token)
		}
	}
	slices.Sort(toks)
	var out []Path
	for _, tok := range slices.Compact(toks) {
		if p, ok := l.TokenCritical(tok); ok {
			out = append(out, p)
		}
	}
	return out
}

// Depths returns the hop depth of every edge, aligned with log.Edges: an
// initial holder is depth 0 and each first delivery is its teacher's
// depth plus one. Edges arrive in round order and a teacher always
// acquired the token in a strictly earlier round (sends precede
// deliveries within a round), so a single forward pass suffices. A
// NoTeacher hop counts its unknown source as depth 0.
func (l *Log) Depths() []int {
	depth := make(map[int64]int, len(l.Edges))
	out := make([]int, len(l.Edges))
	for i, e := range l.Edges {
		d := 1
		if e.Teacher != NoTeacher {
			if td, ok := depth[pairKey(e.Teacher, e.Token)]; ok {
				d = td + 1
			}
		}
		depth[pairKey(e.Learner, e.Token)] = d
		out[i] = d
	}
	return out
}

// LedgerRow is one phase of the run-level budget ledger: observed progress
// against the Theorem 1 schedule.
type LedgerRow struct {
	// Phase is 1-based; EndRound is the phase's last executed round.
	Phase    int
	EndRound int
	// Required is the pace floor at the end of this phase; HeadMin and
	// Heads are the observed weakest-live-head token count and live head
	// count at that round (-1/0 when the log has no such round record).
	Required int
	HeadMin  int
	Heads    int
	// First / Redundant total the phase's deliveries.
	First     int
	Redundant int
	// OnPace reports HeadMin ≥ Required (vacuously true with no heads).
	OnPace bool
}

// Ledger folds the per-round records into per-phase rows judged against
// the budget. A nil budget falls back to the parameters recorded in the
// log's meta line; the result is nil when neither defines a phase length.
// Trailing partial phases are included (judged against the floor of the
// last full phase boundary they did not reach — i.e. not judged: OnPace
// is computed only for complete phases).
func (l *Log) Ledger(b *Budget) []LedgerRow {
	if b == nil {
		if l.Meta.PhaseLen <= 0 {
			return nil
		}
		b = &Budget{
			PhaseLen: l.Meta.PhaseLen, Phases: l.Meta.Phases,
			Alpha: l.Meta.Alpha, Theta: l.Meta.Theta,
		}
	}
	if b.PhaseLen <= 0 {
		return nil
	}
	var out []LedgerRow
	var row *LedgerRow
	for i := range l.Rounds {
		rec := &l.Rounds[i]
		phase := rec.Round/b.PhaseLen + 1
		if row == nil || row.Phase != phase {
			out = append(out, LedgerRow{Phase: phase, HeadMin: -1})
			row = &out[len(out)-1]
		}
		row.EndRound = rec.Round
		row.HeadMin = rec.HeadMin
		row.Heads = rec.Heads
		row.First += rec.First
		row.Redundant += rec.Redundant
	}
	for i := range out {
		row := &out[i]
		complete := (row.EndRound+1)%b.PhaseLen == 0
		if complete {
			row.Required = b.RequiredHeadMin(l.Meta.K, row.Phase)
			row.OnPace = row.Heads == 0 || row.HeadMin >= row.Required
		} else {
			row.OnPace = true
		}
	}
	return out
}
