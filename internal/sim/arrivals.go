package sim

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/xrand"
)

// Arrivals configures steady-state token traffic: instead of disseminating
// only the assignment's fixed k-token batch, the engine injects new tokens
// as the run proceeds — a Poisson process, optionally modulated into bursty
// on/off windows and optionally concentrated on one cluster — and
// garbage-collects tokens once every live node holds them, so per-node
// bitsets, delivered accounting and pooled arenas stay bounded over
// unbounded runs.
//
// Token identity under GC: tokens occupy *slots* in the shared bitset
// universe. A collected token's slot is returned to a free list and reused
// by a later arrival (smallest free slot first), so the live universe never
// grows past the peak number of concurrently outstanding tokens. Streams
// that must tell generations apart (observer events, provenance records)
// carry the token's arrival sequence number alongside its slot.
//
// All randomness is counter-based — pure in (seed, round, draw index) — so
// an arrival-mode run is bit-identical whether it executes serially or on
// Workers goroutines, and replays exactly from the same seed.
type Arrivals struct {
	// Rate is the expected number of token arrivals per active round
	// (Poisson distributed). Required, > 0.
	Rate float64
	// Seed drives the counter-based arrival randomness (draw counts, target
	// nodes). Runs with equal seeds and configs inject identically.
	Seed uint64
	// OnRounds / OffRounds, when positive, modulate the process into bursts:
	// arrivals occur at Rate for OnRounds rounds, then pause for OffRounds,
	// repeating. Both zero means a steady process; setting exactly one of
	// them is a configuration error.
	OnRounds  int
	OffRounds int
	// Hotspot, when true, concentrates every arrival on the cluster that
	// contains node HotspotNode at injection time (its members, gateways and
	// head). Rounds where that cluster is entirely down, or where the node
	// is unaffiliated, inject into the node itself if it is up, and skip the
	// arrival otherwise.
	Hotspot     bool
	HotspotNode int
	// Start / Stop bound the arrival window: arrivals begin at round Start
	// (default 0) and cease at round Stop. Stop <= 0 means the process never
	// stops — the run then ends only at MaxRounds (or a stall).
	Start int
	Stop  int
	// MaxTokens, when positive, caps the total number of injected tokens;
	// the process stops early once the cap is reached.
	MaxTokens int
}

// Validate checks the configuration against a network of n nodes. A nil
// receiver (arrivals disabled) is valid.
func (a *Arrivals) Validate(n int) error {
	if a == nil {
		return nil
	}
	return a.validate(n)
}

// validate checks the configuration against a network of n nodes.
func (a *Arrivals) validate(n int) error {
	if !(a.Rate > 0) || math.IsInf(a.Rate, 0) {
		return fmt.Errorf("sim: Arrivals.Rate must be positive and finite (got %v)", a.Rate)
	}
	if (a.OnRounds > 0) != (a.OffRounds > 0) {
		return fmt.Errorf("sim: Arrivals.OnRounds and OffRounds must be set together (got %d/%d)", a.OnRounds, a.OffRounds)
	}
	if a.OnRounds < 0 || a.OffRounds < 0 {
		return fmt.Errorf("sim: Arrivals burst windows must be non-negative (got %d/%d)", a.OnRounds, a.OffRounds)
	}
	if a.Start < 0 {
		return fmt.Errorf("sim: Arrivals.Start must be non-negative (got %d)", a.Start)
	}
	if a.Stop > 0 && a.Stop <= a.Start {
		return fmt.Errorf("sim: Arrivals.Stop (%d) must exceed Start (%d)", a.Stop, a.Start)
	}
	if a.MaxTokens < 0 {
		return fmt.Errorf("sim: Arrivals.MaxTokens must be non-negative (got %d)", a.MaxTokens)
	}
	if a.Hotspot && (a.HotspotNode < 0 || a.HotspotNode >= n) {
		return fmt.Errorf("sim: Arrivals.HotspotNode %d outside [0, %d)", a.HotspotNode, n)
	}
	return nil
}

// Injector is implemented by protocol nodes that accept dynamically
// arriving tokens: Inject hands node state one token (by slot) that arrived
// at the node in round r, before the round's Send. The node must add it to
// its collected set and treat it like any other token it originated — in
// particular, upload protocols must (re-)schedule the token for upload.
// Arrival-mode runs require every node to implement Injector and
// Collectible.
type Injector interface {
	Inject(r, tok int)
}

// Collectible is implemented by protocol nodes that support token
// garbage-collection: Collect removes the slots in gc from every token set
// the node holds — the collected set and any protocol bookkeeping keyed by
// token (sent-sets, received-sets), so a reused slot starts from a clean
// slate. The engine calls it at the round barrier, on every node including
// crashed ones (GC is an engine-level accounting operation on stable
// storage, not a protocol step), with the same gc set for all nodes.
type Collectible interface {
	Collect(gc *bitset.Set)
}

// Purpose constants separate the counter-based random streams of the
// arrival process.
const (
	arrStreamCount  = 0xa121 // per-round Poisson draw
	arrStreamTarget = 0xa122 // per-arrival target-node choice
)

// arrState is the engine's bookkeeping for one arrival-mode run. All of it
// hangs off a single pointer in the round loop, so arrivals-off runs pay
// one nil comparison and allocate nothing.
type arrState struct {
	cfg Arrivals
	n   int
	k   int // initial batch size; arrival sequence numbers start here

	// live holds the slots of outstanding (injected, not yet collected)
	// tokens; free holds previously used slots available for reuse. next is
	// the first never-used slot.
	live *bitset.Set
	free *bitset.Set
	next int

	// born[s] / seq[s] are the injection round and global arrival sequence
	// number of the token currently occupying slot s (the initial batch is
	// born at round 0 with sequence 0..k-1).
	born []int
	seq  []int64

	injected  int64 // arrivals injected (excluding the initial batch)
	collected int64 // tokens garbage-collected

	// cand is the per-round injection candidate scratch; gc and inter are
	// the round's GC result and intersection scratch.
	cand  []int
	gc    *bitset.Set
	inter *bitset.Set

	injectors []Injector
	collects  []Collectible
}

// newArrState builds the arrival bookkeeping for a run of n nodes whose
// initial batch is k tokens (slots 0..k-1, all live).
func newArrState(cfg *Arrivals, n, k int, nodes []Node) (*arrState, error) {
	a := &arrState{
		cfg:       *cfg,
		n:         n,
		k:         k,
		live:      bitset.New(k),
		free:      bitset.New(k),
		next:      k,
		born:      make([]int, k),
		seq:       make([]int64, k),
		gc:        bitset.New(k),
		inter:     bitset.New(k),
		injectors: make([]Injector, n),
		collects:  make([]Collectible, n),
	}
	for s := 0; s < k; s++ {
		a.live.Add(s)
		a.seq[s] = int64(s)
	}
	for v, nd := range nodes {
		inj, okI := nd.(Injector)
		col, okC := nd.(Collectible)
		if !okI || !okC {
			return nil, fmt.Errorf("sim: Arrivals requires every node to implement Injector and Collectible; node %d (%T) does not", v, nd)
		}
		a.injectors[v] = inj
		a.collects[v] = col
	}
	return a, nil
}

// active reports whether round r lies in the arrival window (ignoring the
// MaxTokens cap).
func (a *arrState) active(r int) bool {
	if r < a.cfg.Start || (a.cfg.Stop > 0 && r >= a.cfg.Stop) {
		return false
	}
	if a.cfg.OnRounds > 0 {
		if (r-a.cfg.Start)%(a.cfg.OnRounds+a.cfg.OffRounds) >= a.cfg.OnRounds {
			return false
		}
	}
	return true
}

// exhausted reports whether no arrival can occur at round r or later.
func (a *arrState) exhausted(r int) bool {
	if a.cfg.MaxTokens > 0 && a.injected >= int64(a.cfg.MaxTokens) {
		return true
	}
	return a.cfg.Stop > 0 && r >= a.cfg.Stop
}

// count draws the round's arrival count: Poisson(Rate) via Knuth's
// product-of-uniforms method on the counter-based stream, clamped by the
// MaxTokens budget. Rates above 30 are split into independent chunks so the
// running product cannot underflow into a pathological loop.
func (a *arrState) count(r int) int {
	if !a.active(r) {
		return 0
	}
	k := 0
	rate := a.cfg.Rate
	for chunk := 0; rate > 0; chunk++ {
		lam := rate
		if lam > 30 {
			lam = 30
		}
		rate -= lam
		threshold := math.Exp(-lam)
		p := 1.0
		for i := 0; ; i++ {
			p *= xrand.HashFloat64(a.cfg.Seed^arrStreamCount, uint64(r), uint64(chunk), uint64(i))
			if p <= threshold {
				break
			}
			k++
		}
	}
	if a.cfg.MaxTokens > 0 {
		if budget := int(int64(a.cfg.MaxTokens) - a.injected); k > budget {
			k = budget
		}
	}
	return k
}

// targets rebuilds the round's injection candidate list: live nodes, and
// under Hotspot only those in HotspotNode's current cluster (head included;
// an unaffiliated hotspot node stands alone).
func (a *arrState) targets(crashed []bool, hier *ctvg.Hierarchy) []int {
	a.cand = a.cand[:0]
	if a.cfg.Hotspot {
		hot := hier.HeadOf(a.cfg.HotspotNode)
		for v := 0; v < a.n; v++ {
			if crashed[v] {
				continue
			}
			if v == a.cfg.HotspotNode || (hot != ctvg.NoCluster && (hier.HeadOf(v) == hot || v == hot)) {
				a.cand = append(a.cand, v)
			}
		}
		return a.cand
	}
	for v := 0; v < a.n; v++ {
		if !crashed[v] {
			a.cand = append(a.cand, v)
		}
	}
	return a.cand
}

// alloc takes a token slot: the smallest free slot if any, else a brand-new
// one. Smallest-first reuse keeps the slot universe — and with it every
// bitset word in the system — bounded by the peak number of concurrently
// outstanding tokens.
func (a *arrState) alloc() int {
	if !a.free.Empty() {
		s := a.free.Min()
		a.free.Remove(s)
		return s
	}
	s := a.next
	a.next++
	a.born = append(a.born, 0)
	a.seq = append(a.seq, 0)
	return s
}

// liveCount is the number of outstanding tokens (initial batch included).
func (a *arrState) liveCount() int { return a.live.Len() }

// inject runs one round of the arrival process on the engine goroutine,
// before the round's Send, so serial and parallel runs inject identically:
// draw the round's Poisson count, pick a target per arrival from the live
// candidates, hand the token to the node, and tell the tracer and the
// round's record in arrival-sequence order. Rounds outside the window,
// past the MaxTokens budget, or with no live candidate inject nothing (the
// draw is consumed either way, so later rounds are unaffected). A node
// handed a token wakes if idle. Like crashes and recoveries, arrivals are
// externally scheduled events, timed under StageFaults.
func (e *engine) inject() {
	a, r := e.arr, e.r
	e.rd.Arrived = e.rd.Arrived[:0]
	count := a.count(r)
	if count == 0 {
		return
	}
	cand := a.targets(e.crashed, e.hier)
	if len(cand) == 0 {
		return
	}
	for i := 0; i < count; i++ {
		v := cand[xrand.Hash(a.cfg.Seed^arrStreamTarget, uint64(r), uint64(i), 0)%uint64(len(cand))]
		s := a.alloc()
		a.born[s] = r
		seq := int64(a.k) + a.injected
		a.seq[s] = seq
		a.live.Add(s)
		a.injected++
		e.met.TokensInjected++
		e.idle[v] = false
		a.injectors[v].Inject(r, s)
		if e.atr != nil {
			e.atr.Injected(r, v, s, seq)
		}
		if e.obs != nil {
			e.rd.Arrived = append(e.rd.Arrived, ArrivedToken{Node: v, Slot: s, Seq: seq})
		}
	}
	if l := a.live.Len(); l > e.met.PeakOutstanding {
		e.met.PeakOutstanding = l
	}
}

// collectGarbage is the arrival-mode progress pass, two sharded passes at
// the round barrier. Pass 1 scans every node once: the pre-GC delivered
// popcount, the counted population (up, or down but rejoining — the nodes
// the batch completion check counts), and the intersection of counted
// nodes' token sets. Pass 2, run only when the merged intersection
// contains live tokens, removes the collected set from every node (crashed
// ones included: GC is an accounting operation on stable storage) and
// measures exactly how many pairs it dropped, so the post-GC delivered
// count is exact even when permanently crashed nodes held part of the
// collected set. Set intersection and integer addition commute, so merging
// the shards in order is bit-identical to a serial scan.
func (e *engine) collectGarbage() {
	a := e.arr
	e.each(e.scanArrivals)
	e.delivered, e.countedN = 0, 0
	held, haveInter := 0, false
	for s := range e.shards {
		st := &e.shards[s]
		e.delivered += st.delivered
		e.countedN += st.counted
		held += st.held
		if !st.interAny {
			continue
		}
		if !haveInter {
			a.gc.CopyFrom(&st.inter)
			haveInter = true
		} else {
			a.gc.IntersectWith(&st.inter)
		}
	}
	if !haveInter {
		a.gc.Clear()
	}
	a.gc.IntersectWith(a.live)
	// Collect the fully disseminated tokens and rebase the accounting on
	// the post-GC universe, so the delivered count and the totals stay
	// mutually consistent.
	e.rd.Collected = e.rd.Collected[:0]
	if gcLen := a.gc.Len(); gcLen > 0 {
		if e.atr != nil {
			e.atr.Collected(e.r, a.gc)
		}
		e.each(e.collectArrivals)
		for s := range e.shards {
			e.delivered -= e.shards[s].removed
		}
		held -= e.countedN * gcLen
		for tok := 0; tok < a.next; tok++ {
			if !a.gc.Contains(tok) {
				continue
			}
			if e.obs != nil {
				e.rd.Collected = append(e.rd.Collected, CollectedToken{Slot: tok, Seq: a.seq[tok], Born: a.born[tok]})
			}
			a.live.Remove(tok)
			a.free.Add(tok)
		}
		a.collected += int64(gcLen)
		e.met.TokensCollected += int64(gcLen)
	}
	e.outstanding = e.countedN*a.liveCount() - held
	e.met.OutstandingTokens = a.liveCount()
	// Steady state is complete when the arrival process can inject
	// nothing more and every token has been collected — which requires at
	// least one counted node, as in a batch run.
	e.done = e.countedN > 0 && a.live.Empty() && a.exhausted(e.r+1)
}

// scanArrivalsShard is collectGarbage's pass 1 on one shard.
func (e *engine) scanArrivalsShard(s, lo, hi int) {
	st := &e.shards[s]
	st.interAny = false
	st.delivered, st.counted, st.held = 0, 0, 0
	for v := lo; v < hi; v++ {
		tk := e.nodes[v].Tokens()
		l := tk.Len()
		st.delivered += l
		if !counted(v, e.crashed, e.recoverAt) {
			continue
		}
		st.counted++
		st.held += l
		if !st.interAny {
			st.inter.CopyFrom(tk)
			st.interAny = true
		} else {
			st.inter.IntersectWith(tk)
		}
	}
}

// collectArrivalsShard is collectGarbage's pass 2 on one shard. Every
// node it collects from wakes if idle.
func (e *engine) collectArrivalsShard(s, lo, hi int) {
	removed := 0
	for v := lo; v < hi; v++ {
		pre := e.nodes[v].Tokens().Len()
		e.idle[v] = false
		e.arr.collects[v].Collect(e.arr.gc)
		removed += pre - e.nodes[v].Tokens().Len()
	}
	e.shards[s].removed = removed
}
