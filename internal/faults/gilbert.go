// Gilbert–Elliott bursty link loss.
//
// Each directed link (src → dst) carries an independent two-state Markov
// channel: in the Good state deliveries are lost with probability DropGood
// (usually 0), in the Bad state with probability DropBad (usually near 1).
// The chain moves Good → Bad with probability PGoodBad and Bad → Good with
// probability PBadGood once per round, so losses cluster into bursts whose
// mean length is 1/PBadGood rounds — the interference pattern i.i.d.
// dropping cannot produce.
//
// Determinism: the chain's trajectory is a pure function of the run seed
// and the link. Every transition at round r draws xrand.Hash(seed, r, link,
// tag) — no draw depends on whether, when, or from which goroutine the link
// was queried. The memo below only caches the trajectory's suffix position
// so repeated queries don't replay history; it never influences outcomes.

package faults

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/xrand"
)

// GilbertElliott parameterises the two-state burst-loss channel applied
// independently to every directed link.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-round transition probabilities
	// Good→Bad and Bad→Good. Mean burst length is 1/PBadGood rounds;
	// stationary loss ≈ DropBad · PGoodBad / (PGoodBad + PBadGood).
	PGoodBad, PBadGood float64
	// DropGood and DropBad are the per-delivery loss probabilities in each
	// state. The classic Gilbert model is DropGood = 0, DropBad = 1.
	DropGood, DropBad float64
}

func (g *GilbertElliott) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Burst.PGoodBad", g.PGoodBad},
		{"Burst.PBadGood", g.PBadGood},
		{"Burst.DropGood", g.DropGood},
		{"Burst.DropBad", g.DropBad},
	} {
		if err := prob(f.name, f.v); err != nil {
			return err
		}
	}
	if g.PGoodBad > 0 && g.PBadGood == 0 && g.DropBad >= 1 {
		return fmt.Errorf("faults: Burst.PBadGood = 0 with DropBad = 1 makes every link eventually a permanent black hole; set PBadGood > 0 (or lower DropBad)")
	}
	return nil
}

// Draw tags for the three hash streams a link consumes each round.
const (
	burstInit uint64 = iota // stationary draw for the round-0 state
	burstStep               // per-round transition draw
	burstLoss               // per-delivery loss draw
)

// linkMemo caches where one link's trajectory has been stepped to. Sender
// and round are int32 to keep the memo at 12 bytes; Plan.Validate rejects
// larger networks, and Drop and DropRow reject later rounds.
type linkMemo struct {
	src   int32 // sender; a receiver's row is sorted by it
	round int32 // last round the state was stepped to
	bad   bool  // state at that round
}

// MaxBurstRound is the last round a plan with a burst channel can be
// queried at: the link memos step their round as an int32.
const MaxBurstRound = math.MaxInt32

// checkRound panics if a burst channel is queried past MaxBurstRound,
// where a memo's round would wrap and its catch-up loop never end.
func (in *Injector) checkRound(r int) {
	if in.burst != nil && r > MaxBurstRound {
		panic(fmt.Sprintf("faults: burst channel queried at round %d, past MaxBurstRound %d", r, MaxBurstRound))
	}
}

// memoRow is one receiver's link memos, sorted by sender. next is the slot
// after the previous drop query's. Delivery without self-stabilization
// asks about a receiver's senders in ascending order, mostly the same ones
// each round, so next is usually the slot asked for. On
// BenchmarkHiNet10kLossy/alg1-burst (2-core Intel Xeon, medians of 6
// interleaved runs) a plain slices.BinarySearchFunc lookup took 1.65 s
// per op against 1.11 s with the hint.
type memoRow struct {
	links []linkMemo
	next  int
}

// burstState holds the per-link memos as one row per receiver, so each
// engine shard touches only the rows of the receivers it owns (the sharding
// contract documented on Injector). No map holds per-link state: dropRow
// walks a row in step with an ascending sender list, and drop starts its
// search at the previous query's successor. Memos of links that leave the
// graph stay in their row, so a returning link resumes its trajectory
// instead of replaying it from round 0.
type burstState struct {
	g     GilbertElliott
	n     uint64
	piBad float64 // stationary Bad probability: a link's round-0 state
	rows  []memoRow
}

func newBurstState(g GilbertElliott, n int) *burstState {
	b := &burstState{g: g, n: uint64(n), rows: make([]memoRow, n)}
	if s := g.PGoodBad + g.PBadGood; s > 0 {
		b.piBad = g.PGoodBad / s
	}
	return b
}

// fresh returns link (src → dst)'s memo at round 0. The state is drawn
// from the chain's stationary distribution, so early rounds are
// statistically indistinguishable from late ones.
func (b *burstState) fresh(seed uint64, src, dst int) linkMemo {
	link := uint64(src)*b.n + uint64(dst)
	return linkMemo{src: int32(src), bad: xrand.HashFloat64(seed, 0, link, burstInit) < b.piBad}
}

// lost steps m, the memo of link (src → dst), to round r and reports
// whether the round-r delivery is lost. seed already carries the burst
// stream tag.
func (b *burstState) lost(seed uint64, m *linkMemo, r, dst int) bool {
	link := uint64(m.src)*b.n + uint64(dst)
	// Replay the un-queried suffix of the trajectory. Each step is a pure
	// draw keyed by its own round, so a link queried at rounds 3 and 40
	// lands in exactly the state it would have reached queried every round.
	for int(m.round) < r {
		m.round++
		p := b.g.PGoodBad
		if m.bad {
			p = b.g.PBadGood
		}
		if xrand.HashFloat64(seed, uint64(m.round), link, burstStep) < p {
			m.bad = !m.bad
		}
	}
	lossP := b.g.DropGood
	if m.bad {
		lossP = b.g.DropBad
	}
	return lossP > 0 && xrand.HashFloat64(seed, uint64(r), link, burstLoss) < lossP
}

// drop advances link (src → dst) to round r and reports whether the
// delivery is lost. Queries for one link must arrive at non-decreasing
// rounds (the engine's round loop guarantees this); the result is still a
// pure function of (seed, r, link).
func (b *burstState) drop(seed uint64, r, src, dst int) bool {
	row := &b.rows[dst]
	j := row.find(src)
	if j == len(row.links) || int(row.links[j].src) != src {
		row.links = slices.Insert(row.links, j, b.fresh(seed, src, dst))
	}
	row.next = j + 1
	return b.lost(seed, &row.links[j], r, dst)
}

// find returns the slot of src in the row, or where it would be inserted.
// It tries the slot after the previous query first, then binary-searches
// the side of it src must lie on.
func (row *memoRow) find(src int) int {
	links := row.links
	lo, hi := 0, len(links)
	if h := row.next; h < len(links) {
		switch s := int(links[h].src); {
		case s == src:
			return h
		case s < src:
			lo = h + 1
		default:
			hi = h
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(links[mid].src) < src {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dropRow ORs the round-r burst losses of links srcs[i] → dst into lost[i].
// srcs must ascend. The row and srcs are walked together, and a link seen
// for the first time is inserted where the walk stands. Links already
// marked lost are not stepped (drop is never asked about them either);
// their memos catch up on a later query.
func (b *burstState) dropRow(seed uint64, r, dst int, srcs []int, lost []bool) {
	row := &b.rows[dst]
	links := row.links
	j := 0
	for i, src := range srcs {
		for j < len(links) && int(links[j].src) < src {
			j++
		}
		if j == len(links) || int(links[j].src) != src {
			links = slices.Insert(links, j, b.fresh(seed, src, dst))
		}
		if !lost[i] {
			lost[i] = b.lost(seed, &links[j], r, dst)
		}
		j++
	}
	row.links = links
}
