package sim

import "repro/internal/bitset"

// msgPool is a per-shard arena of Message structs and payload bitsets. The
// engine hands one pool to every node of a shard (through View.NewMessage /
// View.NewSet) and recycles it at the round barrier: handed-out objects stay
// valid for exactly the round they were produced in — long enough for
// accounting, observers and delivery — and are reused wholesale afterwards,
// so steady-state rounds allocate nothing.
//
// Each pool is owned by the shard goroutine that executes its nodes' Send
// and Deliver calls (the collect and deliver phases use the same contiguous
// partition), so no locking is needed.
type msgPool struct {
	msgs []*Message
	sets []*bitset.Set
	// used* mark the arena high-water of the current round.
	usedMsgs int
	usedSets int
	// trim enables the steady-state decay policy (see recycle). The engine
	// sets it only for arrivals-mode runs; batch runs keep the plain ratchet
	// so the hot path stays branch-for-branch identical to earlier records.
	trim bool
	// lowRounds counts consecutive recycles with both arenas under a quarter
	// of their capacity; peak* track the high-water usage inside the streak.
	lowRounds int
	peakMsgs  int
	peakSets  int
}

// trimAfter is how many consecutive quiet rounds (usage under ¼ of
// capacity) the pool tolerates before shrinking the arenas. Long enough
// that phase-periodic traffic (uploads every T rounds) never thrashes,
// short enough that one burst round stops pinning peak memory for the rest
// of an unbounded run.
const trimAfter = 64

// trimFloor is the arena length below which trimming is never attempted;
// a few dozen objects are noise.
const trimFloor = 32

// message returns a zeroed Message valid until the end of the round.
func (p *msgPool) message() *Message {
	if p.usedMsgs == len(p.msgs) {
		p.msgs = append(p.msgs, new(Message))
	}
	m := p.msgs[p.usedMsgs]
	p.usedMsgs++
	*m = Message{}
	return m
}

// set returns an empty bitset valid until the end of the round, retaining
// whatever word capacity it accumulated in earlier rounds.
func (p *msgPool) set() *bitset.Set {
	if p.usedSets == len(p.sets) {
		p.sets = append(p.sets, new(bitset.Set))
	}
	s := p.sets[p.usedSets]
	p.usedSets++
	s.Clear()
	return s
}

// recycle returns every handed-out object to the arena. Called by the
// engine at the round barrier, after delivery and observation are done.
//
// Without trimming the arena ratchets: one burst round pins its high-water
// capacity (and every pooled bitset's word storage) for the rest of the
// run — fine for finite batch runs, a leak for unbounded steady-state ones.
// With trim set, a streak of trimAfter recycles in which both arenas stayed
// under ¼ of capacity shrinks them to twice the streak's peak usage, with
// fresh backing arrays so the old Messages and their payload words become
// collectable.
func (p *msgPool) recycle() {
	if p.trim {
		if p.usedMsgs > p.peakMsgs {
			p.peakMsgs = p.usedMsgs
		}
		if p.usedSets > p.peakSets {
			p.peakSets = p.usedSets
		}
		if (len(p.msgs) > trimFloor || len(p.sets) > trimFloor) &&
			p.usedMsgs*4 <= len(p.msgs) && p.usedSets*4 <= len(p.sets) {
			if p.lowRounds++; p.lowRounds >= trimAfter {
				p.shrink()
			}
		} else {
			p.lowRounds, p.peakMsgs, p.peakSets = 0, 0, 0
		}
	}
	p.usedMsgs, p.usedSets = 0, 0
}

// shrink reallocates both arenas at twice the recent peak (floor trimFloor),
// dropping the excess objects and their backing arrays.
func (p *msgPool) shrink() {
	keep := func(n, peak int) int {
		want := 2 * peak
		if want < trimFloor {
			want = trimFloor
		}
		if want > n {
			want = n
		}
		return want
	}
	if n := keep(len(p.msgs), p.peakMsgs); n < len(p.msgs) {
		p.msgs = append(make([]*Message, 0, n), p.msgs[:n]...)
	}
	if n := keep(len(p.sets), p.peakSets); n < len(p.sets) {
		p.sets = append(make([]*bitset.Set, 0, n), p.sets[:n]...)
	}
	p.lowRounds, p.peakMsgs, p.peakSets = 0, 0, 0
}

// stats reports the arena's retained footprint — pooled messages, pooled
// payload sets, and the bitset word storage (in bytes) those sets hold on
// to across rounds — for the timing layer's resource gauges. The engine
// samples it at the round barrier, after recycle, so it measures the
// high-water capacity the arena keeps, not the current round's usage.
func (p *msgPool) stats() (msgs, sets int, setBytes int64) {
	msgs, sets = len(p.msgs), len(p.sets)
	for _, s := range p.sets {
		setBytes += 8 * int64(cap(s.Words()))
	}
	return msgs, sets, setBytes
}

// shardState bundles everything one worker shard owns across rounds: its
// accounting accumulator, its message/set arena, its reusable inbox
// scratch, its link-fault counters and its View.Note buffer. The serial
// engine uses a single shard.
type shardState struct {
	acc   shardAcc
	pool  msgPool
	inbox []*Message
	// idle is the run's idle marks (engine.idle), indexed by node ID;
	// View.Idle sets the mark of a node the shard owns.
	idle []bool
	// drops / dups count this round's injected link faults for the
	// receivers the shard owns; the engine folds and zeroes them at the
	// round barrier.
	drops int
	dups  int
	// notes buffers the shard's View.Note emissions for the round; the
	// engine merges, replays and truncates it at the round barrier.
	notes []note
	// Progress-stage scratch (see engine.progress): delivered sums the
	// shard's token counts, counted its counted nodes (up, or down but
	// rejoining), and incomplete marks a counted node short of k tokens.
	// Arrival-mode GC adds held, the counted nodes' token count; inter,
	// the intersection of their token sets (meaningful when interAny);
	// and removed, the (node, token) pairs the shard's Collect pass
	// dropped.
	delivered  int
	counted    int
	incomplete bool
	held       int
	inter      bitset.Set
	interAny   bool
	removed    int
}
