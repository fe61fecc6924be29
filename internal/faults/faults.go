// Package faults is the composable fault-plan subsystem of the simulator:
// a declarative description of every failure an execution injects, plus the
// deterministic runtime that answers per-round fault queries for the engine.
//
// The paper's guarantees (Theorems 1–4) assume reliable rounds and a
// hierarchy that fails only by re-wiring. Real dynamic networks lose
// messages in bursts, crash cluster heads, and bring nodes back; this
// package models exactly those deviations so the experiments can measure
// how far each protocol strays from its bound when the assumptions break:
//
//   - crash-stop: a node goes down at a scheduled round and stays down;
//   - crash-recovery: a node rejoins after a downtime window — it kept its
//     token set (stable storage) but lost its volatile protocol state, so
//     it must re-affiliate and re-upload (the Remark 1 / Algorithm 2 paths);
//   - head-targeted kills: every live cluster head crashes at scheduled
//     rounds, the worst case for hierarchical dissemination;
//   - i.i.d. message loss (radio fading) and Gilbert–Elliott bursty link
//     loss (interference), applied per (message, receiver);
//   - message duplication (a receiver hears the same transmission twice).
//
// All randomness is counter-based: every decision is a pure function of
// (Seed, round, src, dst) via xrand.Hash, never a draw from a sequential
// stream. Two consequences the engine relies on: fault outcomes are
// independent of the order deliveries are evaluated in, so serial and
// parallel executions of the same plan are bit-identical; and skipping a
// query (a crashed sender, a vanished edge) cannot shift the randomness of
// any other link.
package faults

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Stream tags decorrelate the per-purpose hash streams drawn from one seed.
const (
	streamDrop uint64 = iota + 1
	streamBurst
	streamDup
)

// Plan declares every fault injected into one run. The zero value injects
// nothing. A Plan is immutable configuration: the engine compiles it into
// an Injector and never writes back, so one Plan may be shared by any
// number of concurrent runs (the experiment harness does).
type Plan struct {
	// Seed drives all fault randomness. Runs with equal plans and seeds
	// inject identical faults; distinct seeds decorrelate.
	Seed uint64

	// DropProb is the probability that any single (message, receiver)
	// delivery is lost, independently per receiver (radio fading).
	// Transmission cost is still charged — the sender paid for it.
	DropProb float64
	// Burst, if non-nil, adds Gilbert–Elliott bursty loss per directed
	// link on top of DropProb (a delivery is lost if either model drops
	// it). See GilbertElliott. A burst channel answers up to round
	// MaxBurstRound on networks of up to 2^31 nodes.
	Burst *GilbertElliott
	// DupProb is the probability that a delivery is heard twice (link
	// retransmission artefacts). Duplicates are delivered back to back and
	// cost nothing extra — the sender transmitted once.
	DupProb float64

	// CrashAt maps node -> round at the start of which the node crashes:
	// from that round on it neither sends nor receives.
	CrashAt map[int]int
	// RecoverAfter maps node -> downtime in rounds. A node v with
	// CrashAt[v] = r and RecoverAfter[v] = d is down for rounds [r, r+d)
	// and rejoins at round r+d with its token set intact but its volatile
	// protocol state reset (see sim.Recoverer). Nodes in CrashAt without a
	// RecoverAfter entry are crash-stop. An entry here without a matching
	// CrashAt entry is a validation error.
	RecoverAfter map[int]int

	// HeadCrashRounds lists rounds at whose start every live cluster head
	// (per that round's hierarchy) crashes — the adversary the self-healing
	// protocol variants exist for. Duplicate rounds are an error.
	HeadCrashRounds []int
	// HeadCrashDowntime is the downtime of head-targeted crashes: 0 means
	// crash-stop, d > 0 means each felled head recovers after d rounds.
	HeadCrashDowntime int
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	return p != nil && (p.Lossy() || p.DupProb > 0 ||
		len(p.CrashAt) > 0 || len(p.HeadCrashRounds) > 0)
}

// Lossy reports whether the plan can drop deliveries.
func (p *Plan) Lossy() bool {
	return p != nil && (p.DropProb > 0 || p.Burst != nil)
}

// Validate checks the plan against a network of n nodes and returns a
// descriptive error for the first problem found. A nil plan is valid.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	if err := prob("DropProb", p.DropProb); err != nil {
		return err
	}
	if err := prob("DupProb", p.DupProb); err != nil {
		return err
	}
	if p.Burst != nil {
		if err := p.Burst.validate(); err != nil {
			return err
		}
		if n-1 > math.MaxInt32 {
			return fmt.Errorf("faults: Burst supports networks of at most 2^31 nodes (got %d)", n)
		}
	}
	for v, at := range p.CrashAt {
		if v < 0 || v >= n {
			return fmt.Errorf("faults: CrashAt names node %d, outside [0, %d)", v, n)
		}
		if at < 0 {
			return fmt.Errorf("faults: CrashAt[%d] = %d is negative", v, at)
		}
	}
	for v, d := range p.RecoverAfter {
		if _, ok := p.CrashAt[v]; !ok {
			return fmt.Errorf("faults: RecoverAfter names node %d with no CrashAt entry", v)
		}
		if d <= 0 {
			return fmt.Errorf("faults: RecoverAfter[%d] = %d must be positive", v, d)
		}
	}
	seen := make(map[int]bool, len(p.HeadCrashRounds))
	for _, r := range p.HeadCrashRounds {
		if r < 0 {
			return fmt.Errorf("faults: HeadCrashRounds contains negative round %d", r)
		}
		if seen[r] {
			return fmt.Errorf("faults: HeadCrashRounds lists round %d twice", r)
		}
		seen[r] = true
	}
	if p.HeadCrashDowntime < 0 {
		return fmt.Errorf("faults: HeadCrashDowntime = %d is negative", p.HeadCrashDowntime)
	}
	return nil
}

func prob(name string, v float64) error {
	if v < 0 || v > 1 || v != v {
		return fmt.Errorf("faults: %s = %v is not a probability in [0, 1]", name, v)
	}
	return nil
}

// NoRecovery marks a crash window with no scheduled rejoin.
const NoRecovery = -1

// Crash is one compiled crash window: node v is down for rounds
// [At, RecoverAt), or forever when RecoverAt is NoRecovery.
type Crash struct {
	Node, At, RecoverAt int
}

// Injector is the compiled runtime of one plan for one run. It owns the
// per-link burst-channel memoisation, so an Injector must not be shared
// between runs; compile one per execution with New.
//
// Sharding contract: Drop, DropRow and Duplicate queries are keyed by
// receiver, and all queries for one receiver must come from a single
// goroutine at a time (the engine's shard partition of receivers
// satisfies this). Queries for distinct receivers never share state.
type Injector struct {
	plan  Plan
	burst *burstState
	heads map[int]bool // head-kill rounds
}

// New validates the plan against an n-node network and compiles it.
// A nil plan compiles to a nil Injector, which injects nothing.
func New(p *Plan, n int) (*Injector, error) {
	if !p.Active() {
		if err := p.Validate(n); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	in := &Injector{plan: *p}
	if p.Burst != nil {
		in.burst = newBurstState(*p.Burst, n)
	}
	if len(p.HeadCrashRounds) > 0 {
		in.heads = make(map[int]bool, len(p.HeadCrashRounds))
		for _, r := range p.HeadCrashRounds {
			in.heads[r] = true
		}
	}
	return in, nil
}

// Lossy reports whether deliveries can be dropped.
func (in *Injector) Lossy() bool { return in != nil && in.plan.Lossy() }

// Duplicating reports whether deliveries can be duplicated.
func (in *Injector) Duplicating() bool { return in != nil && in.plan.DupProb > 0 }

// Crashes returns the compiled static crash schedule, sorted by node so
// activation — and the events it emits — is deterministic (map range order
// is not).
func (in *Injector) Crashes() []Crash {
	if in == nil || len(in.plan.CrashAt) == 0 {
		return nil
	}
	out := make([]Crash, 0, len(in.plan.CrashAt))
	for v, at := range in.plan.CrashAt {
		c := Crash{Node: v, At: at, RecoverAt: NoRecovery}
		if d, ok := in.plan.RecoverAfter[v]; ok {
			c.RecoverAt = at + d
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// HeadCrash reports whether round r is a head-kill round, and the round at
// which heads felled now recover (NoRecovery for crash-stop).
func (in *Injector) HeadCrash(r int) (kill bool, recoverAt int) {
	if in == nil || !in.heads[r] {
		return false, NoRecovery
	}
	if in.plan.HeadCrashDowntime > 0 {
		return true, r + in.plan.HeadCrashDowntime
	}
	return true, NoRecovery
}

// Drop reports whether the delivery of src's round-r message to dst is
// lost. Pure counter-based randomness plus (for the burst model) per-link
// state owned by dst's shard; see the sharding contract on Injector. With
// a burst channel it panics if r exceeds MaxBurstRound.
func (in *Injector) Drop(r, src, dst int) bool {
	if in == nil {
		return false
	}
	in.checkRound(r)
	if p := in.plan.DropProb; p > 0 {
		if xrand.HashFloat64(in.plan.Seed^streamDrop, uint64(r), uint64(src), uint64(dst)) < p {
			return true
		}
	}
	if in.burst != nil {
		if in.burst.drop(in.plan.Seed^streamBurst, r, src, dst) {
			return true
		}
	}
	return false
}

// DropRow sets lost[i] to Drop(r, srcs[i], dst) for every i: one pass over
// a receiver's in-links. srcs must ascend strictly (a graph's neighbour
// lists do) and lost must be as long as srcs. The draws are Drop's, so
// mixing the two entry points moves no outcome; DropRow saves the per-link
// memo lookups by walking dst's memo row in step with srcs.
func (in *Injector) DropRow(r, dst int, srcs []int, lost []bool) {
	if len(lost) != len(srcs) {
		panic(fmt.Sprintf("faults: DropRow with %d senders and %d outcome slots", len(srcs), len(lost)))
	}
	if in == nil {
		clear(lost)
		return
	}
	in.checkRound(r)
	if p := in.plan.DropProb; p > 0 {
		seed := in.plan.Seed ^ streamDrop
		for i, src := range srcs {
			lost[i] = xrand.HashFloat64(seed, uint64(r), uint64(src), uint64(dst)) < p
		}
	} else {
		clear(lost)
	}
	if in.burst != nil {
		in.burst.dropRow(in.plan.Seed^streamBurst, r, dst, srcs, lost)
	}
}

// Duplicate reports whether dst hears src's round-r message twice.
func (in *Injector) Duplicate(r, src, dst int) bool {
	if in == nil || in.plan.DupProb <= 0 {
		return false
	}
	return xrand.HashFloat64(in.plan.Seed^streamDup, uint64(r), uint64(src), uint64(dst)) < in.plan.DupProb
}
