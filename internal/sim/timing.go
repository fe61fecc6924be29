package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"
)

// Stage identifies one timing bucket of the engine's round — the
// granularity of the self-profiling layer (Options.Timing). The engine's
// round method calls one method per stage in a fixed order and times each
// call under its Stage, so a stage that recurs within a round (StageFaults
// for the crash sweeps, the loss-row pass and arrival injection;
// StageMerge for every barrier fold) reports the sum of its calls. The
// enum order is the canonical reporting order, roughly the order the
// stages run inside a round.
type Stage uint8

const (
	// StageFaults: crash/recovery bookkeeping — downtime-window rejoins,
	// static and head-targeted crash activation, Crashed/Recovered events
	// — plus arrival injection and, on lossy self-stabilizing runs, the
	// link-loss row pass that draws every live receiver's in-links once
	// for the round.
	StageFaults Stage = iota
	// StageSnapshot: materialising the round's communication graph (the
	// ctvg.Dynamic.At call, a cache thaw or a CSR snapshot build).
	StageSnapshot
	// StageHierarchy: refreshing the clustering hierarchy and the
	// stability-window bookkeeping (ctvg.Dynamic.HierarchyAt, StableUntil),
	// or, with Options.SelfStabilize, the beacon exchange and its validity
	// check; beacon losses are read from the rows StageFaults drew.
	StageHierarchy
	// StageCollect: the per-shard protocol step — every node's Send plus
	// per-message accounting, fanned out over the shard partition.
	StageCollect
	// StageObserve: observer emission on the engine goroutine —
	// Observer.RoundStart and the ascending-sender Sent replay.
	StageObserve
	// StageDeliver: the delivery fan-out — inbox assembly, link-fault
	// queries and every node's Deliver, over the same shard partition.
	// Link loss is one Injector.Drop per sender link, or a read of the
	// round's loss rows on self-stabilizing runs.
	StageDeliver
	// StageMerge: the round-barrier folds — per-shard accumulator merge,
	// note merge/replay, link-fault fold.
	StageMerge
	// StageTracer: provenance tracer emission on the engine goroutine
	// (Tracer.RoundStart and the shard-merging Tracer.RoundEnd).
	StageTracer
	// StageProgress: the progress pass — one sharded scan for the
	// delivered count and the completion check, or arrival-mode GC — and
	// the Progress and Barrier events.
	StageProgress
	// StageRecycle: returning this round's messages and payload sets to
	// the per-shard arenas.
	StageRecycle
	// NumStages sizes per-stage arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"faults", "snapshot", "hierarchy", "collect", "observe",
	"deliver", "merge", "tracer", "progress", "recycle",
}

// String returns the stage's canonical name — the `stage=` pprof label
// value and the key used in timing JSONL and BENCH_*.json stage ceilings.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", byte(s))
}

// TimingSink receives the engine's self-profiling stream; internal/obs
// provides the standard implementation (obs.Timing). Like the Observer and
// Tracer hooks, every callback is invoked from the engine goroutine, at the
// round barrier, so sinks need no locking; per-shard durations are handed
// over already merged in shard order, which makes a sink's output
// independent of Options.Workers up to the durations themselves.
type TimingSink interface {
	// RunStart is called once before round 0 with the shard count, so the
	// sink can size per-shard series.
	RunStart(nshards int)
	// RoundEnd is called once per executed round at the round barrier.
	// wall holds the engine goroutine's per-stage monotonic-clock
	// durations for the round (nanoseconds); shard holds one per-stage
	// array per shard, populated for the fan-out stages (StageCollect,
	// StageDeliver) with each shard goroutine's own duration. Both alias
	// engine storage: read-only, not retained past the call.
	RoundEnd(r int, wall *[NumStages]int64, shard [][NumStages]int64)
	// SampleArena reports whether the engine should take the (mildly
	// expensive) arena/resource sample this round; when it returns true
	// the engine calls Arena before RoundEnd.
	SampleArena(r int) bool
	// Arena receives the arena occupancy sample: total pooled messages,
	// pooled payload sets and the bytes of bitset word storage those sets
	// retain, summed over all shards.
	Arena(r int, msgs, sets int, setBytes int64)
}

// timingState is the engine's per-run timing scratch. All timing state
// hangs off this one pointer, allocated only when Options.Timing is set, so
// the disabled path adds no allocations — a local array whose address
// escaped into an interface call would be heap-allocated even on rounds
// that never take the branch.
type timingState struct {
	wall  [NumStages]int64
	shard [][NumStages]int64

	// Pre-built pprof label contexts, one per stage plus per-shard
	// variants for the fan-out stages, derived from Options.LabelCtx (or
	// Background). Built once per run: SetGoroutineLabels on a prepared
	// context is cheap enough for sixteen calls a round, building label
	// sets is not.
	baseCtx    context.Context
	stageCtx   [NumStages]context.Context
	collectCtx []context.Context
	deliverCtx []context.Context
}

func newTimingState(base context.Context, nshards int) *timingState {
	if base == nil {
		base = context.Background()
	}
	t := &timingState{
		baseCtx:    base,
		shard:      make([][NumStages]int64, nshards),
		collectCtx: make([]context.Context, nshards),
		deliverCtx: make([]context.Context, nshards),
	}
	for st := Stage(0); st < NumStages; st++ {
		t.stageCtx[st] = pprof.WithLabels(base, pprof.Labels("stage", st.String()))
	}
	for s := 0; s < nshards; s++ {
		sh := strconv.Itoa(s)
		t.collectCtx[s] = pprof.WithLabels(base, pprof.Labels(
			"stage", StageCollect.String(), "shard", sh))
		t.deliverCtx[s] = pprof.WithLabels(base, pprof.Labels(
			"stage", StageDeliver.String(), "shard", sh))
	}
	return t
}

// seg opens a stage segment on the engine goroutine: the goroutine's pprof
// labels switch to the stage and the monotonic clock is read. On a nil
// receiver (timing disabled) it does nothing and returns the zero Time;
// callers pair it with end, which is equally inert, so the disabled path
// costs one nil check per segment edge.
func (t *timingState) seg(st Stage) time.Time {
	if t == nil {
		return time.Time{}
	}
	pprof.SetGoroutineLabels(t.stageCtx[st])
	return time.Now()
}

// end closes a stage segment opened by seg, folding its duration into the
// round's wall array.
func (t *timingState) end(st Stage, t0 time.Time) {
	if t == nil {
		return
	}
	t.wall[st] += int64(time.Since(t0))
}

// wrapShard decorates a shard body with a per-shard monotonic clock and
// stage=/shard= pprof labels. The returned closure runs on the shard's
// goroutine (or the engine goroutine when serial); distinct shards write
// distinct slots, so no synchronisation is needed beyond the fan-out's own
// barrier. Only called when timing is on — the timing-off path keeps the
// raw shard bodies, untouched.
func (t *timingState) wrapShard(st Stage, ctxs []context.Context, fn func(s, lo, hi int)) func(s, lo, hi int) {
	return func(s, lo, hi int) {
		pprof.SetGoroutineLabels(ctxs[s])
		t0 := time.Now()
		fn(s, lo, hi)
		t.shard[s][st] += int64(time.Since(t0))
	}
}

// flush hands the round's record to the sink at the round barrier —
// before the end-of-run checks, so a truncated run reports its final round
// too — then restores the caller's pprof labels. Like seg and end it is
// inert on a nil receiver.
func (t *timingState) flush(sink TimingSink, r int, shards []shardState) {
	if t == nil {
		return
	}
	if sink.SampleArena(r) {
		msgs, sets, setBytes := 0, 0, int64(0)
		for s := range shards {
			m, sc, b := shards[s].pool.stats()
			msgs += m
			sets += sc
			setBytes += b
		}
		sink.Arena(r, msgs, sets, setBytes)
	}
	sink.RoundEnd(r, &t.wall, t.shard)
	t.reset()
	pprof.SetGoroutineLabels(t.baseCtx)
}

// reset zeroes the per-round accumulators after a RoundEnd flush.
func (t *timingState) reset() {
	t.wall = [NumStages]int64{}
	for s := range t.shard {
		t.shard[s] = [NumStages]int64{}
	}
}
