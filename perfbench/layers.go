package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/bitset"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/sim"
)

// The traced run measures layers only through decorators at public call
// boundaries, so no program code changes for it. sim.Node is deliberately
// not wrapped: a per-call wrapper on Send/Deliver costs as much as the
// protocol work it would measure, so per-node layers are read through the
// engine's own stage timing (sim.Options.Timing) and through counts.

// timedDynamic is the dynamics layer's span: it counts and times the
// engine's At and HierarchyAt calls on a dynamic network. It forwards
// ctvg.Stability, so the engine's stability-window cache sees the same
// windows as with the bare dynamic; a decorator that dropped StableUntil
// would silently turn the cache off and trace a different program.
type timedDynamic struct {
	d  ctvg.Dynamic
	st ctvg.Stability
	// fetches counts At calls: one per stability window the engine opens.
	fetches int
	ns      int64
}

func newTimedDynamic(d ctvg.Dynamic) *timedDynamic {
	st, ok := d.(ctvg.Stability)
	if !ok {
		panic(fmt.Sprintf("perfbench: %T advertises no stability windows", d))
	}
	return &timedDynamic{d: d, st: st}
}

func (t *timedDynamic) N() int { return t.d.N() }

func (t *timedDynamic) At(r int) *graph.Graph {
	t0 := time.Now()
	g := t.d.At(r)
	t.ns += int64(time.Since(t0))
	t.fetches++
	return g
}

func (t *timedDynamic) HierarchyAt(r int) *ctvg.Hierarchy {
	t0 := time.Now()
	h := t.d.HierarchyAt(r)
	t.ns += int64(time.Since(t0))
	return h
}

func (t *timedDynamic) StableUntil(r int) int { return t.st.StableUntil(r) }

// countingTracer is the protocol layer's probe: a sim.Tracer that counts
// the messages every node hears and the tokens it learns. It forwards every
// call, including the ArrivalTracer and MaintenanceTracer extensions, to an
// inner tracer when there is one and returns the inner tracer's delivery
// counts unchanged, so Metrics stay bit-identical to the untraced run.
type countingTracer struct {
	inner sim.Tracer
	arr   sim.ArrivalTracer
	maint sim.MaintenanceTracer

	// Delivered runs concurrently on shard goroutines; each shard owns one
	// padded counter slot, and each node belongs to one shard for the run.
	shards []shardCount
	// held is each node's token count after its last delivery. Learned
	// tokens are counted from it only when there is no inner tracer; with
	// one, arrivals and garbage collection also change the sets, and the
	// inner tracer's first-delivery count is the exact figure.
	held    []int
	learned int64
}

type shardCount struct {
	heard, learned int64
	_              [48]byte // keep shards on separate cache lines
}

func newCountingTracer(inner sim.Tracer) *countingTracer {
	t := &countingTracer{inner: inner}
	if inner != nil {
		t.arr, _ = inner.(sim.ArrivalTracer)
		t.maint, _ = inner.(sim.MaintenanceTracer)
	}
	return t
}

func (t *countingTracer) RunStart(n, k, shards int, nodes []sim.Node) {
	t.shards = make([]shardCount, shards)
	t.held = make([]int, n)
	for v, nd := range nodes {
		t.held[v] = nd.Tokens().Len()
	}
	if t.inner != nil {
		t.inner.RunStart(n, k, shards, nodes)
	}
}

func (t *countingTracer) RoundStart(r int, hier *ctvg.Hierarchy) {
	if t.inner != nil {
		t.inner.RoundStart(r, hier)
	}
}

func (t *countingTracer) Delivered(shard, v int, vw *sim.View, inbox []*sim.Message, tokens *bitset.Set) {
	sc := &t.shards[shard]
	sc.heard += int64(len(inbox))
	if t.inner != nil {
		t.inner.Delivered(shard, v, vw, inbox, tokens)
		return
	}
	held := tokens.Len()
	sc.learned += int64(held - t.held[v])
	t.held[v] = held
}

func (t *countingTracer) RoundEnd(r int, crashed []bool) (first, redundant int) {
	if t.inner == nil {
		return 0, 0
	}
	first, redundant = t.inner.RoundEnd(r, crashed)
	t.learned += int64(first)
	return first, redundant
}

func (t *countingTracer) Injected(r, v, tok int, seq int64) {
	if t.arr != nil {
		t.arr.Injected(r, v, tok, seq)
	}
}

func (t *countingTracer) Collected(r int, gc *bitset.Set) {
	if t.arr != nil {
		t.arr.Collected(r, gc)
	}
}

func (t *countingTracer) Maintenance(r int, ms sim.MaintenanceStats) {
	if t.maint != nil {
		t.maint.Maintenance(r, ms)
	}
}

// totals returns the messages heard and tokens learned over the run.
func (t *countingTracer) totals() (heard, learned int64) {
	learned = t.learned
	for _, sc := range t.shards {
		heard += sc.heard
		learned += sc.learned
	}
	return heard, learned
}

var (
	_ ctvg.Dynamic          = (*timedDynamic)(nil)
	_ ctvg.Stability        = (*timedDynamic)(nil)
	_ sim.Tracer            = (*countingTracer)(nil)
	_ sim.ArrivalTracer     = (*countingTracer)(nil)
	_ sim.MaintenanceTracer = (*countingTracer)(nil)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sinkWriter stands in for a sink's file: it keeps the stream's byte
// count, line count and CRC-32C instead of the bytes, so a run's output can
// be checked without holding it in memory or touching a disk. When timed
// it also sums the time spent in Write, the sink's I/O boundary.
type sinkWriter struct {
	bytes, lines int64
	crc          uint32
	timed        bool
	ns           int64
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	var t0 time.Time
	if w.timed {
		t0 = time.Now()
	}
	w.bytes += int64(len(p))
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	w.crc = crc32.Update(w.crc, castagnoli, p)
	if w.timed {
		w.ns += int64(time.Since(t0))
	}
	return len(p), nil
}

// digest is the stream fingerprint the output check compares.
type digest struct {
	Bytes int64  `json:"bytes"`
	Lines int64  `json:"lines"`
	CRC   uint32 `json:"crc32c"`
}

func (w *sinkWriter) digest() digest { return digest{w.bytes, w.lines, w.crc} }
