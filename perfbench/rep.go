package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// rep is one repetition's measurements. The workload marks the set-up/run
// boundary; the engine's barrier hook stamps every round.
type rep struct {
	seed   uint64
	traced bool

	start, runStart, runEnd time.Time
	cpuStart, cpuEnd        time.Duration
	allocBytes, allocs      uint64
	gcCycles                uint64
	gcCPU                   float64

	// Round wall times come from consecutive barrier stamps, the first
	// round counting from beginRun: rounds (ms) holds them for a single
	// run, and hist, when set, pools them for runs on a pool.
	rounds     []float64
	hist       *histogram
	last       time.Time
	barriers   int
	nodeRounds int64

	// heapEvery, when positive, makes every heapEvery-th barrier (the first
	// one included) collect the heap and read its live size into peakHeap.
	// Only the untimed warm-up sets it. Without a collection a reading is
	// whatever the last GC cycle marked, and in replay10k, whose run phase
	// may complete no cycle at all, that is a cycle of the set-up caught
	// mid-decode.
	heapEvery int
	peakHeap  uint64

	// mu guards the barrier state when replications run concurrently on a
	// pool (table3-grid).
	mu sync.Mutex

	layers map[string]float64
}

func newRep(seed uint64, traced bool) *rep {
	r := &rep{seed: seed, traced: traced}
	if traced {
		r.layers = map[string]float64{}
	}
	return r
}

func (r *rep) run(fn func(*rep) (any, error)) (any, error) {
	// Every repetition starts from a collected heap, as a fresh process
	// would: the previous repetition's garbage neither shifts this one's GC
	// cycles nor inflates its heap. The collection is not timed.
	runtime.GC()
	b0, o0 := allocStats()
	r.start = time.Now()
	out, err := fn(r)
	if err != nil {
		return nil, err
	}
	if r.runEnd.IsZero() {
		return nil, fmt.Errorf("workload never ended its run phase")
	}
	b1, o1 := allocStats()
	r.allocBytes, r.allocs = b1-b0, o1-o0
	if r.barriers == 0 {
		return nil, fmt.Errorf("the engine never reached a round barrier")
	}
	return out, nil
}

// beginRun marks round 0: set-up ends and the run phase starts.
func (r *rep) beginRun() {
	r.runStart = time.Now()
	r.last = r.runStart
	r.cpuStart = cpuTime()
	r.gcCycles, r.gcCPU = gcStats()
}

// endRun marks the end of the run phase, after every sink is closed.
func (r *rep) endRun() {
	r.runEnd = time.Now()
	r.cpuEnd = cpuTime()
	c, g := gcStats()
	r.gcCycles, r.gcCPU = c-r.gcCycles, g-r.gcCPU
}

// barrier is the sim.Options.Stop hook of a single run: the engine polls
// it once per round at the barrier.
func (r *rep) barrier(int) bool {
	d := r.stamp(time.Now())
	r.rounds = append(r.rounds, float64(d)/1e6)
	if r.heapEvery > 0 {
		r.probeHeap(r.barriers)
	}
	return false
}

// poolBarrier is the barrier hook of runs on a worker pool. Concurrent
// replications interleave, so a round's own duration is not observable at
// the barrier; the samples become the gaps between consecutive barriers
// anywhere on the pool.
func (r *rep) poolBarrier() bool {
	r.mu.Lock()
	d := r.stamp(time.Now())
	if r.hist != nil {
		r.hist.add(d)
	}
	n := r.barriers
	r.mu.Unlock()
	if r.heapEvery > 0 {
		r.probeHeap(n)
	}
	return false
}

// stamp counts a barrier and returns the time since the previous one.
func (r *rep) stamp(now time.Time) time.Duration {
	d := now.Sub(r.last)
	r.last = now
	r.barriers++
	return d
}

// probeHeap takes the peak-heap reading of the n-th barrier (1-based).
func (r *rep) probeHeap(n int) {
	if n%r.heapEvery != 1%r.heapEvery {
		return
	}
	// Holding mu parks the pool's other replications at their next barrier
	// while the collection runs, so it marks what is reachable and little of
	// what they would have allocated meanwhile.
	r.mu.Lock()
	r.peakHeap = max(r.peakHeap, liveAfterGC())
	r.mu.Unlock()
}

func (r *rep) setupSeconds() float64 { return r.runStart.Sub(r.start).Seconds() }
func (r *rep) runSeconds() float64   { return r.runEnd.Sub(r.runStart).Seconds() }
func (r *rep) cpuSeconds() float64   { return (r.cpuEnd - r.cpuStart).Seconds() }

func (r *rep) layer(name string, v float64) { r.layers[name] = v }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// stageLayers reports the engine's per-stage spans from a timing sink, for
// a run on the given number of shards.
func (r *rep) stageLayers(tm *obs.Timing, shards int) {
	wall := make([]int64, sim.NumStages)
	cpu := make([]int64, sim.NumStages)
	for st, br := range tm.Breakdown() {
		wall[st], cpu[st] = br.WallNs, br.CPUNs
	}
	r.stageTotals(wall, cpu, shards)
}

func (r *rep) stageTotals(wall, cpu []int64, shards int) {
	for st := sim.Stage(0); st < sim.NumStages; st++ {
		r.layer("sim."+st.String()+"_ms", ms(wall[st]))
	}
	c, d := sim.StageCollect, sim.StageDeliver
	r.layer("sim.collect_cpu_ms", ms(cpu[c]))
	r.layer("sim.deliver_cpu_ms", ms(cpu[d]))
	if fan := wall[c] + wall[d]; fan > 0 {
		r.layer("parallel.shard_efficiency", float64(cpu[c]+cpu[d])/float64(int64(shards)*fan))
	}
}

// protocolLayers reports the protocol layer's counts: how many of the
// messages heard taught their receiver a token.
func (r *rep) protocolLayers(met *sim.Metrics, ct *countingTracer) {
	heard, learned := ct.totals()
	r.layer("core.messages", float64(met.Messages))
	r.layer("core.heard", float64(heard))
	r.layer("core.learned", float64(learned))
	if heard > 0 {
		r.layer("core.useful_ratio", float64(learned)/float64(heard))
	}
}
