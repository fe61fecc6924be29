// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload as a closed loop, one repetition at a time,
// for a fixed measuring window, checks every repetition's simulated outputs
// and prints every metric by name with its unit. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload stream100k --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - stream100k: Algorithm 1 over the Theorem 1 budget on a streamed
//     100,000-node (20, 2)-HiNet, serial engine, no faults and no sinks.
//   - replay10k: Algorithm 2 with failover replaying a decoded 10,000-node
//     recording under loss, a head crash, arrivals and self-stabilizing
//     clustering, on two engine shards, with every sink attached.
//   - table3-grid: experiment.RunGrid over the paper's Table 3 point on a
//     two-worker pool.
//
// With --trace 0 the repetitions are scored: the last line of standard
// output is a JSON object carrying the end-to-end metrics, medians over the
// repetitions. With --trace 1 the invocation alternates untraced and traced
// repetitions and reports the per-layer metrics of the traced ones, measured
// by the decorators in layers.go, plus the tracing overhead.
//
// Every repetition starts from a collected heap. The first one of every
// process is a warm-up: its outputs are checked like any other, but its
// timings are dropped, so heap growth and first-use costs land outside the
// medians on every commit alike. In a scored invocation the warm-up also
// gives peak_heap_mb: it collects the heap at sampled round barriers and
// keeps the largest live size, which no timed repetition could afford.
//
// Round times come from the engine's once-per-round sim.Options.Stop poll
// and are pooled over the scored repetitions. Every repetition runs the
// same rounds on the same inputs, so each round's slowest third of
// repetitions is dropped before pooling: host interruptions leave the tail,
// rounds that are slow every time stay in it. On table3-grid, whose
// replications interleave on the pool, the samples are the gaps between
// consecutive barriers anywhere on the pool, pooled as they come.
//
// Every input is derived from --seed, except table3-grid's (see grid.go).
// At the default seed, and at every seed for table3-grid, the simulated
// outputs must match golden.json bit for bit; at any seed they must match
// the first repetition's and satisfy the workload's invariants. A
// repetition that errors or fails the check counts as failed.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// defaultSeed is the seed whose outputs golden.json pins.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenPath is where --pin rewrites the pinned outputs, relative to the
// repository root.
const goldenPath = "perfbench/golden.json"

// workDir, inside the checkout, holds the build and the files the program
// insists on writing during a repetition (postmortem bundles,
// per-replication timing files), each in a directory removed when the
// repetition ends.
const workDir = ".bench_build"

// A workload runs one repetition at a time.
type workload struct {
	// prepare builds, untimed, the inputs every repetition of the process
	// reads; nil when there are none.
	prepare func(seed uint64) error
	// rep runs one repetition: it builds the repetition's inputs, calls
	// r.beginRun at round 0 and r.endRun once every sink is flushed and
	// closed, and returns the simulated outputs the check compares.
	rep func(r *rep) (any, error)
	// seedless marks a workload whose inputs do not depend on the seed:
	// its pinned outputs are checked at every seed.
	seedless bool
	// heapEvery spaces the warm-up's peak-heap probe (see rep.heapEvery):
	// 8 probes per repetition where the live heap is large and each
	// collection slow, 512 where which replications are in flight decides
	// the heap.
	heapEvery int
}

var workloads = map[string]workload{
	"stream100k": {rep: streamRep, heapEvery: 520 / 8},
	"replay10k":  {prepare: replayPrepare, rep: replayRep, heapEvery: replayRounds / 8},
	// The grid's rows run 180, 126, 99 and 99 rounds per replication.
	"table3-grid": {rep: gridRep, seedless: true, heapEvery: (180 + 126 + 99 + 99) * gridSeeds / 512},
}

// metric is one reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd lists the scored metrics in report order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"node_rounds_per_s", "1/s"},
	{"cpu_s", "s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p99", "ms"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the traced run's metrics in report order. A workload that
// does not exercise a layer reports it as 0.
var perLayer = []metric{
	{"adversary.fetch_ms", "ms"},
	{"adversary.windows", "count"},
	{"adversary.phases", "count"},
	{"trace.decode_s", "s"},
	{"trace.heap_mb", "MB"},
	{"ctvg.fetch_ms", "ms"},
	{"sim.faults_ms", "ms"},
	{"sim.snapshot_ms", "ms"},
	{"sim.hierarchy_ms", "ms"},
	{"sim.collect_ms", "ms"},
	{"sim.observe_ms", "ms"},
	{"sim.deliver_ms", "ms"},
	{"sim.merge_ms", "ms"},
	{"sim.tracer_ms", "ms"},
	{"sim.progress_ms", "ms"},
	{"sim.recycle_ms", "ms"},
	{"sim.collect_cpu_ms", "ms"},
	{"sim.deliver_cpu_ms", "ms"},
	{"parallel.shard_efficiency", "ratio"},
	{"core.messages", "count"},
	{"core.heard", "count"},
	{"core.learned", "count"},
	{"core.useful_ratio", "ratio"},
	{"faults.drops", "count"},
	{"selfstab.beacons", "count"},
	{"selfstab.elections", "count"},
	{"sim.tokens_injected", "count"},
	{"sim.tokens_collected", "count"},
	{"obs.events_bytes", "B"},
	{"obs.events_write_ms", "ms"},
	{"obs.timing_bytes", "B"},
	{"obs.timing_write_ms", "ms"},
	{"provenance.bytes", "B"},
	{"provenance.write_ms", "ms"},
	{"provenance.flush_ms", "ms"},
	{"recorder.close_ms", "ms"},
	{"recorder.bundles", "count"},
	{"health.violations", "count"},
	{"experiment.replications", "count"},
	{"experiment.engine_ms", "ms"},
	{"experiment.outside_ms", "ms"},
	{"parallel.pool_utilization", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"bench.tracing_overhead", "ratio"},
}

// minRoundSamples is the pooled round count a scored invocation collects
// at least, so that round_ms_p99 has minTailSamples samples beyond it.
const minRoundSamples = 100 * minTailSamples

// minReps is the fewest measured repetitions (or traced pairs) an
// invocation makes, however long they take.
const minReps = 3

func main() {
	name := flag.String("workload", "", "workload to run: stream100k, replay10k or table3-grid")
	seed := flag.Int64("seed", defaultSeed, "seed every input is derived from")
	seconds := flag.Float64("seconds", 30, "length of the measuring window in seconds")
	trace := flag.Int("trace", 0, "1 alternates untraced and traced repetitions and reports the per-layer metrics")
	pin := flag.Bool("pin", false, "run one repetition at the default seed and rewrite its entry in "+goldenPath)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload stream100k|replay10k|table3-grid [--seed N] [--seconds S] [--trace 0|1] [--pin]")
		os.Exit(2)
	}
	if *pin && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: --pin applies to the default seed %d only\n", defaultSeed)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Two CPUs: the engine's shard count and the grid's pool size are 2, and
	// a fixed value keeps runs comparable across hosts.
	runtime.GOMAXPROCS(2)
	b := &bench{name: *name, w: w, seed: uint64(*seed), traced: *trace == 1}
	code := b.main(time.Duration(*seconds*float64(time.Second)), *pin)
	os.Exit(code)
}

type bench struct {
	name   string
	w      workload
	seed   uint64
	traced bool

	pinned []byte // golden outputs, at the default seed only
	first  []byte // the first repetition's outputs

	attempted, failed int
	warm              *rep
	scored            []*rep     // successful untraced repetitions after the warm-up
	traces            []*rep     // successful traced repetitions
	poolRounds        *histogram // pool barrier gaps of the scored repetitions
}

func (b *bench) main(window time.Duration, pin bool) int {
	steal0, wall0 := stealTicks(), time.Now()
	if b.w.prepare != nil {
		if err := b.w.prepare(b.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: preparing inputs: %v\n", b.name, err)
			return 1
		}
	}
	if pin {
		return b.pin()
	}
	if b.seed == defaultSeed || b.w.seedless {
		var golden map[string]json.RawMessage
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: golden.json:", err)
			return 1
		}
		if g, ok := golden[b.name]; ok {
			var err error
			if b.pinned, err = canonical(g); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: golden.json:", err)
				return 1
			}
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: golden.json pins nothing for %s\n", b.name)
			return 1
		}
	}

	b.poolRounds = newHistogram()
	b.warm = b.do(warmUp)
	start := time.Now()
	deadline := start.Add(window)
	// A step is one repetition, or one untraced and traced pair. Steps
	// start while the next one is expected to end inside the window; a
	// scored invocation goes on past it, up to twice its length, until the
	// pooled rounds can carry a p99.
	var spent []time.Duration
	for step := 0; ; step++ {
		if step >= minReps {
			next := time.Now().Add(medianDuration(spent))
			n, _, _, _ := b.roundStats()
			short := !b.traced && n < minRoundSamples
			if next.After(deadline) && !(short && next.Before(deadline.Add(window))) {
				break
			}
		}
		t0 := time.Now()
		if r := b.do(scored); r != nil {
			b.scored = append(b.scored, r)
		}
		if b.traced {
			if r := b.do(traced); r != nil {
				b.traces = append(b.traces, r)
			}
		}
		spent = append(spent, time.Since(t0))
	}
	measured := time.Since(start)
	steal := stealTicks() - steal0
	b.report(measured, time.Since(wall0), steal)
	return 0
}

// repKind says what a repetition is for.
type repKind int

const (
	// warmUp repetitions are checked but untimed; in a scored invocation
	// the warm-up probes the live heap (see rep.heapEvery).
	warmUp repKind = iota
	// scored repetitions give the end-to-end metrics; in a traced
	// invocation they are the untraced baseline of the tracing overhead.
	scored
	// traced repetitions run with the layer decorators attached.
	traced
)

// do runs one repetition and checks its outputs; it returns nil when the
// repetition failed.
func (b *bench) do(kind repKind) *rep {
	b.attempted++
	r := newRep(b.seed, kind == traced)
	switch {
	case kind == warmUp && !b.traced:
		r.heapEvery = b.w.heapEvery
	case kind == scored && !b.traced:
		r.hist = b.poolRounds
	}
	out, err := r.run(b.w.rep)
	if err == nil {
		err = b.check(out)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: repetition %d failed: %v\n", b.name, b.attempted, err)
		return nil
	}
	return r
}

// check compares a repetition's outputs with the pinned ones and with the
// first repetition's.
func (b *bench) check(out any) error {
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	got, err := canonical(raw)
	if err != nil {
		return err
	}
	if b.pinned != nil && !bytes.Equal(got, b.pinned) {
		return fmt.Errorf("outputs differ from %s:\n got %s\nwant %s", goldenPath, got, b.pinned)
	}
	if b.first == nil {
		b.first = got
	} else if !bytes.Equal(got, b.first) {
		return fmt.Errorf("outputs differ from the first repetition's:\n got %s\nwant %s", got, b.first)
	}
	return nil
}

// pin runs one repetition and writes its outputs into golden.json.
func (b *bench) pin() int {
	r := newRep(b.seed, false)
	out, err := r.run(b.w.rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
		return 1
	}
	// Read the file, not the embedded copy: an earlier --pin in the same
	// build may have rewritten it.
	buf, err := os.ReadFile(goldenPath)
	golden := map[string]json.RawMessage{}
	if err == nil {
		err = json.Unmarshal(buf, &golden)
	}
	if err == nil {
		golden[b.name], err = json.Marshal(out)
	}
	if err == nil {
		buf, err = json.MarshalIndent(golden, "", "  ")
	}
	if err == nil {
		err = os.WriteFile(goldenPath, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pinning outputs:", err)
		return 1
	}
	fmt.Printf("pinned %s outputs at seed %d in %s\n", b.name, b.seed, goldenPath)
	return 0
}

// canonical re-encodes a JSON document with sorted object keys and its
// numbers exactly as written, so equal outputs compare byte-equal however
// they were produced.
func canonical(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// roundStats pools the scored repetitions' round times and returns the
// sample count, p50, p99 and how many samples lie beyond p99. Runs on a pool
// are pooled raw in a histogram; single runs are trimmed per round (see
// trimmedPool).
func (b *bench) roundStats() (n int, p50, p99 float64, beyond int) {
	if b.poolRounds.n > 0 {
		p50, _ = b.poolRounds.percentile(0.50)
		p99, beyond = b.poolRounds.percentile(0.99)
		return b.poolRounds.n, p50, p99, beyond
	}
	runs := make([][]float64, len(b.scored))
	for i, r := range b.scored {
		runs[i] = r.rounds
	}
	pool := trimmedPool(runs)
	p50, _ = percentile(pool, 0.50)
	p99, beyond = percentile(pool, 0.99)
	return len(pool), p50, p99, beyond
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// report prints the per-repetition values, the medians with their sample
// counts, and the JSON result line.
func (b *bench) report(measured, wall time.Duration, steal int64) {
	fmt.Printf("workload %s  seed %d  trace %v  GOMAXPROCS %d  %s\n",
		b.name, b.seed, b.traced, runtime.GOMAXPROCS(0), runtime.Version())
	show := func(tag string, r *rep) {
		fmt.Printf("  %-9s setup %.4f s  run %.4f s  cpu %.3f s  %.4g node-rounds/s  rounds %d  alloc %.1f MB  allocs %d  gc %d\n",
			tag, r.setupSeconds(), r.runSeconds(), r.cpuSeconds(),
			float64(r.nodeRounds)/r.runSeconds(), r.barriers,
			float64(r.allocBytes)/1e6, r.allocs, r.gcCycles)
	}
	if b.warm != nil {
		show("warm-up", b.warm)
	}
	for i, r := range b.scored {
		show(fmt.Sprintf("rep %d", i+1), r)
	}
	for i, r := range b.traces {
		show(fmt.Sprintf("traced %d", i+1), r)
	}
	failRatio := float64(b.failed) / float64(b.attempted)
	fmt.Printf("  fail_ratio %.4g (%d of %d repetitions, warm-up included)\n", failRatio, b.failed, b.attempted)
	stealNote := "unavailable"
	if steal >= 0 {
		s := float64(steal) / clockTicks
		stealNote = fmt.Sprintf("%.2f s over %.1f s wall (%.1f%% of %d CPUs)", s, wall.Seconds(),
			100*s/(wall.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
	}
	fmt.Printf("  host steal time %s; measuring window %.1f s\n", stealNote, measured.Seconds())

	var metrics []metric
	var values map[string]float64
	if b.traced {
		metrics, values = perLayer, b.layerMedians()
	} else {
		metrics, values = endToEnd, b.endToEndMedians()
	}
	out := map[string]any{}
	correct := b.failed == 0
	for _, m := range metrics {
		// A metric with no sample (every repetition failed, or too few
		// rounds for a p99) reads 0 and fails the invocation.
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			v = 0
		}
		fmt.Printf("  %-26s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": b.attempted, "failed": b.failed, "metrics": out,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

func (b *bench) endToEndMedians() map[string]float64 {
	col := func(f func(r *rep) float64) float64 {
		xs := make([]float64, len(b.scored))
		for i, r := range b.scored {
			xs[i] = f(r)
		}
		return median(xs)
	}
	n, p50, p99, beyond := b.roundStats()
	what := "round times pooled after dropping each round's slowest third of repetitions"
	if b.poolRounds.n > 0 {
		what = "gaps between pool barriers pooled"
	}
	fmt.Printf("  %d scored repetitions; %d %s: p50 %.4g ms, p99 %.4g ms (%d beyond)\n",
		len(b.scored), n, what, p50, p99, beyond)
	peakHeap := math.NaN()
	if b.warm != nil {
		peakHeap = float64(b.warm.peakHeap) / 1e6
		fmt.Printf("  peak live heap %.2f MB over %d collected barriers of the warm-up\n",
			peakHeap, (b.warm.barriers+b.warm.heapEvery-1)/b.warm.heapEvery)
	}
	if beyond < minTailSamples {
		p99 = math.NaN()
	}
	return map[string]float64{
		"setup_s":           col(func(r *rep) float64 { return r.setupSeconds() }),
		"node_rounds_per_s": col(func(r *rep) float64 { return float64(r.nodeRounds) / r.runSeconds() }),
		"cpu_s":             col(func(r *rep) float64 { return r.cpuSeconds() }),
		"round_ms_p50":      p50,
		"round_ms_p99":      p99,
		"alloc_mb":          col(func(r *rep) float64 { return float64(r.allocBytes) / 1e6 }),
		"allocs":            col(func(r *rep) float64 { return float64(r.allocs) }),
		"peak_heap_mb":      peakHeap,
	}
}

// layerMedians takes each per-layer metric's median over the traced
// repetitions, and the tracing overhead from the run phases of the traced
// and the untraced ones.
func (b *bench) layerMedians() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		xs := make([]float64, 0, len(b.traces))
		for _, r := range b.traces {
			xs = append(xs, r.layers[m.name])
		}
		out[m.name] = median(xs)
	}
	runs := func(reps []*rep) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r.runSeconds()
		}
		return median(xs)
	}
	out["bench.tracing_overhead"] = runs(b.traces)/runs(b.scored) - 1
	var gcCycles, gcCPU []float64
	for _, r := range b.traces {
		gcCycles = append(gcCycles, float64(r.gcCycles))
		gcCPU = append(gcCPU, r.gcCPU)
	}
	out["runtime.gc_cycles"] = median(gcCycles)
	out["runtime.gc_cpu_s"] = median(gcCPU)
	return out
}

// scratchDir makes a fresh directory under workDir for files the program
// writes during one repetition; the caller removes it.
func scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(workDir, "perfbench-"+prefix+"-")
}

// mix derives the i-th independent seed from the benchmark seed
// (SplitMix64 finaliser).
func mix(seed, i uint64) uint64 {
	z := seed + i*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
