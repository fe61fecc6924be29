// Package repro's root benchmark suite maps one benchmark to every table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). Run with:
//
//	go test -bench=. -benchmem .
//
// Output values beyond ns/op are reported via b.ReportMetric: analytic and
// simulated communication costs, so the paper's numbers appear directly in
// benchmark output.
package repro

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/graph"
	hinetmodel "repro/internal/hinet"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// BenchmarkTable2 evaluates the closed-form Table 2 model at the Table 3
// point and reports the headline cells as metrics.
func BenchmarkTable2(b *testing.B) {
	var rows []analysis.Row
	for i := 0; i < b.N; i++ {
		rows = analysis.Table3()
	}
	b.ReportMetric(float64(rows[0].Cost.Comm), "kloT-comm")
	b.ReportMetric(float64(rows[1].Cost.Comm), "alg1-comm")
	b.ReportMetric(float64(rows[2].Cost.Comm), "klo1-comm")
	b.ReportMetric(float64(rows[3].Cost.Comm), "alg2-comm")
}

// BenchmarkTable3 runs the full simulated Table 3 point (all four rows,
// one seed each per iteration) and reports measured communication.
func BenchmarkTable3(b *testing.B) {
	var rows []experiment.RowResult
	for i := 0; i < b.N; i++ {
		cfg := experiment.Table3Config(1)
		var err error
		rows, err = experiment.RunPoint(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeasuredComm, "kloT-sim-comm")
	b.ReportMetric(rows[1].MeasuredComm, "alg1-sim-comm")
	b.ReportMetric(rows[2].MeasuredComm, "klo1-sim-comm")
	b.ReportMetric(rows[3].MeasuredComm, "alg2-sim-comm")
}

// BenchmarkFig1 regenerates the Fig. 1 artefact: clustering a connected
// network into the head/member/gateway hierarchy.
func BenchmarkFig1(b *testing.B) {
	g := graph.RandomConnected(100, 220, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := cluster.Form(g, cluster.Config{})
		if len(h.Heads()) == 0 {
			b.Fatal("no heads")
		}
	}
}

// BenchmarkFig2 exercises the Definition 2-8 predicate tree (the Fig. 2
// relationships) over a generated HiNet window. The adversary generates
// each round once, so the checker reads a recording of the phase.
func BenchmarkFig2(b *testing.B) {
	tr := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2, T: 18, Reaffiliations: 3, ChurnEdges: 10,
	}, xrand.New(1)), 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (hinetmodel.Model{T: 18, L: 2}).CheckWindow(tr, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 runs the Fig. 3 walkthrough: one token crossing two
// clusters via a gateway under Algorithm 1.
func BenchmarkFig3(b *testing.B) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	h := ctvg.NewHierarchy(5)
	h.SetHead(0)
	h.SetHead(3)
	h.SetMember(1, 0)
	h.SetGateway(2, 0)
	h.SetMember(4, 3)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(5, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met := sim.MustRunProtocol(d, core.Alg1{T: 8}, assign, sim.Options{
			MaxRounds: 8, StopWhenComplete: true,
		})
		if !met.Complete {
			b.Fatal("walkthrough incomplete")
		}
	}
}

// hiNet1kDynamic records the fixed-seed 1000-node HiNet instance used by
// the hot-path benchmarks: θ=50 heads, L=2 backbone, T=k+αL=20-round
// phases, 20 member re-affiliations per phase boundary, no per-round edge
// churn — so every phase is a genuine T-interval stable window. It sets
// HeadChurn: 2, but every node of the θ pool serves as a head (Heads
// defaults to Theta), so no head ever rotates. Recording the trace up front keeps adversary
// generation out of the measured loop; what remains is the engine's round
// hot path and the recording's window builds as the run reaches them.
func hiNet1kDynamic(tb testing.TB) (ctvg.Dynamic, *token.Assignment, int, int) {
	tb.Helper()
	const (
		n     = 1000
		k     = 16
		alpha = 2
		l     = 2
		theta = 50
	)
	T := core.Theorem1T(k, alpha, l) // 20
	rounds := core.Theorem1Phases(theta, alpha) * T
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: theta, L: l, T: T,
		Reaffiliations: 20, HeadChurn: 2,
	}, xrand.New(1))
	tr := ctvg.Record(adv, rounds)
	assign := token.Spread(n, k, xrand.New(2))
	return tr, assign, T, rounds
}

// uncachedDynamic hides any stability knowledge of the wrapped dynamic, so
// the engine refreshes graph, hierarchy and views every round.
type uncachedDynamic struct{ ctvg.Dynamic }

func benchHiNet1k(b *testing.B, cached bool) {
	d, assign, T, rounds := hiNet1kDynamic(b)
	if !cached {
		d = uncachedDynamic{d}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met := sim.MustRunProtocol(d, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds: rounds, SizeFn: wire.Size,
		})
		if !met.Complete {
			b.Fatalf("1k-node HiNet run incomplete: %v", met)
		}
	}
}

// BenchmarkHiNet1k is the headline engine benchmark: Algorithm 1 over the
// full Theorem-1 budget on a 1000-node recorded (20, 2)-HiNet, byte
// accounting on. BENCH_PR2.json tracks its allocs/op and ns/op trajectory.
func BenchmarkHiNet1k(b *testing.B) { benchHiNet1k(b, true) }

// BenchmarkHiNet1kUncached runs the identical instance with stability
// knowledge hidden, isolating what the stability-window cache buys.
func BenchmarkHiNet1kUncached(b *testing.B) { benchHiNet1k(b, false) }

// BenchmarkHiNet1kTraced is the tracing-on counterpart of
// BenchmarkHiNet1k: the same workload with a provenance tracer attached
// and its JSONL stream serialised (to io.Discard, so disk speed stays out
// of the measurement). BENCH_PR4.json records the delta against the
// tracing-off numbers; BenchmarkHiNet1k itself must stay at the
// BENCH_PR2.json baseline since a nil tracer takes none of these paths.
func BenchmarkHiNet1kTraced(b *testing.B) {
	d, assign, T, rounds := hiNet1kDynamic(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := provenance.New(provenance.Config{Sink: io.Discard})
		met := sim.MustRunProtocol(d, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds: rounds, SizeFn: wire.Size, Tracer: tr,
		})
		if !met.Complete {
			b.Fatalf("1k-node HiNet traced run incomplete: %v", met)
		}
		if err := tr.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHiNet1kTimed is the self-profiling-on counterpart of
// BenchmarkHiNet1k: the same workload with a timing sink attached (JSONL to
// io.Discard, resource samples every 32 rounds) and the per-stage wall
// totals reported as <stage>-ns/op metrics — the numbers BENCH_PR6.json
// records as stage ceilings and benchdiff enforces. BenchmarkHiNet1k itself
// must stay at the BENCH_PR2.json baseline since a nil sink takes none of
// these paths (TestTimingOffAllocParity pins that).
func BenchmarkHiNet1kTimed(b *testing.B) {
	d, assign, T, rounds := hiNet1kDynamic(b)
	var wall [sim.NumStages]int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := obs.NewTiming(obs.TimingConfig{Sink: io.Discard})
		met := sim.MustRunProtocol(d, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds: rounds, SizeFn: wire.Size, Timing: tm,
		})
		if !met.Complete {
			b.Fatalf("1k-node HiNet timed run incomplete: %v", met)
		}
		if err := tm.Flush(); err != nil {
			b.Fatal(err)
		}
		for st, br := range tm.Breakdown() {
			wall[st] += br.WallNs
		}
	}
	b.StopTimer()
	for st := sim.Stage(0); st < sim.NumStages; st++ {
		b.ReportMetric(float64(wall[st])/float64(b.N), st.String()+"-ns/op")
	}
}

// BenchmarkHiNet1kArrivals is the steady-state counterpart of
// BenchmarkHiNet1k: the same 1000-node workload with a Poisson arrival
// process injecting 0.5 tokens/round over the first half of the budget and
// garbage collection reclaiming slots throughout. BENCH_PR7.json records
// its ceilings; plain BenchmarkHiNet1k must stay at the BENCH_PR2.json
// baseline since a nil Arrivals takes none of these paths.
func BenchmarkHiNet1kArrivals(b *testing.B) {
	d, assign, T, rounds := hiNet1kDynamic(b)
	var collected, peak int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr := sim.Arrivals{Rate: 0.5, Seed: 3, Stop: rounds / 2}
		met := sim.MustRunProtocol(d, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds: rounds, SizeFn: wire.Size, Arrivals: &arr,
		})
		if met.TokensInjected == 0 || met.TokensCollected == 0 {
			b.Fatalf("arrival run moved no tokens: %v", met)
		}
		collected += met.TokensCollected
		if p := int64(met.PeakOutstanding); p > peak {
			peak = p
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(collected)/float64(b.N), "tokens-collected")
	b.ReportMetric(float64(peak), "peak-queue")
}

// BenchmarkHiNet1kRecorded is the flight-recorder-on counterpart of
// BenchmarkHiNet1k: the same workload with the full black box attached — a
// 512-round event ring, the online health engine evaluating the Theorem 1
// pace and stall rules, and the event stream serialised (to io.Discard, so
// disk speed stays out of the measurement). BENCH_PR9.json records the
// delta against the recorder-off numbers; BenchmarkHiNet1k itself must stay
// at the BENCH_PR2.json baseline since a disabled recorder is one nil
// pointer (TestTimingOffAllocParity pins that).
func BenchmarkHiNet1kRecorded(b *testing.B) {
	d, assign, T, rounds := hiNet1kDynamic(b)
	rules, err := health.ParseRules("pace,stall>=50")
	if err != nil {
		b.Fatal(err)
	}
	var violations int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := recorder.New(recorder.Config{
			Obs: obs.Config{
				N: 1000, K: 16, PhaseLen: T,
				Sink: io.Discard, SizeFn: wire.Size,
			},
			Rules: rules, Alpha: 2,
		})
		met := sim.MustRunProtocol(d, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds: rounds, SizeFn: wire.Size, Observer: rec.Observer(),
		})
		if !met.Complete {
			b.Fatalf("1k-node HiNet recorded run incomplete: %v", met)
		}
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		if h := rec.Health(); h != nil {
			violations = h.Violations()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(violations), "slo-violations")
}

// BenchmarkHiNet10kRecorded is the 10k-scale recorder-on workload: like
// BenchmarkHiNet10k (adversary generation and trace recording inside the
// measured loop) with the flight recorder and health engine attached.
func BenchmarkHiNet10kRecorded(b *testing.B) {
	const (
		n     = 10000
		k     = 16
		alpha = 2
		l     = 2
		theta = 50
	)
	T := core.Theorem1T(k, alpha, l)
	rounds := core.Theorem1Phases(theta, alpha) * T
	rules, err := health.ParseRules("pace,stall>=50")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: l, T: T,
			Reaffiliations: 200, HeadChurn: 2,
		}, xrand.New(1))
		tr := ctvg.Record(adv, rounds)
		assign := token.Spread(n, k, xrand.New(2))
		rec := recorder.New(recorder.Config{
			Obs: obs.Config{
				N: n, K: k, PhaseLen: T,
				Sink: io.Discard, SizeFn: wire.Size,
			},
			Rules: rules, Alpha: alpha,
		})
		met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds: rounds, SizeFn: wire.Size, Observer: rec.Observer(),
		})
		if !met.Complete {
			b.Fatalf("10k recorded run incomplete: %v", met)
		}
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// hiNet1kAllocBudget is the timing-off allocation budget of the 1k hot-path
// benchmark: exactly BenchmarkHiNet1k's allocs/op. Growing it means the
// timing layer (or anything else) leaked allocations into the disabled
// path.
const hiNet1kAllocBudget = 393

// TestTimingOffAllocParity pins the zero-cost contract of Options.Timing:
// the exact BenchmarkHiNet1k workload, timing off, must stay within
// hiNet1kAllocBudget. The timing state hangs off one pointer allocated
// only when a sink is attached, so this holds to the allocation.
func TestTimingOffAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 1k runs")
	}
	d, assign, T, rounds := hiNet1kDynamic(t)
	// A garbage collection charges the run it lands in a few runtime
	// allocations (the process's first one starts a mark worker per P),
	// never fewer, so the check keeps the least count over three runs.
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		least = min(least, testing.AllocsPerRun(1, func() {
			met := sim.MustRunProtocol(d, core.Alg1{T: T}, assign, sim.Options{
				MaxRounds: rounds, SizeFn: wire.Size,
			})
			if !met.Complete {
				t.Fatalf("1k-node HiNet run incomplete: %v", met)
			}
		}))
	}
	if least > hiNet1kAllocBudget {
		t.Fatalf("timing-off 1k run allocates %.0f times, budget %d: the disabled path is no longer free",
			least, hiNet1kAllocBudget)
	}
}

// benchHiNet10k is the order-of-magnitude scaling workload: the full
// pipeline — adversary generation, trace recording, run — on a 10000-node
// (20, 2)-HiNet with θ=50 heads and 200 re-affiliations per phase boundary.
// Unlike the 1k family, recording stays inside the measured loop: at this
// scale building each window's graph is a cost of its own, paid once by
// the recorder and again by the replay's cursor, so the benchmark must
// see it. Alg1 runs the full Theorem-1 budget; Alg2 (whose
// full-set broadcasts dominate) runs to completion, at several k so the
// payload width's cost shows (see BENCH_PR5.json).
func benchHiNet10k(b *testing.B, k int, alg2 bool) {
	const (
		n     = 10000
		alpha = 2
		l     = 2
		theta = 50
	)
	T := core.Theorem1T(16, alpha, l) // 20-round phases regardless of k
	rounds := core.Theorem1Phases(theta, alpha) * T
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: l, T: T,
			Reaffiliations: 200, HeadChurn: 2,
		}, xrand.New(1))
		tr := ctvg.Record(adv, rounds)
		assign := token.Spread(n, k, xrand.New(2))
		var met *sim.Metrics
		if alg2 {
			met = sim.MustRunProtocol(tr, core.Alg2{}, assign, sim.Options{
				MaxRounds: 400, StopWhenComplete: true, SizeFn: wire.Size,
			})
		} else {
			met = sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
				MaxRounds: rounds, SizeFn: wire.Size,
			})
		}
		if !met.Complete {
			b.Fatalf("10k run incomplete: %v", met)
		}
	}
}

// BenchmarkHiNet10k is the scaling headline: Algorithm 1 at 10× the 1k
// instance. BENCH_PR5.json tracks it against the pre-CSR engine.
func BenchmarkHiNet10k(b *testing.B) { benchHiNet10k(b, 16, false) }

// BenchmarkHiNet10kLossy guards delivery's per-sender Drop path
// (sim.StageDeliver) on lossy runs without self-stabilization: Alg1 over
// the Theorem-1 budget and Alg2 to completion, both with failover, on
// BenchmarkHiNet10k's instance under 2% i.i.d. loss, with and without a
// Gilbert–Elliott burst channel. The trace is recorded once, outside the
// measured loop, so what is timed is the engine's run and the recording's
// window builds.
func BenchmarkHiNet10kLossy(b *testing.B) {
	const (
		n     = 10000
		k     = 16
		alpha = 2
		l     = 2
		theta = 50
	)
	T := core.Theorem1T(k, alpha, l)
	rounds := core.Theorem1Phases(theta, alpha) * T
	tr := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: theta, L: l, T: T,
		Reaffiliations: 200, HeadChurn: 2,
	}, xrand.New(1)), rounds)
	assign := token.Spread(n, k, xrand.New(2))
	for _, alg := range []struct {
		name  string
		proto sim.Protocol
		opts  sim.Options
	}{
		{"alg1", core.Alg1{T: T, Failover: &core.Failover{Window: 3}}, sim.Options{MaxRounds: rounds}},
		{"alg2", core.Alg2{Failover: &core.Failover{Window: 3}}, sim.Options{MaxRounds: 400, StopWhenComplete: true}},
	} {
		for _, ch := range []struct {
			name  string
			burst *faults.GilbertElliott
		}{
			{"iid", nil},
			{"burst", &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.25, DropBad: 0.8}},
		} {
			b.Run(alg.name+"-"+ch.name, func(b *testing.B) {
				opts := alg.opts
				opts.SizeFn = wire.Size
				opts.Faults = &sim.Faults{Seed: 3, DropProb: 0.02, Burst: ch.burst}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					met := sim.MustRunProtocol(tr, alg.proto, assign, opts)
					if met.Drops == 0 {
						b.Fatalf("lossy 10k run dropped nothing: %v", met)
					}
				}
			})
		}
	}
}

// BenchmarkHiNet10kAlg2 runs Algorithm 2 to completion on the same
// instance: the full-set-broadcast workload.
func BenchmarkHiNet10kAlg2(b *testing.B) { benchHiNet10k(b, 16, true) }

// BenchmarkHiNet10kAlg2K256 is the k-scaling variant (k=256 tokens, 4
// bitset words per payload) of the Alg2 workload.
func BenchmarkHiNet10kAlg2K256(b *testing.B) { benchHiNet10k(b, 256, true) }

// BenchmarkHiNet10kAlg2K4096 is the wide-payload variant: every union is a
// 64-word scan.
func BenchmarkHiNet10kAlg2K4096(b *testing.B) { benchHiNet10k(b, 4096, true) }

// benchHiNetStream runs the delta-streamed pipeline end to end at scale:
// the engine pulls rounds straight from a HiNet adversary, so phases
// materialise as the run advances and everything behind the working window
// is discarded. No snapshot list is ever built — retained memory is
// O(n + window), independent of how many rounds run, which the live-MB
// metric (live heap after the run, adversary still referenced) makes
// visible next to ns/op. workers is sim.Options.Workers: 0 lets the engine
// choose the shard count.
func benchHiNetStream(b *testing.B, n, k, rounds, workers int, alg2 bool) {
	const (
		alpha = 2
		l     = 2
		theta = 50
	)
	T := core.Theorem1T(16, alpha, l) // 20-round phases, as in the 10k family
	reaff := n / 50
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: l, T: T,
			Reaffiliations: reaff, HeadChurn: 2,
		}, xrand.New(1))
		assign := token.Spread(n, k, xrand.New(2))
		var met *sim.Metrics
		if alg2 {
			met = sim.MustRunProtocol(adv, core.Alg2{}, assign, sim.Options{
				MaxRounds: rounds, StopWhenComplete: true, SizeFn: wire.Size, Workers: workers,
			})
		} else {
			met = sim.MustRunProtocol(adv, core.Alg1{T: T}, assign, sim.Options{
				MaxRounds: rounds, SizeFn: wire.Size, Workers: workers,
			})
		}
		if !met.Complete {
			b.Fatalf("streamed run incomplete: %v", met)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Without this the adversary is dead before the collection above,
		// and live-MB measures nothing but the test harness.
		runtime.KeepAlive(adv)
		b.ReportMetric(float64(ms.HeapAlloc)/1e6, "live-MB")
	}
}

// BenchmarkHiNet100k is the tentpole scale point: Algorithm 1 on a
// 100k-node (20, 2)-HiNet over the full Theorem 1 budget (26 phases x 20
// rounds), streamed via deltas. ns/op should sit roughly 10x the
// BenchmarkHiNet10k reference (time linear in n); live-MB should match
// BenchmarkHiNet100kLongTrace (memory independent of trace length).
func BenchmarkHiNet100k(b *testing.B) {
	T := core.Theorem1T(16, 2, 2)
	rounds := core.Theorem1Phases(50, 2) * T
	benchHiNetStream(b, 100_000, 16, rounds, 0, false)
}

// BenchmarkHiNet100kLongTrace doubles the round budget at the same point:
// ns/op roughly doubles, live-MB must stay flat — the O(changes)-storage
// claim in one A/B pair.
func BenchmarkHiNet100kLongTrace(b *testing.B) {
	T := core.Theorem1T(16, 2, 2)
	rounds := 2 * core.Theorem1Phases(50, 2) * T
	benchHiNetStream(b, 100_000, 16, rounds, 0, false)
}

// BenchmarkHiNet100kAlg2 runs Algorithm 2 to completion at 100k: per-round
// communication is Θ(n) relays regardless of n's flat neighborhoods, so
// completion cost scales like n · completion-rounds.
func BenchmarkHiNet100kAlg2(b *testing.B) {
	benchHiNetStream(b, 100_000, 16, 400, 0, true)
}

// BenchmarkHiNet10kStream is the same streamed pipeline at 10k — the base
// point of the 10k -> 100k linearity comparison, on the identical path.
func BenchmarkHiNet10kStream(b *testing.B) {
	T := core.Theorem1T(16, 2, 2)
	rounds := core.Theorem1Phases(50, 2) * T
	benchHiNetStream(b, 10_000, 16, rounds, 0, false)
}

// BenchmarkShardCrossover measures where within-run shards start to pay,
// the crossover behind the engine's default shard count (minShardNodes in
// internal/sim): BenchmarkHiNet100k's Alg1 instance at four sizes, serial
// and on two shards. Re-measure it with
//
//	go test -run '^$' -bench ShardCrossover -benchmem -count 2 -cpu 2 .
func BenchmarkShardCrossover(b *testing.B) {
	T := core.Theorem1T(16, 2, 2)
	rounds := core.Theorem1Phases(50, 2) * T
	for _, n := range []int{1_000, 4_000, 16_000, 100_000} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				benchHiNetStream(b, n, 16, rounds, workers, false)
			})
		}
	}
}

// BenchmarkHiNet10kTimed is the timing-on variant of BenchmarkHiNet10k —
// the scale where per-stage attribution starts to matter (snapshot
// construction and delivery dominate differently than at 1k). Per-stage
// wall totals are reported as <stage>-ns/op; note the measured loop
// includes adversary generation and trace recording, which the engine's
// stages do not cover, so the stage metrics sum below ns/op.
func BenchmarkHiNet10kTimed(b *testing.B) {
	const (
		n     = 10000
		k     = 16
		alpha = 2
		l     = 2
		theta = 50
	)
	T := core.Theorem1T(k, alpha, l)
	rounds := core.Theorem1Phases(theta, alpha) * T
	var wall [sim.NumStages]int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: l, T: T,
			Reaffiliations: 200, HeadChurn: 2,
		}, xrand.New(1))
		tr := ctvg.Record(adv, rounds)
		assign := token.Spread(n, k, xrand.New(2))
		tm := obs.NewTiming(obs.TimingConfig{Sink: io.Discard})
		met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds: rounds, SizeFn: wire.Size, Timing: tm,
		})
		if !met.Complete {
			b.Fatalf("10k timed run incomplete: %v", met)
		}
		if err := tm.Flush(); err != nil {
			b.Fatal(err)
		}
		for st, br := range tm.Breakdown() {
			wall[st] += br.WallNs
		}
	}
	b.StopTimer()
	for st := sim.Stage(0); st < sim.NumStages; st++ {
		b.ReportMetric(float64(wall[st])/float64(b.N), st.String()+"-ns/op")
	}
}

// BenchmarkSweepN0 measures one non-headline sweep point (n0=40) per
// iteration; the full sweep is produced by `hinetbench -sweep n0`.
func BenchmarkSweepN0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SweepN0([]int{40}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepK measures the k=4 sweep point per iteration.
func BenchmarkSweepK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SweepK([]int{4}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepNR measures the nr=5 sweep point per iteration.
func BenchmarkSweepNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SweepNR([]int{5}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchmarkHarnessSanity keeps the benchmark inputs honest under plain
// `go test`: the Table 3 simulation completes on every row.
func TestBenchmarkHarnessSanity(t *testing.T) {
	rows, err := experiment.RunPoint(experiment.Table3Config(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Completed != r.Seeds {
			t.Fatalf("%s incomplete in harness", r.Model)
		}
	}
}
