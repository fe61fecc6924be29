package sim_test

// Engine-level tests for steady-state arrival mode: configuration
// validation, the Injector/Collectible contract, drain-and-GC accounting,
// bounded slot reuse, burst/hotspot shaping, deterministic replay,
// serial-vs-parallel equivalence, and the two progress-accounting
// regressions this mode exposed (the quiet-gap stall false positive and the
// hardcoded n·k stall total). It lives in sim_test because it drives the
// real protocols from internal/baseline and internal/core.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// staticDyn wraps a single snapshot as a (repeating) clustered dynamic.
func staticDyn(g *graph.Graph, h *ctvg.Hierarchy) ctvg.Dynamic {
	if h == nil {
		return sim.NewFlat(tvg.Static{G: g})
	}
	return ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
}

// arrEvent is one arrived or collected token of a round record.
type arrEvent struct {
	r, v, tok int
	seq       int64
	born      int
	collected bool
}

// arrLog captures the arrival-mode observer stream for assertions.
type arrLog struct {
	arrived   []arrEvent
	collected []arrEvent
}

func (l *arrLog) observer() sim.Observer {
	return func(rd *sim.Round) {
		for _, a := range rd.Arrived {
			l.arrived = append(l.arrived, arrEvent{r: rd.R, v: a.Node, tok: a.Slot, seq: a.Seq})
		}
		for _, c := range rd.Collected {
			l.collected = append(l.collected, arrEvent{r: rd.R, tok: c.Slot, seq: c.Seq, born: c.Born, collected: true})
		}
	}
}

func TestArrivalsValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  sim.Arrivals
		want string
	}{
		{"zero-rate", sim.Arrivals{Rate: 0}, "Rate"},
		{"negative-rate", sim.Arrivals{Rate: -1}, "Rate"},
		{"on-without-off", sim.Arrivals{Rate: 1, OnRounds: 2}, "OnRounds"},
		{"off-without-on", sim.Arrivals{Rate: 1, OffRounds: 2}, "OnRounds"},
		{"negative-start", sim.Arrivals{Rate: 1, Start: -1}, "Start"},
		{"stop-before-start", sim.Arrivals{Rate: 1, Start: 5, Stop: 5}, "Stop"},
		{"negative-cap", sim.Arrivals{Rate: 1, MaxTokens: -1}, "MaxTokens"},
		{"hotspot-out-of-range", sim.Arrivals{Rate: 1, Hotspot: true, HotspotNode: 9}, "HotspotNode"},
	}
	d := staticDyn(graph.Path(4), nil)
	assign := token.SingleSource(4, 1, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			_, err := sim.RunProtocol(d, baseline.Flood{}, assign, sim.Options{
				MaxRounds: 10, Arrivals: &cfg,
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}

// plainNode deliberately implements neither Injector nor Collectible.
type plainNode struct{ ta *bitset.Set }

func (n *plainNode) Send(v *sim.View) *sim.Message            { return nil }
func (n *plainNode) Deliver(v *sim.View, msgs []*sim.Message) {}
func (n *plainNode) Tokens() *bitset.Set                      { return n.ta }

func TestArrivalsRequireSupport(t *testing.T) {
	d := staticDyn(graph.Path(3), nil)
	assign := token.SingleSource(3, 1, 0)
	nodes := []sim.Node{
		&plainNode{ta: assign.Initial[0].Clone()},
		&plainNode{ta: assign.Initial[1].Clone()},
		&plainNode{ta: assign.Initial[2].Clone()},
	}
	_, err := sim.Run(d, nodes, assign, sim.Options{
		MaxRounds: 10,
		Arrivals:  &sim.Arrivals{Rate: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "Injector") {
		t.Fatalf("want Injector/Collectible error, got %v", err)
	}
}

// TestArrivalsDrainAndGC is the core steady-state contract: with a bounded
// arrival window the run completes, every injected token (plus the initial
// batch) is garbage-collected exactly once, the observer sees every
// injection and collection, and collection latency respects the network
// diameter.
func TestArrivalsDrainAndGC(t *testing.T) {
	const n, k = 8, 2
	d := staticDyn(graph.Path(n), nil)
	var log arrLog
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(n, k, 0), sim.Options{
		MaxRounds:        300,
		StopWhenComplete: true,
		StallWindow:      50,
		Observer:         log.observer(),
		Arrivals:         &sim.Arrivals{Rate: 1, Seed: 7, Stop: 40},
	})
	if !met.Complete {
		t.Fatalf("run did not complete: %v", met)
	}
	if met.TokensInjected == 0 {
		t.Fatal("no tokens injected over 40 rounds at rate 1")
	}
	if want := met.TokensInjected + k; met.TokensCollected != want {
		t.Errorf("TokensCollected = %d, want injected+batch = %d", met.TokensCollected, want)
	}
	if met.OutstandingTokens != 0 {
		t.Errorf("OutstandingTokens = %d after a drained run", met.OutstandingTokens)
	}
	if got := int64(len(log.arrived)); got != met.TokensInjected {
		t.Errorf("observer saw %d arrivals, metrics say %d", got, met.TokensInjected)
	}
	if got := int64(len(log.collected)); got != met.TokensCollected {
		t.Errorf("observer saw %d collections, metrics say %d", got, met.TokensCollected)
	}
	// Sequence numbers: arrivals are globally ordered starting after the
	// initial batch, and every arrival's sequence is eventually collected.
	seqs := map[int64]bool{}
	for i, e := range log.arrived {
		if e.seq != int64(k+i) {
			t.Fatalf("arrival %d has sequence %d, want %d", i, e.seq, k+i)
		}
		seqs[e.seq] = true
	}
	for s := int64(0); s < int64(k); s++ {
		seqs[s] = true // initial batch
	}
	for _, e := range log.collected {
		if !seqs[e.seq] {
			t.Errorf("collected unknown sequence %d", e.seq)
		}
		delete(seqs, e.seq)
		// Full-set flooding covers distance d in d rounds and the farthest
		// node on path(8) is at least 4 hops from any injection point, so a
		// token is never collectable in the round it arrives.
		if lat := e.r - e.born; lat < 3 {
			t.Errorf("token seq %d collected with latency %d on a diameter-7 path", e.seq, lat)
		}
	}
	if len(seqs) != 0 {
		t.Errorf("%d sequences never collected: %v", len(seqs), seqs)
	}
}

// TestArrivalsBoundedSlots proves the GC actually bounds state: over a long
// run on a fast-draining network the slot universe (and with it every
// bitset in the system) stays near the peak queue depth, far below the
// total injected count, and freed slots are reused for later generations.
func TestArrivalsBoundedSlots(t *testing.T) {
	const n = 4
	d := staticDyn(graph.Path(n), nil)
	var log arrLog
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(n, 1, 0), sim.Options{
		MaxRounds:        400,
		StopWhenComplete: true,
		StallWindow:      50,
		Observer:         log.observer(),
		Arrivals:         &sim.Arrivals{Rate: 2, Seed: 11, Stop: 200},
	})
	if !met.Complete || met.TokensInjected < 200 {
		t.Fatalf("want a completed run with >=200 arrivals, got complete=%v injected=%d",
			met.Complete, met.TokensInjected)
	}
	maxSlot := 0
	gens := map[int]map[int64]bool{}
	for _, e := range log.arrived {
		if e.tok > maxSlot {
			maxSlot = e.tok
		}
		if gens[e.tok] == nil {
			gens[e.tok] = map[int64]bool{}
		}
		gens[e.tok][e.seq] = true
	}
	// A path(4) drains every token within 3 rounds, so the slot universe
	// should stay around Rate * drain-time, nowhere near 200+.
	if maxSlot >= 64 {
		t.Errorf("slot universe grew to %d for %d injections — GC is not recycling slots",
			maxSlot+1, met.TokensInjected)
	}
	if met.PeakOutstanding >= 64 {
		t.Errorf("PeakOutstanding = %d, want bounded queue depth", met.PeakOutstanding)
	}
	reused := 0
	for _, g := range gens {
		if len(g) > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no slot hosted more than one token generation over 400+ arrivals")
	}
}

func TestArrivalsMaxTokens(t *testing.T) {
	d := staticDyn(graph.Path(4), nil)
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(4, 1, 0), sim.Options{
		MaxRounds:        200,
		StopWhenComplete: true,
		Arrivals:         &sim.Arrivals{Rate: 10, Seed: 1, MaxTokens: 5},
	})
	if met.TokensInjected != 5 {
		t.Errorf("TokensInjected = %d, want exactly MaxTokens = 5", met.TokensInjected)
	}
	if !met.Complete {
		t.Errorf("run did not complete after exhausting MaxTokens: %v", met)
	}
}

// TestArrivalsBurstWindows pins the on/off shaping: every injection falls
// inside [Start, Stop) and within the OnRounds part of each burst period.
func TestArrivalsBurstWindows(t *testing.T) {
	d := staticDyn(graph.Path(4), nil)
	var log arrLog
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(4, 1, 0), sim.Options{
		MaxRounds:        200,
		StopWhenComplete: true,
		Observer:         log.observer(),
		Arrivals: &sim.Arrivals{
			Rate: 5, Seed: 3,
			OnRounds: 2, OffRounds: 3,
			Start: 5, Stop: 20,
		},
	})
	if met.TokensInjected == 0 {
		t.Fatal("no arrivals despite rate 5 across six on-rounds")
	}
	for _, e := range log.arrived {
		if e.r < 5 || e.r >= 20 {
			t.Errorf("arrival at round %d outside window [5, 20)", e.r)
		}
		if (e.r-5)%5 >= 2 {
			t.Errorf("arrival at round %d falls in an off-window", e.r)
		}
	}
}

// TestArrivalsHotspot pins cluster-targeted injection: with Hotspot aimed
// at a member, every arrival lands on that member's cluster (head
// included), never on the other cluster.
func TestArrivalsHotspot(t *testing.T) {
	// Two star clusters bridged at their heads: {0: head, 1, 2} and
	// {3: head, 4, 5}.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(0, 3)
	h := ctvg.NewHierarchy(6)
	h.SetHead(0)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	h.SetHead(3)
	h.SetMember(4, 3)
	h.SetMember(5, 3)
	d := staticDyn(g, h)
	var log arrLog
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(6, 1, 0), sim.Options{
		MaxRounds:        200,
		StopWhenComplete: true,
		Observer:         log.observer(),
		Arrivals: &sim.Arrivals{
			Rate: 2, Seed: 9, Stop: 30,
			Hotspot: true, HotspotNode: 1,
		},
	})
	if met.TokensInjected == 0 {
		t.Fatal("no arrivals at rate 2 over 30 rounds")
	}
	for _, e := range log.arrived {
		if e.v > 2 {
			t.Errorf("hotspot arrival landed on node %d outside cluster {0,1,2}", e.v)
		}
	}
}

// TestArrivalsPureLoad runs with an empty initial assignment (K = 0): all
// traffic enters through the arrival process.
func TestArrivalsPureLoad(t *testing.T) {
	const n = 5
	d := staticDyn(graph.Path(n), nil)
	assign := token.Empty(n)
	if err := assign.Validate(); err != nil {
		t.Fatalf("empty assignment must validate: %v", err)
	}
	met := sim.MustRunProtocol(d, baseline.Flood{}, assign, sim.Options{
		MaxRounds:        300,
		StopWhenComplete: true,
		StallWindow:      50,
		Arrivals:         &sim.Arrivals{Rate: 1, Seed: 5, Stop: 50},
	})
	if !met.Complete {
		t.Fatalf("pure-arrival run did not complete: %v", met)
	}
	if met.TokensCollected != met.TokensInjected || met.TokensInjected == 0 {
		t.Errorf("collected %d of %d injected", met.TokensCollected, met.TokensInjected)
	}
}

// TestStallWatchdogQuietGap is the regression test for the watchdog false
// positive: a quiet arrival gap longer than StallWindow — zero outstanding
// work, flat delivered count — must not be reported as a stall. Before the
// fix the watchdog treated any flat delivered count as a stall and killed
// the run mid-gap.
func TestStallWatchdogQuietGap(t *testing.T) {
	d := staticDyn(graph.Path(3), nil)
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(3, 1, 0), sim.Options{
		MaxRounds:        200,
		StopWhenComplete: true,
		StallWindow:      10, // much shorter than the 40-round quiet gap
		Arrivals: &sim.Arrivals{
			Rate: 4, Seed: 3,
			OnRounds: 1, OffRounds: 40, // bursts at rounds 0 and 41 only
			Stop: 42,
		},
	})
	if met.Stall != nil {
		t.Fatalf("watchdog fired during a healthy idle gap: %v", met.Stall)
	}
	if !met.Complete {
		t.Fatalf("run did not complete: %v", met)
	}
	if met.Rounds <= 40 {
		t.Fatalf("run ended at round %d, before the second burst — gap not exercised", met.Rounds)
	}
}

// TestStallWatchdogStillFires proves the quiet-gap fix did not neuter the
// watchdog: with outstanding work that cannot progress (an isolated node
// that can never receive the tokens) the run must still stall, and — the
// second regression — the report's Total must track the live token
// universe (n · outstanding), not the hardcoded initial n·k.
func TestStallWatchdogStillFires(t *testing.T) {
	// Nodes 0 and 1 are connected; node 2 is isolated and unreachable.
	g := graph.New(3)
	g.AddEdge(0, 1)
	d := staticDyn(g, nil)
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(3, 1, 0), sim.Options{
		MaxRounds:   100,
		StallWindow: 8,
		Arrivals: &sim.Arrivals{
			Rate: 8, Seed: 1, Stop: 1, // one burst at round 0, then nothing
		},
	})
	if met.Stall == nil {
		t.Fatalf("no stall despite an unreachable node: %v", met)
	}
	if met.TokensInjected == 0 {
		t.Fatal("want at least one arrival at rate 8 (P(0) ~ 3e-4)")
	}
	liveTok := 1 + int(met.TokensInjected) // nothing ever collected
	if met.TokensCollected != 0 {
		t.Fatalf("collected %d tokens with an isolated node", met.TokensCollected)
	}
	if want := 3 * liveTok; met.Stall.Total != want {
		t.Errorf("StallReport.Total = %d, want n*live = %d (pre-fix code reported n*k = 3)",
			met.Stall.Total, want)
	}
	if met.OutstandingTokens != liveTok {
		t.Errorf("OutstandingTokens = %d, want %d", met.OutstandingTokens, liveTok)
	}
}

// runArrival executes one arrival-mode run against a recorded HiNet trace
// with crashes and recoveries, capturing metrics and the full observer
// stream rendered to strings.
func runArrival(t *testing.T, trace ctvg.Dynamic, proto sim.Protocol, assign *token.Assignment, rounds, workers int, arr sim.Arrivals) (*sim.Metrics, []string) {
	t.Helper()
	var events []string
	ev := func(format string, args ...any) {
		events = append(events, fmt.Sprintf(format, args...))
	}
	obs := func(rd *sim.Round) {
		r := rd.R
		for _, v := range rd.Recovered {
			ev("recover %d %d", r, v)
		}
		for _, v := range rd.Crashed {
			ev("crash %d %d", r, v)
		}
		for _, a := range rd.Arrived {
			ev("arrive %d %d %d %d", r, a.Node, a.Slot, a.Seq)
		}
		for _, m := range rd.Outbox {
			if m != nil {
				ev("sent %d %d %d %d %d", r, m.From, m.To, int(m.Kind), m.Tokens.Len())
			}
		}
		for _, c := range rd.Collected {
			ev("collect %d %d %d %d", r, c.Slot, c.Seq, c.Born)
		}
		ev("progress %d %d", r, rd.Delivered)
		if rep := rd.Metrics.Stall; rep != nil {
			ev("stall %d %s", r, rep)
		}
	}
	met, err := sim.RunProtocol(trace, proto, assign, sim.Options{
		MaxRounds:        rounds,
		StopWhenComplete: true,
		StallWindow:      64,
		Observer:         obs,
		Workers:          workers,
		Arrivals:         &arr,
		Faults: &sim.Faults{
			CrashAt:      map[int]int{3: 2, 11: 5},
			RecoverAfter: map[int]int{3: 7},
		},
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return met, events
}

// TestArrivalsSerialParallelIdentical is the determinism contract under
// load: an arrival-mode run over a churning HiNet trace with crashes and
// recoveries produces identical metrics and a bit-identical observer
// stream whether it executes serially or on 4 workers — and replays
// identically from the same seed.
func TestArrivalsSerialParallelIdentical(t *testing.T) {
	const n, k = 40, 4
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: 8, L: 2, T: 12,
		Reaffiliations: 4, HeadChurn: 1,
	}, xrand.New(5))
	trace := ctvg.Record(adv, 160)
	assign := token.Spread(n, k, xrand.New(6))
	arr := sim.Arrivals{Rate: 1.5, Seed: 21, Stop: 100}

	for _, proto := range []sim.Protocol{
		baseline.Flood{},
		core.Alg2{Failover: &core.Failover{Window: 2}},
	} {
		t.Run(proto.Name(), func(t *testing.T) {
			refMet, refEvents := runArrival(t, trace, proto, assign, 160, 1, arr)
			if refMet.TokensInjected == 0 {
				t.Fatal("reference run injected nothing")
			}
			for _, workers := range []int{2, 4} {
				met, events := runArrival(t, trace, proto, assign, 160, workers, arr)
				if !reflect.DeepEqual(met, refMet) {
					t.Errorf("workers=%d: metrics diverge:\n  got  %+v\n  want %+v", workers, met, refMet)
				}
				if !reflect.DeepEqual(events, refEvents) {
					for i := range events {
						if i >= len(refEvents) || events[i] != refEvents[i] {
							t.Fatalf("workers=%d: observer stream diverges at event %d: %q vs %q",
								workers, i, events[i], refEvents[i])
						}
					}
					t.Fatalf("workers=%d: observer stream diverges in length: %d vs %d",
						workers, len(events), len(refEvents))
				}
			}
			// Replay: same seed, same everything.
			met2, events2 := runArrival(t, trace, proto, assign, 160, 1, arr)
			if !reflect.DeepEqual(met2, refMet) || !reflect.DeepEqual(events2, refEvents) {
				t.Error("replay with identical seed diverged")
			}
		})
	}
}

// TestArrivalsGrowCarvedSets pushes the live token universe past 64
// slots, so every protocol's token sets outgrow the one word each was
// carved with from its protocol's shared buffer. Each protocol must still
// conserve tokens, run identically on 2 shards, and reproduce the Metrics
// pinned before the sets shared a buffer.
func TestArrivalsGrowCarvedSets(t *testing.T) {
	const n, k, T, rounds = 40, 4, 12, 400
	trace := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: 8, L: 2, T: T, Reaffiliations: 4, HeadChurn: 1,
	}, xrand.New(9)), rounds)
	assign := token.Spread(n, k, xrand.New(10))
	for _, tc := range []struct {
		proto sim.Protocol
		want  string
	}{
		{core.Alg1{T: T}, "rounds=400 msgs=7082 tokens=7082 incomplete injected=406 collected=285 peak=387"},
		{core.Alg2{}, "rounds=49 msgs=981 tokens=30169 complete@49 injected=406 collected=410 peak=100"},
		{baseline.Flood{}, "rounds=49 msgs=1960 tokens=54289 complete@49 injected=406 collected=410 peak=100"},
		{baseline.KLOT{T: T}, "rounds=400 msgs=15778 tokens=15778 incomplete injected=406 collected=276 peak=387"},
	} {
		t.Run(tc.proto.Name(), func(t *testing.T) {
			var mets [2]*sim.Metrics
			for i, workers := range []int{1, 2} {
				mets[i] = sim.MustRunProtocol(trace, tc.proto, assign, sim.Options{
					MaxRounds:        rounds,
					StopWhenComplete: true,
					Workers:          workers,
					Arrivals:         &sim.Arrivals{Rate: 10, Seed: 3, Stop: 40},
				})
			}
			met := mets[0]
			if !reflect.DeepEqual(mets[1], met) {
				t.Fatalf("2 shards diverge:\n  got  %+v\n  want %+v", mets[1], met)
			}
			if met.PeakOutstanding <= 64 {
				t.Fatalf("peak of %d live tokens never widened the sets past one word", met.PeakOutstanding)
			}
			if k+met.TokensInjected != met.TokensCollected+int64(met.OutstandingTokens) {
				t.Fatalf("token accounting leaks: batch %d + injected %d != collected %d + outstanding %d",
					k, met.TokensInjected, met.TokensCollected, met.OutstandingTokens)
			}
			got := fmt.Sprintf("%v injected=%d collected=%d peak=%d",
				met, met.TokensInjected, met.TokensCollected, met.PeakOutstanding)
			if got != tc.want {
				t.Errorf("metrics %q, want %q", got, tc.want)
			}
		})
	}
}
