package sim

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/token"
	"repro/internal/tvg"
)

func TestParallelMatchesSerial(t *testing.T) {
	// Bit-identical metrics and final token sets between serial and
	// 4-worker execution.
	d := staticPath(40)
	assign := token.SingleSource(40, 6, 0)

	serialNodes := floodProto{}.Nodes(assign)
	serial := MustRun(d, serialNodes, assign, Options{MaxRounds: 39})

	parNodes := floodProto{}.Nodes(assign)
	par := MustRun(d, parNodes, assign, Options{MaxRounds: 39, Workers: 4})

	if serial.TokensSent != par.TokensSent || serial.Messages != par.Messages {
		t.Fatalf("cost mismatch: serial %v vs parallel %v", serial, par)
	}
	if serial.CompletionRound != par.CompletionRound {
		t.Fatalf("completion mismatch: %d vs %d", serial.CompletionRound, par.CompletionRound)
	}
	for v := range serialNodes {
		if !serialNodes[v].Tokens().Equal(parNodes[v].Tokens()) {
			t.Fatalf("node %d final state differs", v)
		}
	}
}

func TestParallelWithCrashFaults(t *testing.T) {
	d := staticPath(10)
	assign := token.SingleSource(10, 1, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds: 30,
		Workers:   4,
		Faults:    &Faults{CrashAt: map[int]int{9: 0}},
	})
	if !m.Complete {
		t.Fatalf("parallel run with crash incomplete: %v", m)
	}
}

// recordedEvent flattens one observer callback for stream comparison.
type recordedEvent struct {
	round, from, to int
	kind            MsgKind
	cost            int
	delivered       int // -1 for Sent events
}

// recordRun executes a run with a recording observer and returns the
// flattened event stream (Sent and Progress interleaved in arrival order).
func recordRun(workers int) ([]recordedEvent, *Metrics) {
	d := staticPath(40)
	assign := token.SingleSource(40, 6, 0)
	var events []recordedEvent
	obs := &Observer{
		Sent: func(r int, m *Message) {
			events = append(events, recordedEvent{round: r, from: m.From, to: m.To, kind: m.Kind, cost: m.Cost(), delivered: -1})
		},
		Progress: func(r, delivered int) {
			events = append(events, recordedEvent{round: r, from: -1, delivered: delivered})
		},
	}
	met := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 39, Observer: obs, Workers: workers})
	return events, met
}

func TestParallelObserverMatchesSerial(t *testing.T) {
	// Workers > 1 with a non-nil observer no longer panics, and the merged
	// event stream is identical to the serial engine's on the same seed.
	serial, smet := recordRun(0)
	par, pmet := recordRun(4)
	if smet.String() != pmet.String() {
		t.Fatalf("metrics diverge: %v vs %v", smet, pmet)
	}
	if len(serial) != len(par) {
		t.Fatalf("event counts diverge: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("event %d diverges: serial %+v parallel %+v", i, serial[i], par[i])
		}
	}
}

func TestSentEventsAscendingRoundSender(t *testing.T) {
	for _, workers := range []int{0, 4} {
		events, _ := recordRun(workers)
		lastRound, lastFrom := -1, -1
		for _, e := range events {
			if e.delivered >= 0 {
				continue // Progress event
			}
			if e.round < lastRound || (e.round == lastRound && e.from <= lastFrom) {
				t.Fatalf("workers=%d: Sent order violated at (round=%d, from=%d) after (%d, %d)",
					workers, e.round, e.from, lastRound, lastFrom)
			}
			if e.round > lastRound {
				lastFrom = -1
			}
			lastRound, lastFrom = e.round, e.from
		}
	}
}

func TestProgressMonotonic(t *testing.T) {
	for _, workers := range []int{0, 4} {
		events, _ := recordRun(workers)
		prev, seen := -1, 0
		for _, e := range events {
			if e.delivered < 0 {
				continue
			}
			if e.delivered < prev {
				t.Fatalf("workers=%d: progress regressed from %d to %d", workers, prev, e.delivered)
			}
			prev = e.delivered
			seen++
		}
		if seen != 39 {
			t.Fatalf("workers=%d: %d progress events, want 39", workers, seen)
		}
	}
}

// recordStarRun is recordRun on a hub-and-spokes star: the degenerate input
// for the degree-aware shard partition. Node 0 touches every edge, so
// cutting by cumulative degree puts the hub (nearly) alone in shard 0 and
// may leave trailing shards empty — the merged event stream must still be
// the serial one bit for bit.
func recordStarRun(workers int) ([]recordedEvent, *Metrics) {
	d := NewFlat(tvg.Static{G: graph.Star(41, 0)})
	assign := token.SingleSource(41, 6, 3) // source on a leaf: traffic crosses the hub
	var events []recordedEvent
	obs := &Observer{
		Sent: func(r int, m *Message) {
			events = append(events, recordedEvent{round: r, from: m.From, to: m.To, kind: m.Kind, cost: m.Cost(), delivered: -1})
		},
		Progress: func(r, delivered int) {
			events = append(events, recordedEvent{round: r, from: -1, delivered: delivered})
		},
	}
	met := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 6, Observer: obs, Workers: workers})
	return events, met
}

func TestParallelStarMatchesSerial(t *testing.T) {
	serial, smet := recordStarRun(0)
	par, pmet := recordStarRun(4)
	if smet.String() != pmet.String() {
		t.Fatalf("metrics diverge: %v vs %v", smet, pmet)
	}
	if !smet.Complete {
		t.Fatal("star flood incomplete; test is vacuous")
	}
	if len(serial) != len(par) {
		t.Fatalf("event counts diverge: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("event %d diverges: serial %+v parallel %+v", i, serial[i], par[i])
		}
	}
}

func TestShardBoundsDegreeAware(t *testing.T) {
	check := func(name string, g *graph.Graph, nshards int) []int {
		t.Helper()
		b := shardBounds(g, nshards)
		if len(b) != nshards+1 || b[0] != 0 || b[nshards] != g.N() {
			t.Fatalf("%s: malformed bounds %v", name, b)
		}
		for s := 0; s < nshards; s++ {
			if b[s] > b[s+1] {
				t.Fatalf("%s: bounds not non-decreasing: %v", name, b)
			}
		}
		return b
	}

	// Star: the hub carries weight ~n of a total ~2n, so shard 0 must stop
	// right after it instead of taking the first n/4 nodes.
	star := check("star", graph.Star(100, 0), 4)
	if star[1] != 1 {
		t.Errorf("star: shard 0 covers [0, %d), want the hub alone", star[1])
	}

	// Ring: uniform degree, so degree-aware cuts collapse to (near-)equal
	// node counts.
	ring := check("ring", graph.Ring(100), 4)
	for s := 0; s < 4; s++ {
		if sz := ring[s+1] - ring[s]; sz < 24 || sz > 26 {
			t.Errorf("ring: shard %d has %d nodes, want ~25 (bounds %v)", s, sz, ring)
		}
	}

	// One shard: trivially the whole range.
	check("one-shard", graph.Path(10), 1)
}

// recordFaultyRun is recordRun under a lossy, crashing, recovering fault
// plan: counter-based fault randomness is a pure function of
// (seed, round, src, dst), so the stream must not depend on Workers.
func recordFaultyRun(workers int) ([]recordedEvent, *Metrics) {
	d := staticPath(40)
	assign := token.SingleSource(40, 6, 0)
	var events []recordedEvent
	obs := &Observer{
		Sent: func(r int, m *Message) {
			events = append(events, recordedEvent{round: r, from: m.From, to: m.To, kind: m.Kind, cost: m.Cost(), delivered: -1})
		},
		Progress: func(r, delivered int) {
			events = append(events, recordedEvent{round: r, from: -1, delivered: delivered})
		},
	}
	met := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds: 80, Observer: obs, Workers: workers,
		Faults: &Faults{
			Seed:         7,
			DropProb:     0.1,
			CrashAt:      map[int]int{5: 3, 20: 10},
			RecoverAfter: map[int]int{5: 8},
		},
	})
	return events, met
}

func TestParallelDropsMatchSerial(t *testing.T) {
	// DropProb > 0 no longer forces serial execution: fault randomness is
	// drawn from a counter-based RNG, so a 4-worker run must replay the
	// exact serial event stream, drop for drop.
	serial, smet := recordFaultyRun(0)
	par, pmet := recordFaultyRun(4)
	if smet.String() != pmet.String() {
		t.Fatalf("metrics diverge: %v vs %v", smet, pmet)
	}
	if smet.Drops == 0 {
		t.Fatal("fault plan injected no drops; test is vacuous")
	}
	if smet.Drops != pmet.Drops || smet.Recoveries != pmet.Recoveries {
		t.Fatalf("fault counters diverge: drops %d/%d recoveries %d/%d",
			smet.Drops, pmet.Drops, smet.Recoveries, pmet.Recoveries)
	}
	if len(serial) != len(par) {
		t.Fatalf("event counts diverge: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("event %d diverges: serial %+v parallel %+v", i, serial[i], par[i])
		}
	}
}

func TestRunRejectsInvalidPlan(t *testing.T) {
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	_, err := RunProtocol(d, floodProto{}, assign, Options{
		MaxRounds: 2, Faults: &Faults{CrashAt: map[int]int{99: 0}},
	})
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
	if want := "CrashAt names node 99"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestRunRejectsRoundsPastBurstMemo: a burst channel answers up to round
// faults.MaxBurstRound, so a longer run fails before its first round.
func TestRunRejectsRoundsPastBurstMemo(t *testing.T) {
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	_, err := RunProtocol(d, floodProto{}, assign, Options{
		MaxRounds: faults.MaxBurstRound + 2,
		Faults:    &Faults{Burst: &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.5, DropBad: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "MaxBurstRound") {
		t.Fatalf("got %v, want an error naming MaxBurstRound", err)
	}
}

// The two engine benchmarks document the parallelism granularity rule:
// flooding on a path does ~150ns of work per node-round, far below the
// goroutine fan-out cost, so Workers > 1 LOSES here. The same holds for
// HiNet runs at 1k nodes; BenchmarkShardCrossover in the root package
// measures the size at which shards start to pay, which sets the default
// shard count (minShardNodes).
func BenchmarkEngineSerial1000(b *testing.B) {
	d := staticPath(1000)
	assign := token.SingleSource(1000, 8, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 50})
	}
}

func BenchmarkEngineParallel1000(b *testing.B) {
	d := staticPath(1000)
	assign := token.SingleSource(1000, 8, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 50, Workers: 4})
	}
}
