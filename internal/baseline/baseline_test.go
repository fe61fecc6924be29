package baseline

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// onSent returns an observer that calls f for every transmission of each
// round, in ascending sender order.
func onSent(f func(r int, m *sim.Message)) sim.Observer {
	return func(rd *sim.Round) {
		for _, m := range rd.Outbox {
			if m != nil {
				f(rd.R, m)
			}
		}
	}
}

func TestFloodName(t *testing.T) {
	if (Flood{}).Name() != "klo-flood" {
		t.Fatal("name wrong")
	}
	if (KLOT{T: 7}).Name() != "klo-tinterval(T=7)" {
		t.Fatal("KLOT name wrong")
	}
}

func TestFloodRoundsHelper(t *testing.T) {
	if FloodRounds(100) != 99 {
		t.Fatal("FloodRounds wrong")
	}
}

func TestFloodCompletesOnWorstCasePath(t *testing.T) {
	// Static path with the token at one end: the classic n-1 round case.
	const n = 12
	d := sim.NewFlat(tvg.Static{G: graph.Path(n)})
	assign := token.SingleSource(n, 1, 0)
	met := sim.MustRunProtocol(d, Flood{}, assign,
		sim.Options{MaxRounds: FloodRounds(n), StopWhenComplete: true})
	if !met.Complete || met.CompletionRound != n-1 {
		t.Fatalf("flood on path: %v", met)
	}
}

func TestFloodCompletesUnder1IntervalAdversary(t *testing.T) {
	const n, k = 25, 6
	for seed := uint64(0); seed < 8; seed++ {
		adv := adversary.NewOneInterval(n, 0, xrand.New(seed))
		assign := token.Spread(n, k, xrand.New(seed+123))
		met := sim.MustRunProtocol(sim.NewFlat(adv), Flood{}, assign,
			sim.Options{MaxRounds: FloodRounds(n), StopWhenComplete: true})
		if !met.Complete {
			t.Fatalf("seed %d: flood incomplete within n-1 rounds: %v", seed, met)
		}
	}
}

func TestFloodCostMatchesModel(t *testing.T) {
	// Run without early stop for exactly n-1 rounds: every node
	// broadcasts every round; once saturated each broadcast carries k
	// tokens, so total cost is bounded by (n-1)·n·k and reaches a
	// substantial fraction of it.
	const n, k = 15, 4
	adv := adversary.NewOneInterval(n, 0, xrand.New(9))
	assign := token.Spread(n, k, xrand.New(10))
	met := sim.MustRunProtocol(sim.NewFlat(adv), Flood{}, assign,
		sim.Options{MaxRounds: FloodRounds(n)})
	upper := int64((n - 1) * n * k)
	if met.TokensSent > upper {
		t.Fatalf("cost %d exceeds model bound %d", met.TokensSent, upper)
	}
	if met.Messages != int64((n-1)*n) {
		t.Fatalf("messages %d, want every node every round", met.Messages)
	}
	if met.TokensSent < upper/2 {
		t.Fatalf("cost %d suspiciously low vs bound %d", met.TokensSent, upper)
	}
}

func TestKLOTValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	KLOT{}.Nodes(token.SingleSource(3, 1, 0))
}

func TestKLOTPhasesHelper(t *testing.T) {
	if KLOTPhases(100, 18, 8) != 10 {
		t.Fatalf("KLOTPhases = %d", KLOTPhases(100, 18, 8))
	}
	if KLOTPhases(101, 18, 8) != 11 {
		t.Fatalf("KLOTPhases = %d", KLOTPhases(101, 18, 8))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("T <= k accepted")
		}
	}()
	KLOTPhases(10, 5, 5)
}

func TestKLOTCompletesOnTIntervalAdversary(t *testing.T) {
	const n, k = 30, 5
	for seed := uint64(0); seed < 6; seed++ {
		T := k + 5 // progress 5 hops per phase
		adv := adversary.NewTInterval(n, T, 6, xrand.New(seed))
		assign := token.Spread(n, k, xrand.New(seed+321))
		phases := KLOTPhases(n, T, k)
		met := sim.MustRunProtocol(sim.NewFlat(adv), KLOT{T: T}, assign,
			sim.Options{MaxRounds: phases * T, StopWhenComplete: true})
		if !met.Complete {
			t.Fatalf("seed %d: KLOT incomplete within %d phases: %v", seed, phases, met)
		}
	}
}

func TestKLOTBroadcastsAscendingPerPhase(t *testing.T) {
	d := sim.NewFlat(tvg.Static{G: graph.Complete(2)})
	assign := token.SingleSource(2, 3, 0)
	var order []int
	obs := onSent(func(r int, m *sim.Message) {
		if m.From == 0 {
			order = append(order, m.Tokens.Min())
		}
	})
	// Phase length 4 > k: node 0 must emit 0,1,2 then go quiet, then
	// start over in the next phase.
	sim.MustRunProtocol(d, KLOT{T: 4}, assign, sim.Options{MaxRounds: 6, Observer: obs})
	want := []int{0, 1, 2, 0, 1} // rounds 0-2, silence round 3, phase 2 rounds 4-5
	if len(order) != len(want) {
		t.Fatalf("broadcasts %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("broadcasts %v, want %v", order, want)
		}
	}
}

func TestKLOTSingleTokenPerMessage(t *testing.T) {
	const n, k = 20, 4
	adv := adversary.NewTInterval(n, k+3, 4, xrand.New(5))
	assign := token.Spread(n, k, xrand.New(6))
	obs := onSent(func(r int, m *sim.Message) {
		if m.Cost() != 1 {
			t.Fatalf("KLOT message carries %d tokens", m.Cost())
		}
	})
	sim.MustRunProtocol(sim.NewFlat(adv), KLOT{T: k + 3}, assign,
		sim.Options{MaxRounds: 30, Observer: obs})
}

func BenchmarkFlood100(b *testing.B) {
	const n, k = 100, 8
	for i := 0; i < b.N; i++ {
		adv := adversary.NewOneInterval(n, 0, xrand.New(uint64(i)))
		assign := token.Spread(n, k, xrand.New(uint64(i)+1))
		sim.MustRunProtocol(sim.NewFlat(adv), Flood{}, assign,
			sim.Options{MaxRounds: n - 1, StopWhenComplete: true})
	}
}

func BenchmarkKLOT100(b *testing.B) {
	const n, k = 100, 8
	T := 18
	for i := 0; i < b.N; i++ {
		adv := adversary.NewTInterval(n, T, 10, xrand.New(uint64(i)))
		assign := token.Spread(n, k, xrand.New(uint64(i)+1))
		sim.MustRunProtocol(sim.NewFlat(adv), KLOT{T: T}, assign,
			sim.Options{MaxRounds: KLOTPhases(n, T, k) * T, StopWhenComplete: true})
	}
}
