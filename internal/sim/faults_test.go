package sim

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/token"
	"repro/internal/tvg"
)

func TestDropProbOneBlocksEverything(t *testing.T) {
	d := staticPath(4)
	assign := token.SingleSource(4, 1, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds: 20,
		Faults:    &Faults{DropProb: 1, Seed: 1},
	})
	if m.Complete {
		t.Fatal("completed with 100% loss")
	}
	// Cost is still charged: senders transmitted.
	if m.Messages == 0 {
		t.Fatal("no messages charged under loss")
	}
}

func TestModerateLossFloodStillCompletes(t *testing.T) {
	// Full-set flooding retransmits every round, so 30% loss only slows
	// it down.
	d := staticPath(6)
	assign := token.SingleSource(6, 2, 0)
	for seed := uint64(0); seed < 5; seed++ {
		m := MustRunProtocol(d, floodProto{}, assign, Options{
			MaxRounds:        200,
			StopWhenComplete: true,
			Faults:           &Faults{DropProb: 0.3, Seed: seed},
		})
		if !m.Complete {
			t.Fatalf("seed %d: flood incomplete under 30%% loss: %v", seed, m)
		}
		if m.CompletionRound < 5 {
			t.Fatalf("seed %d: completion %d faster than lossless diameter", seed, m.CompletionRound)
		}
	}
}

func TestLossIsPerReceiver(t *testing.T) {
	// Star: center broadcasts to 3 leaves; with 50% loss some leaves may
	// get it while others don't in the same round.
	g := graph.Star(4, 0)
	d := NewFlat(tvg.Static{G: g})
	assign := token.SingleSource(4, 1, 0)
	sawPartial := false
	for seed := uint64(0); seed < 30 && !sawPartial; seed++ {
		nodes := floodProto{}.Nodes(assign)
		MustRun(d, nodes, assign, Options{
			MaxRounds: 1,
			Faults:    &Faults{DropProb: 0.5, Seed: seed},
		})
		got := 0
		for v := 1; v < 4; v++ {
			if nodes[v].Tokens().Contains(0) {
				got++
			}
		}
		if got > 0 && got < 3 {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("per-receiver loss never produced a partial delivery in 30 seeds")
	}
}

func TestCrashExcludedFromCompletion(t *testing.T) {
	// Node 3 (the far end of the path) crashes at round 0; the rest must
	// still complete and the run counts as complete.
	d := staticPath(4)
	assign := token.SingleSource(4, 1, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds:        20,
		StopWhenComplete: true,
		Faults:           &Faults{CrashAt: map[int]int{3: 0}, Seed: 1},
	})
	if !m.Complete {
		t.Fatalf("live nodes did not complete: %v", m)
	}
}

func TestCrashedNodeStopsTransmitting(t *testing.T) {
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds: 4,
		Faults:    &Faults{CrashAt: map[int]int{1: 2}, Seed: 1},
	})
	// Rounds 0-1: 3 senders; rounds 2-3: 2 senders => 6+4 = 10 messages.
	if m.Messages != 10 {
		t.Fatalf("messages %d, want 10", m.Messages)
	}
}

func TestCrashPartitionsPath(t *testing.T) {
	// Crashing the middle of a path before the token crosses it strands
	// the far side: the run must NOT complete (node 2 is live but
	// unreachable).
	d := staticPath(3)
	assign := token.SingleSource(3, 1, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds: 30,
		Faults:    &Faults{CrashAt: map[int]int{1: 0}, Seed: 1},
	})
	if m.Complete {
		t.Fatal("completed across a crashed relay")
	}
}

func TestCrashedNodeDoesNotReceive(t *testing.T) {
	// Node 1 crashes at round 1; the token reaches it in round 1's
	// delivery phase only if it were alive. It must stay empty.
	d := staticPath(2)
	assign := token.SingleSource(2, 1, 0)
	nodes := floodProto{}.Nodes(assign)
	MustRun(d, nodes, assign, Options{
		MaxRounds: 5,
		Faults:    &Faults{CrashAt: map[int]int{1: 0}, Seed: 1},
	})
	if nodes[1].Tokens().Contains(0) {
		t.Fatal("crashed node received a token")
	}
}

func TestFaultsDeterministic(t *testing.T) {
	d := staticPath(6)
	assign := token.SingleSource(6, 2, 0)
	run := func() *Metrics {
		return MustRunProtocol(d, floodProto{}, assign, Options{
			MaxRounds:        100,
			StopWhenComplete: true,
			Faults:           &Faults{DropProb: 0.4, Seed: 9},
		})
	}
	a, b := run(), run()
	if a.CompletionRound != b.CompletionRound || a.TokensSent != b.TokensSent {
		t.Fatalf("fault injection nondeterministic: %v vs %v", a, b)
	}
}

func TestStallWatchdogAllNodesCrashed(t *testing.T) {
	// Crashing the entire population leaves zero live nodes, so the run can
	// never complete; the watchdog must cut it short with a diagnostic
	// instead of burning MaxRounds.
	d := staticPath(4)
	assign := token.SingleSource(4, 2, 0)
	var stalledAt = -1
	m := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds:   500,
		StallWindow: 6,
		Observer: func(rd *Round) {
			if rd.Metrics.Stall != nil {
				stalledAt = rd.R
			}
		},
		Faults: &Faults{CrashAt: map[int]int{0: 1, 1: 1, 2: 1, 3: 1}},
	})
	if m.Complete {
		t.Fatalf("completed with every node crashed: %v", m)
	}
	if m.Stall == nil {
		t.Fatalf("watchdog did not fire: %v", m)
	}
	if m.Rounds >= 500 {
		t.Fatalf("watchdog fired but the run still used all %d rounds", m.Rounds)
	}
	if m.Stall.Live != 0 || m.Stall.Down != 4 || m.Stall.PendingRecovery != 0 {
		t.Fatalf("diagnostic miscounts the population: %+v", m.Stall)
	}
	if m.Stall.Window != 6 || stalledAt != m.Stall.Round {
		t.Fatalf("observer/report disagree: event at %d, report %+v", stalledAt, m.Stall)
	}
	if s := m.Stall.String(); !strings.Contains(s, "no progress for 6 rounds") || !strings.Contains(s, "4 down") {
		t.Fatalf("diagnostic string unhelpful: %q", s)
	}
	if s := m.String(); !strings.Contains(s, "stalled@") {
		t.Fatalf("metrics summary hides the stall: %q", s)
	}
}

func TestStallWatchdogSilentWhileProgressing(t *testing.T) {
	// A slow but progressing run (heavy loss) must not trip a generous
	// watchdog, and a completed run must never carry a stall report.
	d := staticPath(6)
	assign := token.SingleSource(6, 2, 0)
	m := MustRunProtocol(d, floodProto{}, assign, Options{
		MaxRounds:        300,
		StopWhenComplete: true,
		StallWindow:      100,
		Faults:           &Faults{DropProb: 0.3, Seed: 2},
	})
	if !m.Complete || m.Stall != nil {
		t.Fatalf("watchdog interfered with a completing run: %v", m)
	}
}

func TestNilFaultsIsNoop(t *testing.T) {
	d := staticPath(4)
	assign := token.SingleSource(4, 1, 0)
	a := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 10})
	b := MustRunProtocol(d, floodProto{}, assign, Options{MaxRounds: 10, Faults: &Faults{}})
	if a.TokensSent != b.TokensSent || a.CompletionRound != b.CompletionRound {
		t.Fatal("empty Faults changed behaviour")
	}
}
