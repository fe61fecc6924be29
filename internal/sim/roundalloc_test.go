package sim_test

import (
	"io"
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// TestRoundLoopAllocFree pins the serial round loop at zero allocations per
// round: for every setup, an 800-round run must allocate exactly as often as
// the same run cut at 400 rounds, so everything a run allocates is set-up or
// warm-up and nothing scales with its length. A closure or method value
// bound inside the loop, or a scratch buffer rebuilt every round, shows up
// here as hundreds of extra allocations. Burst channels are left out: their
// memo rows grow with every first-seen link. Warm-up includes the message
// arenas, which ratchet up to the most senders any round has had (at most
// one message and one payload set per node); on this instance they settle
// before round 400 in every setup, while on some other adversary seeds a
// self-stabilizing run still sets new highs after it.
func TestRoundLoopAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated 800-round runs")
	}
	const n, k, alpha, L, theta, rounds = 200, 8, 2, 2, 20, 800
	T := core.Theorem1T(k, alpha, L)
	rec := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: theta, L: L, T: T,
		Reaffiliations: 6, HeadChurn: 2,
	}, xrand.New(2)), rounds)
	assign := token.Spread(n, k, xrand.New(3))
	proto := core.Alg2{Failover: &core.Failover{Window: 2}}
	crashes := func() *sim.Faults { return &sim.Faults{CrashAt: map[int]int{5: 3, 33: T + 3, 61: 2*T + 7}} }
	// A delta recording with churn edges opens a window every round, so its
	// cursor materialises a graph each round.
	replay := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: theta, L: L, T: T,
		Reaffiliations: 6, HeadChurn: 2, Heads: theta - 2, ChurnEdges: 10,
	}, xrand.New(4)), rounds)
	if w := replay.Windows(); w != rounds {
		t.Fatalf("the replayed recording has %d windows over %d rounds", w, rounds)
	}

	// Each setup builds its sinks afresh, so every run starts from the same
	// state.
	cases := []struct {
		name string
		opts func() sim.Options
	}{
		{"no-sinks", func() sim.Options { return sim.Options{Faults: crashes()} }},
		{"stall-window", func() sim.Options { return sim.Options{Faults: crashes(), StallWindow: 4 * T} }},
		{"observer", func() sim.Options {
			col := obs.NewCollector(obs.Config{N: n, K: k, PhaseLen: T, Sink: io.Discard})
			return sim.Options{Faults: crashes(), Observer: col.Observer()}
		}},
		{"tracer", func() sim.Options {
			return sim.Options{Faults: crashes(), Tracer: provenance.New(provenance.Config{Sink: io.Discard})}
		}},
		{"timing", func() sim.Options {
			return sim.Options{Faults: crashes(), Timing: obs.NewTiming(obs.TimingConfig{Sink: io.Discard})}
		}},
		{"arrivals", func() sim.Options {
			return sim.Options{Faults: crashes(), Arrivals: &sim.Arrivals{Rate: 0.5, Seed: 3, Stop: 200}}
		}},
		{"lossy-selfstab", func() sim.Options {
			return sim.Options{
				Faults:        &sim.Faults{Seed: 5, DropProb: 0.05, CrashAt: map[int]int{5: 3}},
				SelfStabilize: &sim.SelfStabilize{Watchdog: T},
			}
		}},
		{"replay", func() sim.Options { return sim.Options{Faults: crashes()} }},
	}
	for _, c := range cases {
		d := ctvg.Dynamic(rec)
		if c.name == "replay" {
			d = replay
		}
		t.Run(c.name, func(t *testing.T) {
			// Garbage collection can add a few runtime allocations to any
			// one run, never remove any, so each length keeps its least
			// count over three runs.
			allocs := func(rounds int) float64 {
				least := math.Inf(1)
				for i := 0; i < 3; i++ {
					least = min(least, testing.AllocsPerRun(1, func() {
						opts := c.opts()
						opts.MaxRounds = rounds
						if met := sim.MustRunProtocol(d, proto, assign, opts); met.Rounds != rounds {
							t.Fatalf("run stopped after %d of %d rounds", met.Rounds, rounds)
						}
					}))
				}
				return least
			}
			short, long := allocs(rounds/2), allocs(rounds)
			if long != short {
				t.Fatalf("%d rounds allocate %.0f times, %d rounds %.0f: the round loop allocates",
					rounds, long, rounds/2, short)
			}
		})
	}
}
