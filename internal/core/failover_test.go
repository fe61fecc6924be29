package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// staticCliqueCluster builds a single stable cluster on a complete graph:
// head 0, members 1..n-1, every pair adjacent. Unlike staticCluster's star,
// members stay mutually connected when the head dies, so self-healing has a
// network to heal over.
func staticCliqueCluster(n int) ctvg.Dynamic {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	h := ctvg.NewHierarchy(n)
	h.SetHead(0)
	for v := 1; v < n; v++ {
		h.SetMember(v, 0)
	}
	return ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
}

func TestFailoverWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Window <= 0")
		}
	}()
	Alg1{T: 5, Failover: &Failover{}}.Nodes(token.SingleSource(3, 1, 0))
}

func TestFailoverNames(t *testing.T) {
	fo := &Failover{Window: 2}
	if got := (Alg1{T: 7, Failover: fo}).Name(); got != "hinet-alg1-failover(T=7)" {
		t.Fatalf("Alg1 name %q", got)
	}
	if got := (Alg2{Failover: fo}).Name(); got != "hinet-alg2-failover" {
		t.Fatalf("Alg2 name %q", got)
	}
}

func TestFailoverFaultFreeNoSpuriousRepair(t *testing.T) {
	// On a healthy network the repair machinery must never trigger: no
	// handovers, no flood fallback, and completion no later than the plain
	// protocol's.
	d := staticCliqueCluster(8)
	assign := token.Spread(8, 4, xrand.New(1))
	plain := sim.MustRunProtocol(d, Alg1{T: 6}, assign, sim.Options{
		MaxRounds: 60, StopWhenComplete: true,
	})
	fo := sim.MustRunProtocol(d, Alg1{T: 6, Failover: &Failover{Window: 2}}, assign, sim.Options{
		MaxRounds: 60, StopWhenComplete: true,
	})
	if !plain.Complete || !fo.Complete {
		t.Fatalf("fault-free runs incomplete: plain %v, failover %v", plain, fo)
	}
	if fo.Handovers != 0 || fo.FloodFallbacks != 0 {
		t.Fatalf("spurious repair on a healthy network: %d handovers, %d floods",
			fo.Handovers, fo.FloodFallbacks)
	}
	if fo.CompletionRound > plain.CompletionRound {
		t.Fatalf("failover slowed a fault-free run: %d vs %d",
			fo.CompletionRound, plain.CompletionRound)
	}

	p2 := sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{MaxRounds: 60, StopWhenComplete: true})
	f2 := sim.MustRunProtocol(d, Alg2{Failover: &Failover{Window: 2}}, assign, sim.Options{
		MaxRounds: 60, StopWhenComplete: true,
	})
	if !f2.Complete || f2.Handovers != 0 || f2.FloodFallbacks != 0 ||
		f2.CompletionRound > p2.CompletionRound {
		t.Fatalf("Alg2 failover diverges fault-free: plain %v, failover %v (%d handovers)",
			p2, f2, f2.Handovers)
	}
}

func TestAlg1HandoverOnHeadCrash(t *testing.T) {
	// The head dies before it has relayed anything; plain Algorithm 1
	// strands every member-held token, the failover variant promotes an
	// acting head and finishes.
	const n = 8
	d := staticCliqueCluster(n)
	assign := token.SingleSource(n, 3, 1) // member 1 holds all tokens
	crash := &sim.Faults{CrashAt: map[int]int{0: 1}}

	plain := sim.MustRunProtocol(d, Alg1{T: 6}, assign, sim.Options{
		MaxRounds: 120, StopWhenComplete: true, Faults: crash,
	})
	if plain.Complete {
		t.Fatalf("plain Alg1 completed across a dead head: %v", plain)
	}

	m := sim.MustRunProtocol(d, Alg1{T: 6, Failover: &Failover{Window: 2, FloodAfter: 1000}}, assign, sim.Options{
		MaxRounds: 120, StopWhenComplete: true, Faults: crash,
	})
	if !m.Complete {
		t.Fatalf("failover Alg1 did not survive the head crash: %v", m)
	}
	if m.Handovers == 0 {
		t.Fatal("no handover recorded — completion happened some other way")
	}
	if m.FloodFallbacks != 0 {
		t.Fatalf("escalated to flooding (%d) though handover suffices", m.FloodFallbacks)
	}
}

func TestAlg1FloodFallbackEscalation(t *testing.T) {
	// With FloodAfter at its default (3×Window) a permanently dead head
	// eventually pushes the cluster into flooding, which also completes.
	const n = 6
	d := staticCliqueCluster(n)
	// Enough tokens that acting-head pipelining cannot finish before the
	// escalation deadline (floodAfter = 3×1) passes.
	assign := token.SingleSource(n, 6, 1)
	m := sim.MustRunProtocol(d, Alg1{T: 8, Failover: &Failover{Window: 1}}, assign, sim.Options{
		MaxRounds: 100, StopWhenComplete: true,
		Faults: &sim.Faults{CrashAt: map[int]int{0: 0}},
	})
	if !m.Complete {
		t.Fatalf("flood fallback did not complete: %v", m)
	}
	if m.FloodFallbacks == 0 {
		t.Fatal("no flood fallback recorded under a permanently dead head with Window=1")
	}
}

func TestAlg2HandoverOnHeadCrash(t *testing.T) {
	const n = 8
	d := staticCliqueCluster(n)
	assign := token.SingleSource(n, 3, 1)
	crash := &sim.Faults{CrashAt: map[int]int{0: 1}}

	plain := sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{
		MaxRounds: 120, StopWhenComplete: true, Faults: crash,
	})
	if plain.Complete {
		t.Fatalf("plain Alg2 completed across a dead head: %v", plain)
	}

	m := sim.MustRunProtocol(d, Alg2{Failover: &Failover{Window: 2}}, assign, sim.Options{
		MaxRounds: 120, StopWhenComplete: true, Faults: crash,
	})
	if !m.Complete {
		t.Fatalf("failover Alg2 did not survive the head crash: %v", m)
	}
	if m.Handovers == 0 {
		t.Fatal("no handover recorded")
	}
}

func TestAlg1HeadRecoveryStandDown(t *testing.T) {
	// The head crashes holding tokens nobody else has, an acting head takes
	// over, then the real head rejoins (tokens retained on stable storage,
	// volatile state reset) and the stand-ins yield. Completion is
	// impossible before the rejoin, so the run proves both the recovery and
	// the stand-down work.
	const n = 8
	d := staticCliqueCluster(n)
	assign := token.SingleSource(n, 4, 0) // all tokens start at the head
	m := sim.MustRunProtocol(d, Alg1{T: 6, Failover: &Failover{Window: 2, FloodAfter: 1000}}, assign, sim.Options{
		// Crash at round 1: only token 0 was broadcast, tokens 1-3 are down
		// with the head until it rejoins at round 11.
		MaxRounds: 300, StopWhenComplete: true,
		Faults: &sim.Faults{CrashAt: map[int]int{0: 1}, RecoverAfter: map[int]int{0: 10}},
	})
	if !m.Complete {
		t.Fatalf("did not complete across crash + recovery: %v", m)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
	if m.Handovers == 0 {
		t.Fatal("outage of 10 rounds with Window=2 produced no handover")
	}
}

func TestCrashRecoveryAtPhaseBoundary(t *testing.T) {
	// Satellite check: crash and recovery landing exactly on phase
	// boundaries (round m·T) must not wedge the phase bookkeeping — the
	// boundary round both clears relay TS and intersects member TS with TR,
	// and the recovering node re-enters exactly there.
	const n, T = 8, 6
	d := staticCliqueCluster(n)
	for _, who := range []int{0, 3} { // the head, then a member
		assign := token.Spread(n, 4, xrand.New(5))
		proto := Alg1{T: T, Failover: &Failover{Window: 2, FloodAfter: 1000}}
		nodes := proto.Nodes(assign)
		// Fixed horizon, no early stop: the run is forced through the crash
		// at round T, the downtime, the rejoin at round 2T and several
		// post-recovery phases, whatever round dissemination finishes in.
		m := sim.MustRun(d, nodes, assign, sim.Options{
			MaxRounds: 8 * T,
			Faults: &sim.Faults{
				CrashAt:      map[int]int{who: T}, // falls exactly at the phase-1 boundary
				RecoverAfter: map[int]int{who: T}, // rejoins exactly at the next one (round 2T)
			},
		})
		if !m.Complete {
			t.Fatalf("node %d: phase-boundary crash/recovery wedged the run: %v", who, m)
		}
		if m.Recoveries != 1 {
			t.Fatalf("node %d: recoveries = %d, want 1", who, m.Recoveries)
		}
		// Stable storage: the rejoined node kept its pre-crash tokens and
		// caught back up to the full set.
		for v, node := range nodes {
			if node.Tokens().Len() != assign.K {
				t.Fatalf("node %d (crash victim %d): final set %v incomplete", v, who, node.Tokens())
			}
		}
	}
}

func TestAlg1ResilientRepairsLostUploads(t *testing.T) {
	// Plain Algorithm 1 marks an uploaded token sent even when the delivery
	// is dropped, stranding it forever (see robustness_test.go). The
	// failover variant re-arms unacknowledged uploads at each phase
	// boundary (TS ∩= TR), so member-held tokens survive heavy loss.
	const n = 6
	d := staticCliqueCluster(n)
	assign := token.SingleSource(n, 1, 3) // member 3 holds the only token
	stranded := 0
	for seed := uint64(0); seed < 6; seed++ {
		faults := &sim.Faults{DropProb: 0.9, Seed: seed}
		plain := sim.MustRunProtocol(d, Alg1{T: 5}, assign, sim.Options{
			MaxRounds: 400, Faults: faults,
		})
		if !plain.Complete {
			stranded++
		}
		res := sim.MustRunProtocol(d, Alg1{T: 5, Failover: &Failover{Window: 3, FloodAfter: 1000}}, assign, sim.Options{
			MaxRounds: 2000, StopWhenComplete: true, Faults: faults,
		})
		if !res.Complete {
			t.Fatalf("seed %d: resilient Alg1 lost the member token at 90%% loss: %v", seed, res)
		}
	}
	if stranded == 0 {
		t.Fatal("plain Alg1 never stranded the upload — the comparison is vacuous")
	}
}

func TestAlg2ImplicitNACKRepairsLostUploads(t *testing.T) {
	// Algorithm 2's one-shot upload is its fragile step. In failover mode
	// the head's full-set broadcast acts as an implicit NACK: a member that
	// sees the head still missing its tokens after the grace window
	// re-uploads.
	const n = 6
	d := staticCliqueCluster(n)
	assign := token.SingleSource(n, 1, 3)
	stranded := 0
	for seed := uint64(0); seed < 6; seed++ {
		faults := &sim.Faults{DropProb: 0.9, Seed: seed}
		plain := sim.MustRunProtocol(d, Alg2{}, assign, sim.Options{
			MaxRounds: 400, Faults: faults,
		})
		if !plain.Complete {
			stranded++
		}
		res := sim.MustRunProtocol(d, Alg2{Failover: &Failover{Window: 3}}, assign, sim.Options{
			MaxRounds: 2000, StopWhenComplete: true, Faults: faults,
		})
		if !res.Complete {
			t.Fatalf("seed %d: failover Alg2 lost the member token at 90%% loss: %v", seed, res)
		}
	}
	if stranded == 0 {
		t.Fatal("plain Alg2 never stranded the upload — the comparison is vacuous")
	}
}

func TestTheorem1HoldsFaultFreeAndDegradesBoundedly(t *testing.T) {
	// Satellite conformance check. Fault-free, the resilient variant must
	// still meet Theorem 1's budget of M = ⌈θ/α⌉ + 1 phases of T rounds
	// (the repair paths are inert without faults, so the theorem's proof
	// carries over). Under 5% i.i.d. loss the bound no longer applies —
	// but completion must degrade by at most an asserted slack factor, not
	// collapse.
	const n, k, alpha, L, theta = 60, 6, 2, 2, 8
	T := Theorem1T(k, alpha, L)
	budget := Theorem1Phases(theta, alpha) * T
	const slack = 4 // lossy runs may take up to 4x the theorem budget

	for seed := uint64(0); seed < 3; seed++ {
		mk := func() ctvg.Dynamic {
			return adversary.NewHiNet(adversary.HiNetConfig{
				N: n, Theta: theta, L: L, T: T, Reaffiliations: 3, ChurnEdges: 4,
			}, xrand.New(seed))
		}
		assign := token.Spread(n, k, xrand.New(seed+100))
		proto := Alg1{T: T, Failover: &Failover{Window: 3, FloodAfter: 1000}}

		clean := sim.MustRunProtocol(mk(), proto, assign, sim.Options{
			MaxRounds: budget, StopWhenComplete: true,
		})
		if !clean.Complete {
			t.Fatalf("seed %d: fault-free resilient Alg1 missed Theorem 1's budget of %d rounds: %v",
				seed, budget, clean)
		}
		if clean.Handovers != 0 || clean.FloodFallbacks != 0 {
			t.Fatalf("seed %d: repair fired without faults (%d handovers, %d floods)",
				seed, clean.Handovers, clean.FloodFallbacks)
		}

		lossy := sim.MustRunProtocol(mk(), proto, assign, sim.Options{
			MaxRounds: slack * budget, StopWhenComplete: true,
			Faults: &sim.Faults{DropProb: 0.05, Seed: seed + 1},
		})
		if !lossy.Complete {
			t.Fatalf("seed %d: 5%% loss pushed completion past %dx the theorem budget (%d rounds): %v",
				seed, slack, slack*budget, lossy)
		}
	}
}

func TestAllHeadsCrashMidPhaseStillDisseminates(t *testing.T) {
	// Acceptance criterion: crash every live cluster head mid-phase; the
	// self-healing path (handover, and flooding if it comes to that) must
	// still deliver all k tokens to every surviving node.
	const n, k, alpha, L, theta = 50, 5, 2, 2, 6
	T := Theorem1T(k, alpha, L)
	for seed := uint64(0); seed < 3; seed++ {
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: L, T: T, Reaffiliations: 2, ChurnEdges: 8,
		}, xrand.New(seed))
		assign := token.Spread(n, k, xrand.New(seed+200))
		m := sim.MustRunProtocol(adv, Alg1{T: T, Failover: &Failover{Window: 3}}, assign, sim.Options{
			MaxRounds:        60 * T,
			StopWhenComplete: true,
			StallWindow:      20 * T,
			Faults: &sim.Faults{
				Seed:            seed,
				HeadCrashRounds: []int{T + T/2}, // mid-phase decapitation
			},
		})
		if !m.Complete {
			t.Fatalf("seed %d: dissemination died with the head set: %v (stall: %v)", seed, m, m.Stall)
		}
		if m.Handovers == 0 && m.FloodFallbacks == 0 {
			t.Fatalf("seed %d: completed but no repair action recorded — heads not actually crashed?", seed)
		}
	}
}
