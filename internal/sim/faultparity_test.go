package sim_test

// Satellite regression for the fault subsystem: under a full fault plan —
// i.i.d. drops, Gilbert–Elliott bursty loss, duplication, crash-recovery
// and head-targeted crashes — a 4-worker run must be indistinguishable
// from the serial run: identical Metrics and a byte-identical JSONL
// observer stream. Under `go test -race` this also proves the fault path
// (counter-based RNG, per-shard burst state, note buffering) is race-free.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// fullFaultPlan is the resilient Algorithm 1 on a churning HiNet under
// every fault class at once, without the self-stabilizing hierarchy, so
// delivery takes the per-sender Drop path. The adversary is rebuilt per
// call so each run replays the same dynamics.
func fullFaultPlan(workers int) (ctvg.Dynamic, sim.Protocol, *token.Assignment, int, sim.Options) {
	const n, k, T, theta, L = 60, 6, 10, 8, 2
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: theta, L: L, T: T,
		Reaffiliations: 4, ChurnEdges: 6,
	}, xrand.New(3))
	assign := token.Spread(n, k, xrand.New(4))
	return adv, core.Alg1{T: T, Failover: &core.Failover{Window: 3}}, assign, T, sim.Options{
		MaxRounds:   20 * T,
		Workers:     workers,
		StallWindow: 6 * T,
		Faults: &sim.Faults{
			Seed:              11,
			DropProb:          0.05,
			Burst:             &faults.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.4, DropBad: 0.8},
			DupProb:           0.02,
			CrashAt:           map[int]int{7: 5, 19: 12},
			RecoverAfter:      map[int]int{7: 9},
			HeadCrashRounds:   []int{15},
			HeadCrashDowntime: 8,
		},
	}
}

// runFullFaultPlan executes fullFaultPlan and returns metrics plus the raw
// JSONL.
func runFullFaultPlan(t *testing.T, workers int) (*sim.Metrics, []byte) {
	t.Helper()
	adv, proto, assign, phaseLen, opts := fullFaultPlan(workers)
	var sink bytes.Buffer
	col := obs.NewCollector(obs.Config{N: adv.N(), K: assign.K, PhaseLen: phaseLen, Sink: &sink})
	opts.Observer = col.Observer()
	met, err := sim.RunProtocol(adv, proto, assign, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := col.Flush(); err != nil {
		t.Fatalf("collector: %v", err)
	}
	return met, sink.Bytes()
}

func TestFaultPlanParallelByteIdentical(t *testing.T) {
	ref, refJSON := runFullFaultPlan(t, 1)
	if len(refJSON) == 0 {
		t.Fatal("reference run produced no events")
	}
	// The plan must actually exercise every fault class, or the parity
	// claim is vacuous.
	if ref.Drops == 0 || ref.Dups == 0 || ref.Recoveries == 0 {
		t.Fatalf("fault plan under-exercised: drops=%d dups=%d recoveries=%d",
			ref.Drops, ref.Dups, ref.Recoveries)
	}
	for _, workers := range []int{2, 4} {
		met, jsonl := runFullFaultPlan(t, workers)
		if !reflect.DeepEqual(met, ref) {
			t.Errorf("workers=%d: metrics diverge:\n  got  %+v\n  want %+v", workers, met, ref)
		}
		if !bytes.Equal(jsonl, refJSON) {
			t.Errorf("workers=%d: JSONL stream diverges from serial run (%d vs %d bytes)",
				workers, len(jsonl), len(refJSON))
		}
	}
}
