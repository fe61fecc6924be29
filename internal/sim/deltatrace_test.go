package sim_test

// Recording must be transparent: running any protocol over a
// ctvg.DeltaTrace (O(changes) storage, materialising cursor) must produce
// identical Metrics and byte-identical observer AND provenance JSONL
// streams as the same run over the seeded generator it was recorded from,
// run live — serial and on 4 workers. This is the conformance oracle for
// the recording pipeline; it rides `make race` so the stateful cursor is
// also proven safe under the engine's worker parallelism (snapshots are
// fetched by the coordinating goroutine only).

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// runStreams executes proto on d with both a JSONL collector and a
// provenance tracer attached, and returns the metrics plus both raw streams.
func runStreams(t *testing.T, d ctvg.Dynamic, proto sim.Protocol, assign *token.Assignment, phaseLen, rounds, workers int, crashAt map[int]int) (*sim.Metrics, []byte, []byte) {
	t.Helper()
	var obsSink, provSink bytes.Buffer
	col := obs.NewCollector(obs.Config{
		N: d.N(), K: assign.K, PhaseLen: phaseLen, Sink: &obsSink, SizeFn: wire.Size,
	})
	tr := provenance.New(provenance.Config{Sink: &provSink})
	opts := sim.Options{
		MaxRounds: rounds,
		Observer:  col.Observer(),
		Tracer:    tr,
		SizeFn:    wire.Size,
		Workers:   workers,
	}
	if crashAt != nil {
		opts.Faults = &sim.Faults{CrashAt: crashAt}
	}
	met := sim.MustRunProtocol(d, proto, assign, opts)
	if err := col.Flush(); err != nil {
		t.Fatalf("collector: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("tracer: %v", err)
	}
	return met, obsSink.Bytes(), provSink.Bytes()
}

func TestDeltaTraceMatchesSnapshots(t *testing.T) {
	const n, k, alpha, L = 80, 8, 2, 2
	theta := 12
	T := core.Theorem1T(k, alpha, L)
	rounds := core.Theorem1Phases(theta, alpha) * T

	cfg := adversary.HiNetConfig{
		N: n, Theta: theta, L: L, T: T,
		Reaffiliations: 6, HeadChurn: 2,
	}
	// Same seed, independent adversaries: one recorded, and a fresh one
	// for each oracle run, which reads the generator live.
	live := func() ctvg.Dynamic { return adversary.NewHiNet(cfg, xrand.New(1)) }
	deltaTrace := ctvg.Record(live(), rounds)
	assign := token.Spread(n, k, xrand.New(2))
	crashAt := map[int]int{5: 3, 33: T + 3, 61: 2*T + 7}

	scenarios := []struct {
		name    string
		proto   sim.Protocol
		crashAt map[int]int
	}{
		{"alg1", core.Alg1{T: T}, nil},
		{"alg2", core.Alg2{}, nil},
		// Crashes exercise failover (acting heads, floods, NACK re-uploads),
		// the densest source of observer and provenance events.
		{"alg1-failover", core.Alg1{T: T, Failover: &core.Failover{Window: 2}}, crashAt},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			refMet, refObs, refProv := runStreams(t, live(), sc.proto, assign, T, rounds, 1, sc.crashAt)
			if len(refObs) == 0 || len(refProv) == 0 {
				t.Fatal("live oracle run produced empty streams")
			}
			for _, tc := range []struct {
				name    string
				workers int
			}{
				{"delta-serial", 1},
				{"delta-parallel", 4},
			} {
				met, obsJSON, provJSON := runStreams(t, deltaTrace, sc.proto, assign, T, rounds, tc.workers, sc.crashAt)
				if !reflect.DeepEqual(met, refMet) {
					t.Errorf("%s: metrics diverge:\n  got  %+v\n  want %+v", tc.name, met, refMet)
				}
				if !bytes.Equal(obsJSON, refObs) {
					t.Errorf("%s: observer JSONL diverges from the live run (%d vs %d bytes)",
						tc.name, len(obsJSON), len(refObs))
				}
				if !bytes.Equal(provJSON, refProv) {
					t.Errorf("%s: provenance JSONL diverges from the live run (%d vs %d bytes)",
						tc.name, len(provJSON), len(refProv))
				}
			}
		})
	}
}
