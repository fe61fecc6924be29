package sim_test

// The stability-window cache must be a pure optimisation: under any mix of
// reaffiliations, head churn and mid-window crashes, a cached run and an
// uncached run — serial or parallel — must produce identical Metrics and
// byte-identical JSONL observer streams. The engine caches exactly when the
// dynamic implements ctvg.Stability, so the uncached runs wrap the dynamic
// in hiddenStability. This file is the adversarial check behind that
// promise (it lives in sim_test because the obs collector imports sim).

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// hiddenStability forwards a dynamic's rounds but not its StableUntil, so
// the engine refreshes graph, hierarchy and views every round.
type hiddenStability struct{ ctvg.Dynamic }

// runCollected executes Algorithm 1 on d with a JSONL collector attached and
// returns the metrics plus the raw event stream.
func runCollected(t *testing.T, d ctvg.Dynamic, assign *token.Assignment, T, rounds, workers int, crashAt map[int]int) (*sim.Metrics, []byte) {
	t.Helper()
	var sink bytes.Buffer
	col := obs.NewCollector(obs.Config{
		N: d.N(), K: assign.K, PhaseLen: T, Sink: &sink, SizeFn: wire.Size,
	})
	opts := sim.Options{
		MaxRounds: rounds,
		Observer:  col.Observer(),
		SizeFn:    wire.Size,
		Workers:   workers,
	}
	if crashAt != nil {
		opts.Faults = &sim.Faults{CrashAt: crashAt}
	}
	met := sim.MustRunProtocol(d, core.Alg1{T: T}, assign, opts)
	if err := col.Flush(); err != nil {
		t.Fatalf("collector: %v", err)
	}
	return met, sink.Bytes()
}

func TestStabilityCacheEquivalence(t *testing.T) {
	const n, k, alpha, L = 80, 8, 2, 2
	theta := 12
	T := core.Theorem1T(k, alpha, L)
	rounds := core.Theorem1Phases(theta, alpha) * T

	// An adversary generates its rounds once, so every live run gets a
	// fresh one.
	hiNet := func() ctvg.Dynamic {
		return adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: L, T: T,
			Reaffiliations: 6, HeadChurn: 2, // churn-heavy: every boundary moves nodes and replaces heads
		}, xrand.New(1))
	}
	trace := ctvg.Record(hiNet(), rounds)
	if s := trace.StableUntil(0); s <= 0 {
		t.Fatalf("trace advertises no stable window (StableUntil(0)=%d); the cache would never engage", s)
	}
	assign := token.Spread(n, k, xrand.New(2))

	// Crashes land strictly inside stability windows, so the crashed-node
	// bookkeeping must work against frozen views.
	crashAt := map[int]int{5: 3, 33: T + 3, 61: 2*T + 7}

	dynamics := []struct {
		name string
		d    func() ctvg.Dynamic
	}{
		{"recorded-trace", func() ctvg.Dynamic { return trace }}, // ctvg.DeltaTrace.StableUntil (recorded windows)
		{"live-hinet", hiNet}, // adversary.HiNet.StableUntil (phase arithmetic)
	}
	for _, dyn := range dynamics {
		t.Run(dyn.name, func(t *testing.T) {
			refMet, refJSON := runCollected(t, dyn.d(), assign, T, rounds, 1, crashAt)
			if len(refJSON) == 0 {
				t.Fatal("reference run produced no events")
			}
			for _, tc := range []struct {
				name     string
				workers  int
				uncached bool
			}{
				{"serial-uncached", 1, true},
				{"parallel-cached", 4, false},
				{"parallel-uncached", 4, true},
			} {
				d := dyn.d()
				if tc.uncached {
					d = hiddenStability{d}
				}
				met, jsonl := runCollected(t, d, assign, T, rounds, tc.workers, crashAt)
				if !reflect.DeepEqual(met, refMet) {
					t.Errorf("%s: metrics diverge:\n  got  %+v\n  want %+v", tc.name, met, refMet)
				}
				if !bytes.Equal(jsonl, refJSON) {
					t.Errorf("%s: JSONL stream diverges from serial cached run (%d vs %d bytes)",
						tc.name, len(jsonl), len(refJSON))
				}
			}
		})
	}
}
