package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	hinetmodel "repro/internal/hinet"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// TestSoakRandomConfigurations is the randomized campaign: random legal
// (T, L)-HiNet configurations, each model-checked and then required to
// satisfy Theorem 1 (Algorithm 1) and Theorem 2 (Algorithm 2). It is the
// broad-spectrum safety net behind the targeted theorem tests. Use
// -short to skip.
func TestSoakRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const configs = 25
	rng := xrand.New(0xC0FFEE)
	for i := 0; i < configs; i++ {
		n := 20 + rng.Intn(60)
		L := 1 + rng.Intn(3)
		// Feasibility: heads + gateways must fit with room for members.
		maxHeads := (n/2 - 1) / L
		if maxHeads < 2 {
			maxHeads = 2
		}
		theta := 2 + rng.Intn(maxHeads)
		heads := theta
		k := 1 + rng.Intn(8)
		alpha := 1 + rng.Intn(4)
		T := Theorem1T(k, alpha, L)
		cfg := adversary.HiNetConfig{
			N: n, Theta: theta, Heads: heads, L: L, T: T,
			Reaffiliations: rng.Intn(4),
			ChurnEdges:     rng.Intn(8),
		}
		phases := Theorem1Phases(theta, alpha)
		seed := rng.Uint64()

		// The check and the run read one recording of the adversary.
		rec := ctvg.Record(adversary.NewHiNet(cfg, xrand.New(seed)), phases*T)
		if err := (hinetmodel.Model{T: T, L: L}).CheckValid(rec, phases); err != nil {
			t.Fatalf("config %d (%+v): model violated: %v", i, cfg, err)
		}
		assign := token.Spread(n, k, xrand.New(seed+1))
		m1 := sim.MustRunProtocol(rec, Alg1{T: T}, assign,
			sim.Options{MaxRounds: phases * T, StopWhenComplete: true})
		if !m1.Complete {
			t.Fatalf("config %d (%+v): Theorem 1 violated: %v", i, cfg, m1)
		}

		// The same configuration at T=1 dynamics for Algorithm 2.
		adv2 := adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, Heads: heads, L: L, T: 1,
			Reaffiliations: rng.Intn(4),
			ChurnEdges:     rng.Intn(8),
		}, xrand.New(seed+2))
		m2 := sim.MustRunProtocol(adv2, Alg2{}, assign,
			sim.Options{MaxRounds: Theorem2Rounds(n), StopWhenComplete: true})
		if !m2.Complete {
			t.Fatalf("config %d (%+v): Theorem 2 violated: %v", i, cfg, m2)
		}
	}
}

// TestSoakParallelEngineAgreement runs a slice of the campaign through the
// parallel engine and requires bit-identical results to serial execution.
func TestSoakParallelEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := xrand.New(0xBEEF)
	for i := 0; i < 8; i++ {
		n := 30 + rng.Intn(40)
		k := 2 + rng.Intn(6)
		theta := 4 + rng.Intn(6)
		T := Theorem1T(k, 2, 2)
		cfg := adversary.HiNetConfig{
			N: n, Theta: theta, L: 2, T: T,
			Reaffiliations: 2, ChurnEdges: 5,
		}
		phases := Theorem1Phases(theta, 2)
		seed := rng.Uint64()
		run := func(workers int) *sim.Metrics {
			adv := adversary.NewHiNet(cfg, xrand.New(seed))
			assign := token.Spread(n, k, xrand.New(seed+1))
			return sim.MustRunProtocol(adv, Alg1{T: T}, assign,
				sim.Options{MaxRounds: phases * T, Workers: workers})
		}
		serial, par := run(1), run(4)
		if serial.TokensSent != par.TokensSent ||
			serial.CompletionRound != par.CompletionRound ||
			serial.Messages != par.Messages {
			t.Fatalf("config %d: engines disagree: %v vs %v", i, serial, par)
		}
	}
}
