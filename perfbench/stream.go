package main

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// stream100k is BenchmarkHiNet100k's instance: a 100,000-node (20, 2)-HiNet
// with θ=50 heads, n/50 re-affiliations and 2 head rotations per phase
// boundary, generated live and streamed forward-only into a serial engine,
// Algorithm 1 over the full Theorem 1 budget with wire-size accounting.
const (
	streamN     = 100_000
	streamK     = 16
	streamAlpha = 2
	streamL     = 2
	streamTheta = 50
)

func streamRep(r *rep) (any, error) {
	T := core.Theorem1T(streamK, streamAlpha, streamL)
	phases := core.Theorem1Phases(streamTheta, streamAlpha)
	// Seed s draws the adversary from 2s-1 and the assignment from 2s, so
	// the default seed 1 is BenchmarkHiNet100k's instance exactly.
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: streamN, Theta: streamTheta, L: streamL, T: T,
		Reaffiliations: streamN / 50, HeadChurn: 2,
	}, xrand.New(2*r.seed-1)).ForwardOnly()
	assign := token.Spread(streamN, streamK, xrand.New(2*r.seed))
	nodes := core.Alg1{T: T}.Nodes(assign)
	opts := sim.Options{MaxRounds: phases * T, SizeFn: wire.Size, Stop: r.barrier}
	var d ctvg.Dynamic = adv
	var td *timedDynamic
	var ct *countingTracer
	var tm *obs.Timing
	if r.traced {
		td = newTimedDynamic(adv)
		d = td
		ct = newCountingTracer(nil)
		opts.Tracer = ct
		// One resource sample (round 0) instead of one every 32 rounds:
		// each sample stops the world.
		tm = obs.NewTiming(obs.TimingConfig{SampleEvery: opts.MaxRounds})
		opts.Timing = tm
	}

	r.beginRun()
	met, err := sim.Run(d, nodes, assign, opts)
	r.endRun()
	if err != nil {
		return nil, err
	}
	r.nodeRounds = int64(streamN) * int64(met.Rounds)
	if !met.Complete {
		return nil, fmt.Errorf("dissemination incomplete: %v", met)
	}
	if r.traced {
		if td.fetches != phases {
			return nil, fmt.Errorf("the engine opened %d windows on the decorated dynamic, want %d: its stability cache is off", td.fetches, phases)
		}
		r.layer("adversary.fetch_ms", ms(td.ns))
		r.layer("adversary.windows", float64(td.fetches))
		r.layer("adversary.phases", float64(adv.Stats().Phases))
		r.stageLayers(tm, len(ct.shards))
		r.protocolLayers(met, ct)
	}
	return met, nil
}
