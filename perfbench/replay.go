package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// replay10k replays a 10,000-node HiNet recording made the way
// `hinettrace record` makes one (its default shape scaled to n=10000:
// θ=10, L=2, T=12, 3 re-affiliations per boundary, 5 churn edges per
// round), written once per process in the v2 delta format and decoded by
// trace.Read in every repetition's set-up.
const (
	replayN      = 10_000
	replayK      = 16
	replayRounds = 600
)

// replayHealth is the recorder's rule set: the stall, queue and
// conservation rules judge simulated state only, so their verdicts are
// deterministic and pinned.
const replayHealth = "stall>=40,queue<=64,conservation"

// replayTrace is the recording, encoded once per process by replayPrepare.
var replayTrace []byte

func replayPrepare(seed uint64) error {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: replayN, Theta: 10, L: 2, T: 12,
		Reaffiliations: 3, ChurnEdges: 5,
	}, xrand.New(mix(seed, 1)))
	var buf bytes.Buffer
	if err := trace.WriteDelta(&buf, ctvg.Record(adv, replayRounds)); err != nil {
		return err
	}
	replayTrace = buf.Bytes()
	return nil
}

// replayOut is the simulated output the check pins: the run's Metrics,
// digests of the event and provenance streams, the timing stream's record
// count (its records carry durations), and the recorder's verdicts.
type replayOut struct {
	Metrics          *sim.Metrics
	Events           digest
	Provenance       digest
	TimingRecords    int64
	HealthViolations int
	Bundles          int
}

func replayRep(r *rep) (any, error) {
	var heapBefore uint64
	if r.traced {
		heapBefore = liveAfterGC()
	}
	t0 := time.Now()
	tr, err := trace.Read(bytes.NewReader(replayTrace))
	decode := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if r.traced {
		r.layer("trace.decode_s", decode.Seconds())
		r.layer("trace.heap_mb", float64(liveAfterGC()-heapBefore)/1e6)
	}

	assign := token.Spread(replayN, replayK, xrand.New(mix(r.seed, 2)))
	plan := &sim.Faults{
		Seed:     mix(r.seed, 3),
		DropProb: 0.02,
		Burst:    &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.25, DropBad: 0.8},
		// Every elected head crashes at round 60 and rejoins 20 rounds
		// later.
		HeadCrashRounds:   []int{60},
		HeadCrashDowntime: 20,
	}
	// The cap, not the window, ends the arrivals: every seed injects the
	// same number of tokens (the window ends later than the cap is reached
	// on any plausible draw), so seeds differ in where tokens land, not in
	// how much work there is.
	arr := &sim.Arrivals{Rate: 0.5, Seed: mix(r.seed, 4), Stop: 300, MaxTokens: 48}
	rules, err := health.ParseRules(replayHealth)
	if err != nil {
		return nil, err
	}
	dumps, err := scratchDir("dumps")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dumps)
	events := &sinkWriter{timed: r.traced}
	timing := &sinkWriter{timed: r.traced}
	prov := &sinkWriter{timed: r.traced}
	rec := recorder.New(recorder.Config{
		Obs: obs.Config{
			N: replayN, K: replayK, PhaseLen: 1,
			Sink: events, SizeFn: wire.Size, Arrivals: true,
		},
		Rules:     rules,
		DumpDir:   dumps,
		Prefix:    "replay10k",
		FaultPlan: plan,
	})
	tm := obs.NewTiming(obs.TimingConfig{Sink: timing})
	pv := provenance.New(provenance.Config{Sink: prov})
	nodes := core.Alg2{Failover: &core.Failover{Window: 3}}.Nodes(assign)
	opts := sim.Options{
		MaxRounds:     replayRounds,
		SizeFn:        wire.Size,
		Observer:      rec.Observer(),
		Tracer:        pv,
		Faults:        plan,
		Arrivals:      arr,
		SelfStabilize: &sim.SelfStabilize{Watchdog: 8},
		StallWindow:   60,
		Workers:       2,
		Timing:        rec.TimingSink(tm),
		Stop:          r.barrier,
	}
	var d ctvg.Dynamic = tr
	var td *timedDynamic
	var ct *countingTracer
	if r.traced {
		td = newTimedDynamic(tr)
		d = td
		ct = newCountingTracer(pv)
		opts.Tracer = ct
	}

	r.beginRun()
	met, err := sim.Run(d, nodes, assign, opts)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	perr := pv.Flush()
	t2 := time.Now()
	terr := tm.Flush()
	t3 := time.Now()
	rerr := rec.Close()
	t4 := time.Now()
	r.endRun()
	for _, err := range []error{perr, terr, rerr} {
		if err != nil {
			return nil, err
		}
	}
	r.nodeRounds = int64(replayN) * int64(met.Rounds)

	if !met.Complete || met.Stall != nil {
		return nil, fmt.Errorf("run did not complete: %v", met)
	}
	if int64(replayK)+met.TokensInjected != met.TokensCollected+int64(met.OutstandingTokens) {
		return nil, fmt.Errorf("tokens not conserved: k=%d + injected %d != collected %d + outstanding %d",
			replayK, met.TokensInjected, met.TokensCollected, met.OutstandingTokens)
	}
	out := replayOut{
		Metrics:          met,
		Events:           events.digest(),
		Provenance:       prov.digest(),
		TimingRecords:    timing.lines,
		HealthViolations: rec.Health().Violations(),
		Bundles:          len(rec.Bundles()),
	}
	if out.TimingRecords != int64(met.Rounds) {
		return nil, fmt.Errorf("timing stream has %d records for %d rounds", out.TimingRecords, met.Rounds)
	}
	if r.traced {
		r.layer("ctvg.fetch_ms", ms(td.ns))
		r.stageLayers(tm, len(ct.shards))
		r.protocolLayers(met, ct)
		r.layer("faults.drops", float64(met.Drops))
		r.layer("selfstab.beacons", float64(met.MaintenanceBeacons))
		r.layer("selfstab.elections", float64(met.Elections))
		r.layer("sim.tokens_injected", float64(met.TokensInjected))
		r.layer("sim.tokens_collected", float64(met.TokensCollected))
		r.layer("obs.events_bytes", float64(events.bytes))
		r.layer("obs.events_write_ms", ms(events.ns))
		r.layer("obs.timing_bytes", float64(timing.bytes))
		r.layer("obs.timing_write_ms", ms(timing.ns))
		r.layer("provenance.bytes", float64(prov.bytes))
		r.layer("provenance.write_ms", ms(prov.ns))
		r.layer("provenance.flush_ms", ms(int64(t2.Sub(t1))))
		r.layer("recorder.close_ms", ms(int64(t4.Sub(t3))))
		r.layer("recorder.bundles", float64(out.Bundles))
		r.layer("health.violations", float64(out.HealthViolations))
	}
	return out, nil
}
