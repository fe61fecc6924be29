package experiment

// Steady-state load testing: run one protocol under continuous token
// traffic on its natural adversary and report throughput, queue depth and
// latency against the Theorem 1 pace — the saturation view that the
// fixed-batch Table 3 rows cannot give.

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/provenance"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// ArrivalConfig configures one steady-state load measurement.
type ArrivalConfig struct {
	// P is the operating point (n0, θ, k, α, L as in PointConfig.P; NR is
	// ignored — the load harness runs without re-affiliation churn unless
	// ChurnEdges adds topology churn).
	P analysis.Params
	// Proto selects the protocol/adversary pairing: "alg2" ((1, L)-HiNet,
	// the default), "alg1" ((T, L)-HiNet with T = k+αL), or "flood"
	// (1-interval connected flooding on a flat network).
	Proto string
	// Arrivals is the traffic process. Stop must be positive — it is the
	// measurement window; the run then gets 4·n0 rounds more to empty the
	// queue before it is declared backlogged, and the engine's stall
	// watchdog ends a run whose queue stays wedged that long. The initial
	// k-token batch rides along as usual.
	Arrivals sim.Arrivals
	// SLA, when positive, attaches the provenance per-token deadline
	// monitor and reports the violation count (collected late or still
	// outstanding at the end).
	SLA int
	// ChurnEdges matches PointConfig.ChurnEdges: extra random edges per
	// round on the HiNet adversaries. The flood pairing's 1-interval
	// adversary redraws every edge each round (a bare spanning tree, as in
	// the Table 3 flood row), so it ignores ChurnEdges.
	ChurnEdges int
	// Seed drives topology and assignment randomness; the arrival process
	// draws from its own Arrivals.Seed.
	Seed uint64
	// Workers is the engine shard count, as sim.Options.Workers: 0 cuts
	// one shard per 4096 nodes, at most GOMAXPROCS; 1 keeps the run
	// serial. Results are bit-identical either way.
	Workers int
	// HealthRules, when non-empty, attaches the online health engine
	// (internal/obs/health) with this rule spec; DumpDir, when non-empty,
	// receives a postmortem bundle per anomaly (internal/obs/recorder).
	// Either one arms the flight recorder.
	HealthRules string
	DumpDir     string
	// Stop, when non-nil, is polled at every round barrier; once it
	// returns true the run ends cleanly at its current round. The hook for
	// SIGINT-driven graceful shutdown.
	Stop func() bool
}

// ArrivalResult is one measured load point.
type ArrivalResult struct {
	// Proto is the protocol that ran.
	Proto string
	// OfferedRate is the duty-cycle-adjusted offered load in tokens per
	// round (Rate scaled by OnRounds/(OnRounds+OffRounds) when bursty).
	OfferedRate float64
	// Rounds is the number of rounds actually executed.
	Rounds int
	// Injected counts dynamically injected tokens (initial batch
	// excluded); Collected counts garbage-collected tokens (batch
	// included).
	Injected  int64
	Collected int64
	// PeakOutstanding / FinalOutstanding are the high-water and end-of-run
	// queue depths (live tokens, batch included).
	PeakOutstanding  int
	FinalOutstanding int
	// Throughput is collected tokens per executed round.
	Throughput float64
	// LatencyP50 / LatencyP99 / LatencyMax summarise the injection-to-
	// collection latency distribution in rounds (NaN when nothing was
	// collected).
	LatencyP50 float64
	LatencyP99 float64
	LatencyMax float64
	// SLAViolations counts per-token deadline misses (0 unless SLA set).
	SLAViolations int
	// HealthViolations counts SLO-rule violations and Bundles the
	// postmortem bundles written (0 unless HealthRules/DumpDir armed the
	// flight recorder).
	HealthViolations int
	Bundles          int
	// PaceThroughput is the Theorem 1 reference rate k/(M·T) tokens per
	// round — k tokens disseminated per M = ⌈θ/α⌉+1 phases of T = k+α·L
	// rounds. Saturation is OfferedRate / PaceThroughput: offered load as
	// a multiple of what the worst-case bound guarantees drains.
	PaceThroughput float64
	Saturation     float64
	// Complete reports a fully drained run; Verdict summarises the
	// outcome: "drained" (queue emptied within budget), "backlogged"
	// (budget exhausted with tokens outstanding) or "stalled" (the
	// watchdog saw a wedged queue).
	Complete bool
	Verdict  string
}

// ArrivalPoint builds an ArrivalConfig at a Table 3-proportioned operating
// point of n0 nodes and a k-token initial batch (θ ≈ 0.3·n0, α = 5, L = 2 —
// the SweepN0 scaling). Callers fill in the traffic process.
func ArrivalPoint(n0, k int) ArrivalConfig {
	return ArrivalConfig{P: scalePoint(n0, k, 5, 2, 0, 0, 1, 0).P}
}

// ArrivalLoad runs one steady-state load point and reports it.
func ArrivalLoad(cfg ArrivalConfig) (ArrivalResult, error) {
	p := cfg.P
	if err := p.Validate(); err != nil {
		return ArrivalResult{}, err
	}
	if err := cfg.Arrivals.Validate(p.N0); err != nil {
		return ArrivalResult{}, err
	}
	if cfg.Arrivals.Stop <= 0 {
		return ArrivalResult{}, fmt.Errorf("experiment: arrival load needs a finite measurement window (Arrivals.Stop > 0)")
	}
	n, k, T := p.N0, p.K, p.T()
	drain := 4 * n

	rng := xrand.New(cfg.Seed)
	var d ctvg.Dynamic
	var proto sim.Protocol
	// Health rules need phase structure: Algorithm 1's phases, one round
	// otherwise. Theorem 1's schedule, and so the pace rule, governs
	// Algorithm 1 only.
	phaseLen := 1
	var budget *provenance.Budget
	name := cfg.Proto
	switch cfg.Proto {
	case "", "alg2":
		name = "alg2"
		d = adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: p.Theta, L: p.L, T: 1, ChurnEdges: cfg.ChurnEdges,
		}, rng)
		proto = core.Alg2{}
	case "alg1":
		d = adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: p.Theta, L: p.L, T: T, ChurnEdges: cfg.ChurnEdges,
		}, rng)
		proto = core.Alg1{T: T}
		phaseLen = T
		budget = &provenance.Budget{
			PhaseLen: T, Phases: core.Theorem1Phases(p.Theta, p.Alpha),
			Alpha: p.Alpha, Theta: p.Theta,
		}
	case "flood":
		d = sim.NewFlat(adversary.NewOneInterval(n, 0, rng))
		proto = baseline.Flood{}
	default:
		return ArrivalResult{}, fmt.Errorf("experiment: unknown arrival protocol %q (want alg2, alg1 or flood)", cfg.Proto)
	}

	rules, err := health.ParseRules(cfg.HealthRules)
	if err != nil {
		return ArrivalResult{}, fmt.Errorf("experiment: %w", err)
	}
	reg := obs.NewRegistry()
	arr := cfg.Arrivals
	opts := sim.Options{
		MaxRounds:        arr.Stop + drain,
		StopWhenComplete: true,
		StallWindow:      drain,
		Workers:          cfg.Workers,
		Arrivals:         &arr,
	}
	if cfg.Stop != nil {
		stop := cfg.Stop
		opts.Stop = func(int) bool { return stop() }
	}
	sinks, err := recorder.Open(recorder.SinkConfig{
		Recorder: recorder.Config{
			Obs:     obs.Config{N: n, K: k, PhaseLen: phaseLen, Registry: reg},
			Rules:   rules,
			DumpDir: cfg.DumpDir,
			Prefix:  "arrival_" + name,
		},
		Provenance: provenance.Config{Budget: budget, SLA: cfg.SLA, Registry: reg},
	}, &opts)
	if err != nil {
		return ArrivalResult{}, err
	}
	assign := token.Spread(n, k, xrand.New(cfg.Seed^0xabcdef))
	met, err := sim.RunProtocol(d, proto, assign, opts)
	if cerr := sinks.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ArrivalResult{}, err
	}

	offered := arr.Rate
	if arr.OnRounds > 0 {
		offered *= float64(arr.OnRounds) / float64(arr.OnRounds+arr.OffRounds)
	}
	pace := float64(k) / float64(core.Theorem1Phases(p.Theta, p.Alpha)*T)
	res := ArrivalResult{
		Proto:            name,
		OfferedRate:      offered,
		Rounds:           met.Rounds,
		Injected:         met.TokensInjected,
		Collected:        met.TokensCollected,
		PeakOutstanding:  met.PeakOutstanding,
		FinalOutstanding: met.OutstandingTokens,
		Throughput:       float64(met.TokensCollected) / float64(met.Rounds),
		LatencyP50:       sinks.Collector.LatencyQuantile(0.50),
		LatencyP99:       sinks.Collector.LatencyQuantile(0.99),
		LatencyMax:       reg.Histogram("sim_token_latency_rounds", "", obs.LatencyBuckets).Max(),
		PaceThroughput:   pace,
		Saturation:       offered / pace,
		Complete:         met.Complete,
	}
	if sinks.Tracer != nil {
		res.SLAViolations = sinks.Tracer.SLAViolationCount()
	}
	if rec := sinks.Recorder; rec != nil {
		if h := rec.Health(); h != nil {
			res.HealthViolations = h.Violations()
		}
		res.Bundles = len(rec.Bundles())
	}
	switch {
	case met.Stall != nil:
		res.Verdict = "stalled"
	case met.Complete:
		res.Verdict = "drained"
	default:
		res.Verdict = "backlogged"
	}
	return res, nil
}

// ArrivalSweep measures the same configuration at several offered rates
// (each rate replaces Arrivals.Rate; everything else is shared).
func ArrivalSweep(cfg ArrivalConfig, rates []float64) ([]ArrivalResult, error) {
	out := make([]ArrivalResult, 0, len(rates))
	for _, rate := range rates {
		c := cfg
		c.Arrivals.Rate = rate
		res, err := ArrivalLoad(c)
		if err != nil {
			return nil, fmt.Errorf("experiment: rate %v: %w", rate, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ArrivalTable renders load points in the steady-state report layout.
func ArrivalTable(title string, results []ArrivalResult) *report.Table {
	tb := report.NewTable(title,
		"proto", "offered/rnd", "rounds", "injected", "collected",
		"peak queue", "tput/rnd", "p50", "p99", "max", "sla miss",
		"saturation", "verdict",
	)
	for _, r := range results {
		tb.AddRowf(r.Proto, r.OfferedRate, r.Rounds, r.Injected, r.Collected,
			r.PeakOutstanding, r.Throughput, r.LatencyP50, r.LatencyP99,
			r.LatencyMax, r.SLAViolations, r.Saturation, r.Verdict)
	}
	return tb
}
