// Package experiment is the harness that regenerates the paper's evaluation
// (Tables 2 and 3) and its extension sweeps, pairing the closed-form
// analytical costs with measured costs from executable simulation.
//
// Every row of the paper's comparison maps to a (protocol, adversary)
// pair run over several seeds:
//
//	(k+αL)-interval connected [7]  -> baseline.KLOT on adversary.TInterval
//	(k+αL, L)-HiNet (Algorithm 1)  -> core.Alg1    on adversary.HiNet (T=k+αL)
//	1-interval connected [7]       -> baseline.Flood on adversary.OneInterval
//	(1, L)-HiNet (Algorithm 2)     -> core.Alg2    on adversary.HiNet (T=1)
//
// Measured communication is the cost of the full prescribed round budget
// (the analytical formulas are worst-case budgets, not early-exit costs);
// measured time is the first round after which every node held all k
// tokens. Replications fan out over a worker pool and aggregate
// deterministically.
package experiment

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/pprof"

	"repro/internal/adversary"
	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/parallel"
	"repro/internal/provenance"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// PointConfig describes one measured operating point.
type PointConfig struct {
	// P carries the paper's Table 1 parameters (NR is ignored here; the
	// per-row NRT/NR1 below are used instead).
	P analysis.Params
	// NRT and NR1 are the average per-member re-affiliation counts for
	// the (T, L)-HiNet and (1, L)-HiNet rows respectively.
	NRT, NR1 int
	// Seeds is the number of Monte-Carlo replications per row.
	Seeds int
	// Workers bounds the replication pool (0 = GOMAXPROCS). Each
	// replication's engine keeps its default shard count, which is serial
	// below 8192 nodes.
	Workers int
	// ChurnEdges is the per-round random edge churn of every adversary.
	ChurnEdges int
	// MetricsDir, when non-empty, makes every replication record its
	// per-round event series as <row-slug>_seed<NN>.jsonl in that
	// directory (see internal/obs for the schema). The directory is
	// created if missing.
	MetricsDir string
	// ProvenanceDir, when non-empty, makes every replication record its
	// dissemination DAG as <row-slug>_seed<NN>.prov.jsonl in that directory
	// (see internal/provenance for the schema). The Algorithm 1 row runs
	// with the Theorem 1 pace checker armed; its violation count is summed
	// into the row's PaceViolations. The directory is created if missing.
	ProvenanceDir string
	// TimingDir, when non-empty, attaches the engine's self-profiling
	// layer to every replication and records the per-round stage spans as
	// <row-slug>_seed<NN>.timing.jsonl in that directory (see
	// internal/obs.Timing for the schema). Each replication also runs
	// under an alg=<row-slug> pprof label, so CPU profiles taken over a
	// grid run attribute samples by row and stage. The per-stage wall/CPU
	// totals are summed into the row's StageWallNs / StageCPUNs. The
	// directory is created if missing.
	TimingDir string
	// Arrivals, when non-nil, switches every replication of every row into
	// steady-state mode (sim.Options.Arrivals): tokens keep arriving per
	// the configured process on top of the initial batch and garbage
	// collection keeps state bounded. The process seed is mixed with the
	// replication seed so each seed draws its own traffic. Invalid
	// processes fail the point before any row runs.
	Arrivals *sim.Arrivals
	// SelfStabilize, when non-nil, switches every replication of every row
	// to the emergent hierarchy (sim.Options.SelfStabilize): the
	// self-stabilizing clustering protocol maintains the roles over the
	// same faulty links the tokens ride, instead of the adversary's oracle
	// hierarchy. Flat-protocol rows (KLO, flooding) ignore roles and are
	// unaffected beyond the maintenance beacon budget.
	SelfStabilize *sim.SelfStabilize
	// HealthRules, when non-empty, attaches the online health engine
	// (internal/obs/health) to every replication with this rule spec
	// (health.ParseRules syntax). Violation counts are summed into each
	// row's HealthViolations. Invalid specs fail the point before any row
	// runs.
	HealthRules string
	// DumpDir, together with HealthRules, arms the flight recorder
	// (internal/obs/recorder) on every replication: when non-empty it
	// receives a postmortem bundle per anomaly, named
	// <row-slug>_seed<NN>-r<round>-<reason>.dump. Bundle counts are summed
	// into each row's Bundles. The directory is created if missing.
	DumpDir string
	// Stop, when non-nil, is polled at every round barrier of every
	// replication; once it returns true each in-flight run ends cleanly at
	// its current round (streams flushed, files valid). The hook for
	// SIGINT-driven graceful shutdown in the CLIs.
	Stop func() bool
}

// Table3Config is the paper's Table 3 operating point with a default
// replication count.
func Table3Config(seeds int) PointConfig {
	return PointConfig{
		P:          analysis.Table3Params,
		NRT:        analysis.Table3NRT,
		NR1:        analysis.Table3NR1,
		Seeds:      seeds,
		ChurnEdges: 10,
	}
}

// RowResult pairs one row's analytical and measured costs.
type RowResult struct {
	// Model is the paper's row label.
	Model string
	// Analytic is the Table 2 formula evaluated at this point.
	Analytic analysis.Cost
	// Budget is the prescribed round budget actually executed.
	Budget int
	// MeasuredTime is the mean completion round across seeds.
	MeasuredTime float64
	// MeasuredComm is the mean total token-sends over the full budget.
	MeasuredComm float64
	// TimeStddev and CommStddev are the sample standard deviations of the
	// per-seed measurements.
	TimeStddev float64
	CommStddev float64
	// MeasuredBytes is the mean wire-level cost under the internal/wire
	// codec (header + token bitmap + 32-byte token bodies).
	MeasuredBytes float64
	// RelayTokens and MemberTokens split MeasuredComm by sender role
	// (heads+gateways vs members) — the paper's energy argument.
	RelayTokens  float64
	MemberTokens float64
	// Completed counts replications that finished within the budget.
	Completed int
	// Seeds is the replication count.
	Seeds int
	// FirstDeliveries and RedundantDeliveries are mean per-replication
	// provenance totals (0 unless ProvenanceDir enabled tracing).
	FirstDeliveries     float64
	RedundantDeliveries float64
	// PaceViolations sums Theorem 1 pace warnings across replications
	// (Algorithm 1 rows with tracing only).
	PaceViolations int
	// StageWallNs / StageCPUNs sum the engine's per-stage self-profiling
	// spans across replications, indexed by sim.Stage; TimedRounds sums
	// the instrumented rounds. All nil/0 unless TimingDir armed timing.
	StageWallNs []int64
	StageCPUNs  []int64
	TimedRounds int
	// HealthViolations sums SLO-rule violations across replications and
	// Bundles counts the postmortem bundles written (0 unless HealthRules
	// / DumpDir armed the flight recorder).
	HealthViolations int
	Bundles          int
}

// measured runs a protocol/adversary pairing over seeds and aggregates.
type runSpec struct {
	model string
	// slug names the row's per-seed files and bundles, <slug>_seed<NN>.
	slug string
	// sinks configures every replication's sinks: the event stream's
	// phase length (1 for per-round protocols), the flight recorder's
	// rules and dump directory, and the Theorem 1 budget that arms the
	// pace checker (Algorithm 1 rows only). Its three paths name the
	// directories that hold each replication's files.
	sinks    recorder.SinkConfig
	budget   int
	build    func(seed uint64) (ctvg.Dynamic, sim.Protocol)
	k        int
	n        int
	seeds    int
	workers  int
	arrivals *sim.Arrivals
	selfstab *sim.SelfStabilize
	// stop is the graceful-shutdown poll.
	stop func() bool
}

// seedSample is one replication's raw measurements, produced by runSeed and
// folded into a RowResult by aggregateRow.
type seedSample struct {
	time      int
	comm      int64
	bytes     int64
	relay     int64
	member    int64
	first     int64
	redundant int64
	pace      int
	complete  bool
	stages    []obs.StageBreak // per-sim.Stage span totals (timing runs only)
	rounds    int
	health    int
	bundles   int
	err       error
}

// runSeed executes replication i of a row: one (adversary, protocol) run
// with whatever instrumentation the spec arms. It is the unit of work both
// runRow's per-row pool and RunGrid's cross-seed pool schedule.
func runSeed(spec runSpec, i int) seedSample {
	seed := uint64(i)*1_000_003 + 17
	d, p := spec.build(seed)
	assign := token.Spread(spec.n, spec.k, xrand.New(seed^0xabcdef))
	opts := sim.Options{MaxRounds: spec.budget, SizeFn: wire.Size}
	if spec.arrivals != nil {
		// Per-replication copy so each seed draws its own traffic.
		arr := *spec.arrivals
		arr.Seed ^= seed
		opts.Arrivals = &arr
	}
	if spec.selfstab != nil {
		ss := *spec.selfstab
		opts.SelfStabilize = &ss
	}
	if spec.stop != nil {
		stop := spec.stop
		opts.Stop = func(int) bool { return stop() }
	}
	cfg := spec.sinks
	name := func(dir, ext string) string {
		if dir == "" {
			return ""
		}
		return filepath.Join(dir, fmt.Sprintf("%s_seed%02d%s", spec.slug, i, ext))
	}
	cfg.MetricsPath = name(cfg.MetricsPath, ".jsonl")
	cfg.ProvenancePath = name(cfg.ProvenancePath, ".prov.jsonl")
	cfg.TimingPath = name(cfg.TimingPath, ".timing.jsonl")
	if cfg.Recorder.DumpDir != "" {
		cfg.Recorder.Prefix = fmt.Sprintf("%s_seed%02d", spec.slug, i)
	}
	if cfg.TimingPath != "" {
		opts.LabelCtx = pprof.WithLabels(context.Background(), pprof.Labels("alg", spec.slug))
	}
	sinks, err := recorder.Open(cfg, &opts)
	var met *sim.Metrics
	if err == nil {
		met, err = sim.RunProtocol(d, p, assign, opts)
		if cerr := sinks.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return seedSample{err: err}
	}
	t := met.CompletionRound
	if !met.Complete {
		t = spec.budget
	}
	s := seedSample{
		time:      t,
		comm:      met.TokensSent,
		bytes:     met.BytesSent,
		relay:     met.TokensByRole[ctvg.Head] + met.TokensByRole[ctvg.Gateway],
		member:    met.TokensByRole[ctvg.Member] + met.TokensByRole[ctvg.Unaffiliated],
		first:     met.FirstDeliveries,
		redundant: met.RedundantDeliveries,
		complete:  met.Complete,
	}
	if rec := sinks.Recorder; rec != nil {
		if h := rec.Health(); h != nil {
			s.health = h.Violations()
		}
		s.bundles = len(rec.Bundles())
	}
	if sinks.Tracer != nil {
		s.pace = sinks.Tracer.PaceViolations()
	}
	if tm := sinks.Timing; tm != nil {
		s.stages, s.rounds = tm.Breakdown(), tm.Rounds()
	}
	return s
}

func runRow(spec runSpec, analytic analysis.Cost) (RowResult, error) {
	samples := parallel.Map(spec.seeds, spec.workers, func(i int) seedSample {
		return runSeed(spec, i)
	})
	return aggregateRow(spec, analytic, samples)
}

// aggregateRow folds per-seed samples (in seed order) into the row's
// deterministic aggregate.
func aggregateRow(spec runSpec, analytic analysis.Cost, samples []seedSample) (RowResult, error) {
	for _, s := range samples {
		if s.err != nil {
			return RowResult{}, fmt.Errorf("experiment: %s: %w", spec.model, s.err)
		}
	}
	res := RowResult{
		Model:    spec.model,
		Analytic: analytic,
		Budget:   spec.budget,
		Seeds:    spec.seeds,
	}
	times := make([]float64, 0, len(samples))
	comms := make([]float64, 0, len(samples))
	var bytesSum, relaySum, memberSum, firstSum, redunSum float64
	for _, s := range samples {
		times = append(times, float64(s.time))
		comms = append(comms, float64(s.comm))
		bytesSum += float64(s.bytes)
		relaySum += float64(s.relay)
		memberSum += float64(s.member)
		firstSum += float64(s.first)
		redunSum += float64(s.redundant)
		res.PaceViolations += s.pace
		if s.complete {
			res.Completed++
		}
		if s.stages != nil {
			if res.StageWallNs == nil {
				res.StageWallNs = make([]int64, sim.NumStages)
				res.StageCPUNs = make([]int64, sim.NumStages)
			}
			for st, br := range s.stages {
				res.StageWallNs[st] += br.WallNs
				res.StageCPUNs[st] += br.CPUNs
			}
			res.TimedRounds += s.rounds
		}
		res.HealthViolations += s.health
		res.Bundles += s.bundles
	}
	res.MeasuredTime = parallel.Mean(times)
	res.MeasuredComm = parallel.Mean(comms)
	res.TimeStddev = parallel.Stddev(times)
	res.CommStddev = parallel.Stddev(comms)
	res.MeasuredBytes = bytesSum / float64(spec.seeds)
	res.RelayTokens = relaySum / float64(spec.seeds)
	res.MemberTokens = memberSum / float64(spec.seeds)
	res.FirstDeliveries = firstSum / float64(spec.seeds)
	res.RedundantDeliveries = redunSum / float64(spec.seeds)
	return res, nil
}

// distribute spreads `total` churn events over `boundaries` phase
// boundaries, rounding up so the modelled n_r is a lower bound on the
// injected churn.
func distribute(total, boundaries int) int {
	if boundaries <= 0 {
		return 0
	}
	return (total + boundaries - 1) / boundaries
}

// rowJob pairs one row's run spec with its analytic cost: the unit RunPoint
// runs sequentially and RunGrid schedules onto its shared pool.
type rowJob struct {
	spec     runSpec
	analytic analysis.Cost
}

// pointSpecs validates the operating point and returns the four Table 2
// rows as schedulable jobs in paper order.
func pointSpecs(cfg PointConfig) ([]rowJob, error) {
	p := cfg.P
	p.NR = cfg.NRT
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("experiment: Seeds must be positive")
	}
	if cfg.Arrivals != nil {
		if err := cfg.Arrivals.Validate(cfg.P.N0); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}
	rules, err := health.ParseRules(cfg.HealthRules)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	n, k, alpha, L, theta := p.N0, p.K, p.Alpha, p.L, p.Theta
	T := p.T()

	// Every row shares the point's plumbing; only the model, output slug,
	// phase length, budget and build function differ.
	row := func(model, slug string, phaseLen, budget int, build func(seed uint64) (ctvg.Dynamic, sim.Protocol)) runSpec {
		return runSpec{
			model: model, slug: slug, budget: budget, build: build,
			sinks: recorder.SinkConfig{
				MetricsPath: cfg.MetricsDir, ProvenancePath: cfg.ProvenanceDir, TimingPath: cfg.TimingDir,
				Recorder: recorder.Config{
					Obs:   obs.Config{N: n, K: k, PhaseLen: phaseLen},
					Rules: rules, DumpDir: cfg.DumpDir,
				},
			},
			k: k, n: n, seeds: cfg.Seeds, workers: cfg.Workers,
			arrivals: cfg.Arrivals, selfstab: cfg.SelfStabilize, stop: cfg.Stop,
		}
	}

	// Row 1: KLO T-interval.
	kloTPhases := baseline.KLOTPhases(n, T, k)
	jobKLOT := rowJob{spec: row("(k+α*L)-interval connected [7]", "klo_t", T, kloTPhases*T,
		func(seed uint64) (ctvg.Dynamic, sim.Protocol) {
			adv := adversary.NewTInterval(n, T, cfg.ChurnEdges, xrand.New(seed))
			return sim.NewFlat(adv), baseline.KLOT{T: T}
		}), analytic: analysis.KLOTInterval(p)}

	// Row 2: Algorithm 1 on (T, L)-HiNet, with the pace checker armed.
	alg1Phases := core.Theorem1Phases(theta, alpha)
	nrTotalT := cfg.P.NM * cfg.NRT
	jobAlg1 := rowJob{spec: row("(k+α*L, L)-HiNet", "alg1", T, alg1Phases*T,
		func(seed uint64) (ctvg.Dynamic, sim.Protocol) {
			adv := adversary.NewHiNet(adversary.HiNetConfig{
				N: n, Theta: theta, L: L, T: T,
				Reaffiliations: distribute(nrTotalT, alg1Phases-1),
				ChurnEdges:     cfg.ChurnEdges,
			}, xrand.New(seed))
			return adv, core.Alg1{T: T}
		}), analytic: func() analysis.Cost { pp := p; pp.NR = cfg.NRT; return analysis.HiNetTInterval(pp) }()}
	jobAlg1.spec.sinks.Provenance.Budget = &provenance.Budget{PhaseLen: T, Phases: alg1Phases, Alpha: alpha, Theta: theta}

	// Row 3: KLO 1-interval flooding.
	jobFlood := rowJob{spec: row("1-interval connected [7]", "flood", 1, baseline.FloodRounds(n),
		func(seed uint64) (ctvg.Dynamic, sim.Protocol) {
			adv := adversary.NewOneInterval(n, 0, xrand.New(seed))
			return sim.NewFlat(adv), baseline.Flood{}
		}), analytic: analysis.KLOOneInterval(p)}

	// Row 4: Algorithm 2 on (1, L)-HiNet.
	budget1 := core.Theorem2Rounds(n)
	nrTotal1 := cfg.P.NM * cfg.NR1
	jobAlg2 := rowJob{spec: row("(1, L)-HiNet", "alg2", 1, budget1,
		func(seed uint64) (ctvg.Dynamic, sim.Protocol) {
			adv := adversary.NewHiNet(adversary.HiNetConfig{
				N: n, Theta: theta, L: L, T: 1,
				Reaffiliations: distribute(nrTotal1, budget1-1),
				ChurnEdges:     cfg.ChurnEdges,
			}, xrand.New(seed))
			return adv, core.Alg2{}
		}), analytic: func() analysis.Cost { pp := p; pp.NR = cfg.NR1; return analysis.HiNetOneInterval(pp) }()}

	return []rowJob{jobKLOT, jobAlg1, jobFlood, jobAlg2}, nil
}

// RunPoint executes all four rows at the configured operating point and
// returns them in the paper's Table 2 order.
func RunPoint(cfg PointConfig) ([]RowResult, error) {
	jobs, err := pointSpecs(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]RowResult, len(jobs))
	for i, job := range jobs {
		out[i], err = runRow(job.spec, job.analytic)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunGrid executes several operating points over ONE bounded worker pool:
// every (point, row, seed) replication becomes an independent task, so a
// grid keeps all cores busy even when individual rows have few seeds —
// where RunPoint-per-point parallelises only within a row. workers bounds
// the pool (0 = GOMAXPROCS). Results are assembled by index, so ordering
// is deterministic regardless of scheduling: out[i] are cfgs[i]'s rows in
// paper order, aggregated in seed order, and per-seed metrics, provenance
// and timing files land exactly where RunPoint would put them. The first
// error in (point, row, seed) order wins, matching the sequential path.
func RunGrid(cfgs []PointConfig, workers int) ([][]RowResult, error) {
	type task struct {
		point, row, seed int
	}
	jobs := make([][]rowJob, len(cfgs))
	var tasks []task
	for pi, cfg := range cfgs {
		pj, err := pointSpecs(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: point %d: %w", pi, err)
		}
		jobs[pi] = pj
		for ri, job := range pj {
			for si := 0; si < job.spec.seeds; si++ {
				tasks = append(tasks, task{pi, ri, si})
			}
		}
	}
	samples := parallel.Map(len(tasks), workers, func(ti int) seedSample {
		t := tasks[ti]
		return runSeed(jobs[t.point][t.row].spec, t.seed)
	})
	out := make([][]RowResult, len(cfgs))
	cursor := 0
	for pi := range cfgs {
		out[pi] = make([]RowResult, len(jobs[pi]))
		for ri, job := range jobs[pi] {
			rowSamples := samples[cursor : cursor+job.spec.seeds]
			cursor += job.spec.seeds
			var err error
			out[pi][ri], err = aggregateRow(job.spec, job.analytic, rowSamples)
			if err != nil {
				return nil, fmt.Errorf("experiment: point %d: %w", pi, err)
			}
		}
	}
	return out, nil
}

// Table3Report renders the full paper-vs-analytic-vs-measured comparison
// for the Table 3 point.
func Table3Report(cfg PointConfig) (*report.Table, []RowResult, error) {
	rows, err := RunPoint(cfg)
	if err != nil {
		return nil, nil, err
	}
	tb := report.NewTable(
		fmt.Sprintf("Table 3 — paper vs analytic vs simulated (n0=%d θ=%d k=%d α=%d L=%d, %d seeds)",
			cfg.P.N0, cfg.P.Theta, cfg.P.K, cfg.P.Alpha, cfg.P.L, cfg.Seeds),
		"model", "paper time", "paper comm", "formula time", "formula comm",
		"sim time", "sim comm", "sim done",
	)
	for i, r := range rows {
		pub := analysis.Table3Published[i]
		tb.AddRowf(r.Model, pub.Time, pub.Comm, r.Analytic.Time, r.Analytic.Comm,
			fmt.Sprintf("%.1f±%.1f", r.MeasuredTime, r.TimeStddev),
			fmt.Sprintf("%.0f±%.0f", r.MeasuredComm, r.CommStddev),
			fmt.Sprintf("%d/%d", r.Completed, r.Seeds))
	}
	return tb, rows, nil
}
