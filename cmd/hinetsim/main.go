// Command hinetsim runs a single dissemination scenario and prints its
// metrics; the fig1 and fig3 scenarios regenerate the paper's illustrative
// figures in text form.
//
// Usage:
//
//	hinetsim -scenario fig1                 # Fig. 1: an example clustered network
//	hinetsim -scenario fig3                 # Fig. 3: Algorithm 1 token-flow walkthrough
//	hinetsim -scenario hinet  [-n -k ...]   # Algorithm 1 on a (T, L)-HiNet
//	hinetsim -scenario onel   [-n -k ...]   # Algorithm 2 on a (1, L)-HiNet
//	hinetsim -scenario mobility [-n -k ...] # Algorithm 2 on random waypoint mobility
//
// Fault injection applies to every simulating scenario:
//
//	-drop 0.05                  # i.i.d. 5% per-delivery loss
//	-burst 0.05,0.3,0.9         # Gilbert–Elliott bursty loss (pGoodBad,pBadGood,dropBad)
//	-crash-heads 20,50          # every live cluster head crashes at these rounds
//	-recover-after 15           # crashed heads rejoin after 15 rounds (0 = crash-stop)
//	-failover 3                 # run the self-healing protocol variant (head-silence window)
//	-selfstab                   # emergent hierarchy: self-stabilizing clustering protocol
//	-stall-window 50            # terminate with a diagnostic after 50 zero-progress rounds
//
// Self-profiling and parallelism apply to every simulating scenario too:
//
//	-timing run.timing.jsonl    # per-round stage spans (JSONL) + breakdown table
//	-timing-sample 32           # resource-sample (heap/arena/goroutines) interval
//	-timing-normalize           # zero durations in the JSONL (determinism checks)
//	-workers 4                  # within-round parallelism (sim.Options.Workers)
//
// Steady-state traffic (sim.Options.Arrivals) applies to every simulating
// scenario whose protocol supports injection (Algorithms 1/2, flooding):
//
//	-arrival 0.5                # Poisson token arrivals per round (0 = off)
//	-arrival-stop 200           # arrival window end; extends the round budget
//	-arrival-on 3 -arrival-off 9 # bursty on/off traffic windows
//	-arrival-hotspot 4          # concentrate arrivals on node 4's cluster
//	-arrival-max 100            # cap total injected tokens
//
// The flight recorder and online health engine apply to every simulating
// scenario:
//
//	-record 512                 # keep the last 512 rounds in the flight-recorder ring
//	-health "pace,stall>=50"    # online SLO rules (see internal/obs/health)
//	-dump-dir dumps             # write postmortem bundles here on any anomaly
//
// With -pprof serving, the recorder also exposes live /statusz and
// /healthz pages on the same listener. Bundles are rendered with
// `hinettrace postmortem <bundle>`. SIGINT/SIGTERM end the run cleanly at
// the next round barrier: all JSONL/metrics/timing streams are flushed
// complete, and the process exits 130.
//
// Every scenario runs under runtime/pprof labels (scenario=, plus the
// engine's stage=/shard= labels when -timing is on), so CPU profiles taken
// through -pprof attribute samples by round stage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hinet"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/provenance"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

func main() {
	var (
		scenario = flag.String("scenario", "hinet", "fig1 | fig3 | hinet | onel | mobility")
		n        = flag.Int("n", 100, "number of nodes")
		k        = flag.Int("k", 8, "number of tokens")
		theta    = flag.Int("theta", 30, "max cluster heads (θ)")
		alpha    = flag.Int("alpha", 5, "progress coefficient (α)")
		l        = flag.Int("l", 2, "head connectivity hop bound (L)")
		reaffil  = flag.Int("reaffil", 3, "member re-affiliations per phase boundary")
		churn    = flag.Int("churn", 10, "random extra edges per round")
		seed     = flag.Uint64("seed", 1, "random seed")
		metrics  = flag.String("metrics", "", "write one JSONL round event per round to this file")
		prov     = flag.String("provenance", "", "write the provenance JSONL stream into this directory")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		timing   = flag.String("timing", "", "write per-round engine stage spans (JSONL) to this file and print a breakdown")
		tsample  = flag.Int("timing-sample", 0, "rounds between timing resource samples (0 = default 32)")
		tnorm    = flag.Bool("timing-normalize", false, "zero durations/resources in the timing JSONL, keeping structure (determinism checks)")
		workers  = flag.Int("workers", 0, "engine shards per run (0 = one per 4096 nodes, at most GOMAXPROCS; 1 = serial)")

		drop         = flag.Float64("drop", 0, "i.i.d. per-delivery message loss probability")
		burst        = flag.String("burst", "", "Gilbert–Elliott bursty loss as pGoodBad,pBadGood,dropBad")
		crashHeads   = flag.String("crash-heads", "", "comma-separated rounds at which every live cluster head crashes")
		recoverAfter = flag.Int("recover-after", 0, "rounds after which crashed heads recover (0 = crash-stop)")
		failover     = flag.Int("failover", 0, "run the self-healing protocol variant with this head-silence window (0 = plain)")
		stallWindow  = flag.Int("stall-window", 0, "terminate after this many consecutive zero-progress rounds (0 = off)")
		selfstab     = flag.Bool("selfstab", false, "maintain the hierarchy with the self-stabilizing clustering protocol (emergent, rides the same faulty links) instead of the scenario's oracle")

		record    = flag.Int("record", 0, "flight recorder: keep the last N rounds in a ring for postmortem dumps (0 = off unless -health/-dump-dir)")
		healthSpc = flag.String("health", "", `online SLO rules, e.g. "pace,p99<=40,queue<=500,stall>=50" (see internal/obs/health)`)
		dumpDir   = flag.String("dump-dir", "", "write postmortem bundles to this directory on stall/pace/SLO/divergence anomalies")

		arrival = flag.Float64("arrival", 0, "steady-state mode: expected token arrivals per round (0 = off)")
		arrStop = flag.Int("arrival-stop", 0, "arrival window end round (0 = arrivals never stop)")
		arrOn   = flag.Int("arrival-on", 0, "bursty traffic: rounds on per cycle (with -arrival-off)")
		arrOff  = flag.Int("arrival-off", 0, "bursty traffic: rounds off per cycle")
		arrHot  = flag.Int("arrival-hotspot", -1, "concentrate arrivals on this node's cluster (-1 = uniform)")
		arrMax  = flag.Int("arrival-max", 0, "cap on total injected tokens (0 = unbounded)")
	)
	flag.Parse()

	stallSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "stall-window" {
			stallSet = true
		}
	})
	if err := validateFlags(*drop, *arrival, *stallWindow, stallSet, *scenario, *n, *k, *alpha); err != nil {
		fmt.Fprintln(os.Stderr, "hinetsim:", err)
		os.Exit(1)
	}

	if *pprof != "" {
		startPprof("hinetsim", *pprof)
	}
	plan, err := buildFaults(*drop, *burst, *crashHeads, *recoverAfter, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinetsim:", err)
		os.Exit(1)
	}
	arr, err := buildArrivals(*arrival, *arrStop, *arrOn, *arrOff, *arrHot, *arrMax, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinetsim:", err)
		os.Exit(1)
	}
	mi := &instr{
		path: *metrics, provDir: *prov, faults: plan, stall: *stallWindow,
		timingPath: *timing, tsample: *tsample, tnorm: *tnorm, workers: *workers,
		arr: arr, selfstab: *selfstab,
		record: *record, healthSpec: *healthSpc, dumpDir: *dumpDir,
		scenario: *scenario, alpha: *alpha,
		fing: map[string]string{
			"scenario": *scenario,
			"n":        strconv.Itoa(*n), "k": strconv.Itoa(*k),
			"theta": strconv.Itoa(*theta), "alpha": strconv.Itoa(*alpha),
			"l": strconv.Itoa(*l), "seed": strconv.FormatUint(*seed, 10),
			"workers": strconv.Itoa(*workers),
			"drop":    strconv.FormatFloat(*drop, 'g', -1, 64),
			"burst":   *burst, "crash_heads": *crashHeads,
			"selfstab": strconv.FormatBool(*selfstab),
			"arrival":  strconv.FormatFloat(*arrival, 'g', -1, 64),
		},
	}
	if *failover > 0 {
		mi.fo = &core.Failover{Window: *failover}
	}

	// SIGINT/SIGTERM end the run cleanly at the next round barrier: the
	// engine returns, the normal close path flushes every stream
	// (metrics/provenance/timing/bundles stay valid, non-truncated), and
	// the process exits 130. A second signal kills the process as usual.
	var interrupted atomic.Bool
	mi.stopFlag = &interrupted
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		signal.Stop(sigc)
	}()

	// Run the whole scenario under a scenario= pprof label so CPU profiles
	// taken through -pprof attribute samples to it; the engine layers its
	// stage=/shard= labels on top when timing is on.
	rpprof.Do(context.Background(), rpprof.Labels("scenario", *scenario), func(ctx context.Context) {
		mi.labelCtx = ctx
		switch *scenario {
		case "fig1":
			if *metrics != "" || *prov != "" {
				fmt.Fprintln(os.Stderr, "hinetsim: fig1 runs no simulation; -metrics/-provenance ignored")
			}
			err = runFig1(*seed)
		case "fig3":
			err = runFig3(mi)
		case "hinet":
			err = runHiNet(*n, *k, *theta, *alpha, *l, *reaffil, *churn, *seed, mi)
		case "onel":
			err = runOneL(*n, *k, *theta, *l, *reaffil, *churn, *seed, mi)
		case "mobility":
			err = runMobility(*n, *k, *seed, mi)
		default:
			err = fmt.Errorf("unknown scenario %q", *scenario)
		}
	})
	if cerr := mi.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinetsim:", err)
		os.Exit(1)
	}
	if interrupted.Load() {
		fmt.Fprintln(os.Stderr, "hinetsim: interrupted; streams flushed cleanly")
		os.Exit(130)
	}
}

// startPprof serves the standard net/http/pprof handlers in the
// background for profiling long scenario runs.
func startPprof(tool, addr string) {
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", tool, err)
		}
	}()
}

// buildFaults assembles the fault plan requested on the command line, or
// nil when every fault flag is at its zero value.
func buildFaults(drop float64, burst, crashHeads string, recoverAfter int, seed uint64) (*sim.Faults, error) {
	plan := sim.Faults{Seed: seed, DropProb: drop}
	if burst != "" {
		parts := strings.Split(burst, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("-burst wants pGoodBad,pBadGood,dropBad (got %q)", burst)
		}
		vals := make([]float64, 3)
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("-burst: %v", err)
			}
			vals[i] = v
		}
		plan.Burst = &faults.GilbertElliott{PGoodBad: vals[0], PBadGood: vals[1], DropBad: vals[2]}
	}
	if crashHeads != "" {
		for _, p := range strings.Split(crashHeads, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("-crash-heads: %v", err)
			}
			plan.HeadCrashRounds = append(plan.HeadCrashRounds, r)
		}
		plan.HeadCrashDowntime = recoverAfter
	} else if recoverAfter != 0 {
		return nil, fmt.Errorf("-recover-after needs -crash-heads")
	}
	if !plan.Active() {
		return nil, nil
	}
	return &plan, nil
}

// buildArrivals assembles the steady-state traffic process requested on the
// command line, or nil when -arrival is off.
func buildArrivals(rate float64, stop, on, off, hotspot, max int, seed uint64) (*sim.Arrivals, error) {
	if rate == 0 {
		if stop != 0 || on != 0 || off != 0 || hotspot >= 0 || max != 0 {
			return nil, fmt.Errorf("the -arrival-* flags need -arrival")
		}
		return nil, nil
	}
	arr := &sim.Arrivals{
		Rate: rate, Seed: seed, Stop: stop,
		OnRounds: on, OffRounds: off, MaxTokens: max,
	}
	if hotspot >= 0 {
		arr.Hotspot = true
		arr.HotspotNode = hotspot
	}
	return arr, nil
}

// instr wires the -metrics, -provenance and fault flags into a scenario
// run: attach decorates the engine options with a JSONL collector, a
// provenance tracer, the fault plan and the stall watchdog; close flushes
// both streams.
type instr struct {
	path string
	f    *os.File
	col  *obs.Collector

	provDir string
	pf      *os.File
	tracer  *provenance.Tracer
	// budget arms the tracer's online pace checker; set by scenarios that
	// run Algorithm 1 under a Theorem 1 schedule, before attach.
	budget *provenance.Budget

	faults *sim.Faults
	stall  int
	fo     *core.Failover
	// selfstab switches every scenario to the emergent hierarchy: the
	// self-stabilizing clustering protocol maintains the roles over the
	// same faulty links, with the convergence watchdog armed at one phase
	// length (8 rounds for per-round protocols).
	selfstab bool
	// arr is the -arrival traffic process; attach copies it into each
	// scenario's options and stretches short round budgets to cover the
	// arrival window plus a drain allowance.
	arr *sim.Arrivals

	// -timing / -workers wiring: the engine self-instruments each round
	// stage into tm's JSONL sink; labelCtx carries the scenario= pprof
	// label into the engine so stage=/shard= labels nest under it.
	timingPath string
	tsample    int
	tnorm      bool
	workers    int
	tf         *os.File
	tm         *obs.Timing
	labelCtx   context.Context

	// Flight recorder / online health wiring (-record, -health,
	// -dump-dir): the recorder owns the metrics collector when enabled,
	// so the ring, the health rules and the JSONL sink see one stream.
	record     int
	healthSpec string
	dumpDir    string
	scenario   string
	alpha      int
	fing       map[string]string
	rec        *recorder.Recorder

	// stopFlag is flipped by the SIGINT/SIGTERM handler; attach installs
	// it as the engine's cooperative Stop hook so runs end at a round
	// barrier and every stream flushes complete.
	stopFlag *atomic.Bool
}

// recording reports whether any flight-recorder flag is set.
func (in *instr) recording() bool {
	return in.record > 0 || in.healthSpec != "" || in.dumpDir != ""
}

// alg1 returns the scenario's Algorithm 1: the self-healing failover
// variant when -failover is set, the paper's plain protocol otherwise.
func (in *instr) alg1(T int) core.Alg1 {
	if in != nil && in.fo != nil {
		return core.Alg1{T: T, Failover: in.fo}
	}
	return core.Alg1{T: T}
}

// alg2 is the Algorithm 2 counterpart of alg1.
func (in *instr) alg2() core.Alg2 {
	if in != nil && in.fo != nil {
		return core.Alg2{Failover: in.fo}
	}
	return core.Alg2{}
}

// attach opens the JSONL sink (first call only) and hooks a collector into
// opts, combining with any observer the scenario already set. It also
// applies the command-line fault plan and stall window, so every scenario
// picks them up through its one attach call.
func (in *instr) attach(opts sim.Options, n, k, phaseLen int) (sim.Options, error) {
	if in == nil {
		return opts, nil
	}
	if in.faults != nil {
		opts.Faults = in.faults
	}
	if in.arr != nil {
		a := *in.arr
		opts.Arrivals = &a
		if a.Stop > 0 {
			if min := a.Stop + 4*n; opts.MaxRounds < min {
				opts.MaxRounds = min
			}
		}
	}
	if in.stall > 0 {
		opts.StallWindow = in.stall
	}
	if in.selfstab {
		wd := phaseLen
		if wd <= 0 {
			wd = 8
		}
		opts.SelfStabilize = &sim.SelfStabilize{Watchdog: wd}
		opts.Observer = obs.Combine(opts.Observer, &sim.Observer{
			Diverged: func(r int, rep *sim.ConvergenceReport) {
				fmt.Fprintln(os.Stderr, "hinetsim: warning:", rep)
			},
		})
		// The theorem budgets assume an oracle hierarchy from round 0;
		// the emergent hierarchy spends its own rounds converging (and
		// reconverging after faults), so give the run a repair allowance.
		opts.MaxRounds *= 4
	}
	if in.workers != 0 {
		opts.Workers = in.workers
	}
	if in.timingPath != "" && in.tf == nil {
		tf, err := os.Create(in.timingPath)
		if err != nil {
			return opts, err
		}
		in.tf = tf
		in.tm = obs.NewTiming(obs.TimingConfig{
			Sink: tf, Normalize: in.tnorm, SampleEvery: in.tsample,
		})
	}
	if in.tm != nil && opts.Timing == nil {
		opts.Timing = in.tm
		opts.LabelCtx = in.labelCtx
	}
	if in.stopFlag != nil {
		stop := in.stopFlag
		opts.Stop = func(int) bool { return stop.Load() }
	}
	if in.recording() && in.rec == nil {
		rules, err := health.ParseRules(in.healthSpec)
		if err != nil {
			return opts, err
		}
		var sink io.Writer
		if in.path != "" {
			f, err := os.Create(in.path)
			if err != nil {
				return opts, err
			}
			in.f = f
			sink = f
		}
		in.rec = recorder.New(recorder.Config{
			Obs: obs.Config{
				N: n, K: k, PhaseLen: phaseLen, Sink: sink,
				SizeFn: opts.SizeFn, Arrivals: in.arr != nil,
			},
			Depth:       in.record,
			Rules:       rules,
			Alpha:       in.alpha,
			DumpDir:     in.dumpDir,
			Prefix:      in.scenario,
			Fingerprint: in.fing,
			FaultPlan:   in.faults,
		})
		in.col = in.rec.Collector()
		// Live inspection on the -pprof listener (DefaultServeMux).
		in.rec.RegisterHTTP(nil)
		opts.Observer = obs.Combine(opts.Observer, in.rec.Observer())
		if in.tm != nil {
			// Tee stage timings into the ring (and the stage-regression
			// rule) on their way to the -timing sink.
			opts.Timing = in.rec.TimingSink(in.tm)
		}
	}
	if in.provDir != "" && in.pf == nil {
		if err := os.MkdirAll(in.provDir, 0o755); err != nil {
			return opts, err
		}
		pf, err := os.Create(filepath.Join(in.provDir, "provenance.jsonl"))
		if err != nil {
			return opts, err
		}
		in.pf = pf
		in.tracer = provenance.New(provenance.Config{
			Sink:   pf,
			Budget: in.budget,
			OnPace: func(v provenance.PaceViolation) {
				fmt.Fprintln(os.Stderr, "hinetsim: warning:", v)
				if in.rec != nil {
					in.rec.Trigger("pace", v.Round)
				}
			},
		})
		opts.Tracer = in.tracer
	}
	if in.rec != nil || in.path == "" || in.f != nil {
		return opts, nil
	}
	f, err := os.Create(in.path)
	if err != nil {
		return opts, err
	}
	in.f = f
	in.col = obs.NewCollector(obs.Config{
		N: n, K: k, PhaseLen: phaseLen, Sink: f, SizeFn: opts.SizeFn,
		Arrivals: in.arr != nil,
	})
	opts.Observer = obs.Combine(opts.Observer, in.col.Observer())
	return opts, nil
}

// close flushes every sink and closes every file, whichever of them
// fails, and returns the first error; when all succeed it reports where
// each stream went.
func (in *instr) close() error {
	if in == nil {
		return nil
	}
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if in.tracer != nil {
		keep(in.tracer.Flush())
	}
	if in.tm != nil {
		keep(in.tm.Flush())
	}
	if in.rec != nil {
		keep(in.rec.Close())
	} else if in.col != nil {
		keep(in.col.Flush())
	}
	for _, f := range []*os.File{in.pf, in.tf, in.f} {
		if f != nil {
			keep(f.Close())
		}
	}
	if err != nil {
		return err
	}
	if in.pf != nil {
		fmt.Printf("wrote provenance stream to %s\n", filepath.Join(in.provDir, "provenance.jsonl"))
		if pv := in.tracer.PaceViolations(); pv > 0 {
			fmt.Printf("pace checker: %d violation(s) — the run fell behind the Theorem 1 schedule\n", pv)
		}
	}
	if in.tf != nil {
		fmt.Printf("wrote timing series to %s\n", in.timingPath)
		if r := in.tm.Rounds(); r > 0 {
			tbl := obs.TimingTable("per-stage timing", in.tm.Breakdown(), r)
			if err := tbl.WriteText(os.Stdout); err != nil {
				return err
			}
		}
	}
	if in.f != nil {
		fmt.Printf("wrote per-round metrics to %s\n", in.path)
	}
	if in.rec == nil {
		return nil
	}
	if h := in.rec.Health(); h != nil {
		if h.Healthy() {
			fmt.Println("health: ok — all SLO rules held")
		} else {
			fmt.Printf("health: %d violation(s)\n", h.Violations())
			for _, s := range h.States() {
				if s.Violations > 0 {
					fmt.Printf("  rule %-12s ×%d, first at round %d, last %.2f vs %.2f\n",
						s.Rule.Kind, s.Violations, s.FirstRound, s.LastValue, s.LastLimit)
				}
			}
		}
	}
	for _, b := range in.rec.Bundles() {
		fmt.Printf("wrote postmortem bundle %s\n", b)
	}
	return nil
}

// runFig1 reproduces Fig. 1: cluster a random geometric network and print
// the hierarchy (heads, members, gateways, backbone).
func runFig1(seed uint64) error {
	rng := xrand.New(seed)
	field := geom.Field{W: 60, H: 60}
	pos := make([]geom.Point, 24)
	for i := range pos {
		pos[i] = field.RandomPoint(rng)
	}
	g := geom.UnitDisk(pos, 20)
	// Patch to connectivity so the example matches the figure's connected
	// network.
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			break
		}
		g.AddEdge(comps[0][0], comps[1][0])
	}
	h := cluster.Form(g, cluster.Config{})
	fmt.Println("Fig. 1 — an example network with cluster-based hierarchy")
	fmt.Printf("nodes=%d edges=%d\n\n", g.N(), g.M())
	fmt.Print(render.Network(pos, field, h, 60, 18))
	fmt.Println()
	for _, head := range h.Heads() {
		fmt.Printf("cluster %d: head=%d members=%v\n", head, head, h.MembersOf(head))
	}
	fmt.Printf("\ngateways: %v\n", h.Gateways())
	bb := cluster.Backbone(g, h)
	fmt.Printf("backbone edges: %v\n", bb.Edges())
	if L, ok := hinet.HeadLinkage(bb, h.Heads()); ok {
		fmt.Printf("head linkage L = %d (paper: L <= 3 for 1-hop clusterings)\n", L)
	}
	return h.Validate(g)
}

// runFig3 reproduces Fig. 3's walkthrough: token t travels member u ->
// head v -> gateway -> head w -> members, printed round by round.
func runFig3(mi *instr) error {
	// u=1 member of head v=0; gateway 2; head w=3 with member 4.
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	h := ctvg.NewHierarchy(5)
	h.SetHead(0)
	h.SetHead(3)
	h.SetMember(1, 0)
	h.SetGateway(2, 0)
	h.SetMember(4, 3)
	d := ctvg.NewTrace(tvg.NewTrace([]*graph.Graph{g}), []*ctvg.Hierarchy{h})
	assign := token.SingleSource(5, 1, 1)

	fmt.Println("Fig. 3 — Algorithm 1 walkthrough: token 0 starts at member node 1")
	fmt.Println("topology: member1 - head0 - gateway2 - head3 - member4")
	obs := &sim.Observer{Sent: func(r int, m *sim.Message) {
		role := h.Role[m.From]
		if m.To == sim.NoAddr {
			fmt.Printf("  round %d: node %d (%s) broadcasts %v\n", r, m.From, role, m.Tokens)
		} else {
			fmt.Printf("  round %d: node %d (%s) sends %v to head %d\n", r, m.From, role, m.Tokens, m.To)
		}
	}}
	opts, err := mi.attach(sim.Options{
		MaxRounds: 8, StopWhenComplete: true, Observer: obs,
	}, 5, 1, 8)
	if err != nil {
		return err
	}
	met, err := sim.RunProtocol(d, mi.alg1(8), assign, opts)
	if err != nil {
		return err
	}
	fmt.Println("result:", met)
	if !met.Complete {
		return fmt.Errorf("walkthrough did not complete")
	}
	return nil
}

func runHiNet(n, k, theta, alpha, l, reaffil, churn int, seed uint64, mi *instr) error {
	T := core.Theorem1T(k, alpha, l)
	phases := core.Theorem1Phases(theta, alpha)
	cfg := adversary.HiNetConfig{
		N: n, Theta: theta, L: l, T: T,
		Reaffiliations: reaffil, ChurnEdges: churn,
	}
	if err := checkHiNet(cfg); err != nil {
		return err
	}
	adv := adversary.NewHiNet(cfg, xrand.New(seed))
	if err := (hinet.Model{T: T, L: l}).CheckValid(adv, phases); err != nil {
		return fmt.Errorf("generated network violates the model: %w", err)
	}
	assign := token.Spread(n, k, xrand.New(seed+1))
	mi.budget = &provenance.Budget{PhaseLen: T, Phases: phases, Alpha: alpha, Theta: theta}
	opts, err := mi.attach(sim.Options{
		MaxRounds: phases * T, StopWhenComplete: true,
	}, n, k, T)
	if err != nil {
		return err
	}
	met, err := sim.RunProtocol(adv, mi.alg1(T), assign, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 1 on a (%d, %d)-HiNet (n=%d θ=%d k=%d α=%d)\n", T, l, n, theta, k, alpha)
	fmt.Printf("theorem budget: %d phases x %d rounds = %d rounds\n", phases, T, phases*T)
	fmt.Println("result:", met)
	return nil
}

func runOneL(n, k, theta, l, reaffil, churn int, seed uint64, mi *instr) error {
	cfg := adversary.HiNetConfig{
		N: n, Theta: theta, L: l, T: 1,
		Reaffiliations: reaffil, HeadChurn: 1, ChurnEdges: churn,
	}
	if err := checkHiNet(cfg); err != nil {
		return err
	}
	adv := adversary.NewHiNet(cfg, xrand.New(seed))
	assign := token.Spread(n, k, xrand.New(seed+1))
	opts, err := mi.attach(sim.Options{
		MaxRounds: core.Theorem2Rounds(n), StopWhenComplete: true,
	}, n, k, 1)
	if err != nil {
		return err
	}
	met, err := sim.RunProtocol(adv, mi.alg2(), assign, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 2 on a (1, %d)-HiNet (n=%d θ=%d k=%d)\n", l, n, theta, k)
	fmt.Printf("theorem budget: n-1 = %d rounds\n", core.Theorem2Rounds(n))
	fmt.Println("result:", met)
	return nil
}

func runMobility(n, k int, seed uint64, mi *instr) error {
	adv := adversary.NewMobility(adversary.MobilityConfig{
		N: n, Field: geom.Field{W: 100, H: 100}, Radius: 22,
		MinSpeed: 0.5, MaxSpeed: 2, PauseRounds: 1,
		Cluster:         cluster.Config{},
		EnsureConnected: true,
	}, xrand.New(seed))
	assign := token.Spread(n, k, xrand.New(seed+1))
	opts, err := mi.attach(sim.Options{
		MaxRounds: 6 * n, StopWhenComplete: true,
	}, n, k, 0)
	if err != nil {
		return err
	}
	met, err := sim.RunProtocol(adv, mi.alg2(), assign, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 2 on random-waypoint mobility (n=%d k=%d)\n", n, k)
	fmt.Println("result:", met)
	st := adv.Stats()
	fmt.Printf("clustering churn: %d re-affiliations, %d new heads, %d removed heads\n",
		st.Reaffiliations, st.NewHeads, st.RemovedHeads)
	return nil
}
