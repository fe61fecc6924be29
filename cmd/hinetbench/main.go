// Command hinetbench regenerates the paper's evaluation: Table 2 (the
// closed-form cost model), Table 3 (the numerical instance, side by side
// with simulation measurements), and the extension sweeps of DESIGN.md.
//
// Usage:
//
//	hinetbench -table 2            # symbolic + evaluated Table 2
//	hinetbench -table 3            # paper vs formula vs simulation
//	hinetbench -sweep n0           # communication vs network size
//	hinetbench -sweep k            # communication vs token count
//	hinetbench -sweep nr           # communication vs re-affiliation rate
//	hinetbench -all                # everything
//	hinetbench -csv                # CSV instead of aligned text
//	hinetbench -seeds 8            # Monte-Carlo replications per row
//	hinetbench -table 3 -metrics d # per-seed round-series JSONL into d/
//	hinetbench -table 3 -timing d  # per-seed engine stage spans into d/, plus a
//	                               # per-stage breakdown table over all Table 3 runs
//	hinetbench -pprof :6060        # expose net/http/pprof while running
//	hinetbench -table 3 -health "pace,stall>=50" -dump-dir dumps
//	                               # arm the flight recorder: online SLO rules
//	                               # per replication, postmortem bundles into
//	                               # dumps/ on any anomaly
//
// SIGINT/SIGTERM stops in-flight replications at their next round barrier,
// flushes every sink, prints what completed, and exits 130.
//
// Steady-state load testing (continuous token arrivals with GC):
//
//	hinetbench -arrival 0.5                  # 1k-node Poisson load at 0.5 tokens/round
//	hinetbench -arrival 0.25,0.5,1,2         # sweep several offered rates
//	hinetbench -arrival 1 -arrival-n 200 -arrival-proto flood -workers 4
//	hinetbench -arrival 1 -arrival-on 3 -arrival-off 9 -arrival-sla 40
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	var (
		table    = flag.Int("table", 0, "paper table to regenerate (2 or 3)")
		sweep    = flag.String("sweep", "", "parameter sweep: n0 | k | nr | alpha | mobility")
		all      = flag.Bool("all", false, "run every table and sweep")
		seeds    = flag.Int("seeds", 8, "Monte-Carlo replications per row")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		claims   = flag.Bool("claims", false, "print the reproduction ledger")
		outDir   = flag.String("out", "", "directory to additionally write each table as CSV")
		metrics  = flag.String("metrics", "", "directory for per-seed round-series JSONL (Table 3 rows)")
		timing   = flag.String("timing", "", "directory for per-seed engine stage-span JSONL (Table 3 rows); prints a per-stage breakdown")
		selfstab = flag.Bool("selfstab", false, "Table 3: replace the oracle hierarchies with the self-stabilizing clustering protocol in every replication")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		healthS  = flag.String("health", "", `online SLO rules per replication, e.g. "pace,p99<=40,queue<=500" (see internal/obs/health)`)
		dumpDir  = flag.String("dump-dir", "", "write postmortem bundles to this directory on per-replication anomalies")

		arrival   = flag.String("arrival", "", "steady-state load test: offered rate(s) in tokens per round, comma-separated")
		arrN      = flag.Int("arrival-n", 1000, "load test network size")
		arrK      = flag.Int("arrival-k", 8, "load test initial batch size")
		arrRounds = flag.Int("arrival-rounds", 200, "load test measurement window in rounds")
		arrProto  = flag.String("arrival-proto", "alg2", "load test protocol: alg2 | alg1 | flood")
		arrOn     = flag.Int("arrival-on", 0, "bursty traffic: rounds on per cycle (with -arrival-off)")
		arrOff    = flag.Int("arrival-off", 0, "bursty traffic: rounds off per cycle")
		arrHot    = flag.Int("arrival-hotspot", -1, "concentrate arrivals on this node's cluster (-1 = uniform)")
		arrSLA    = flag.Int("arrival-sla", 0, "per-token latency deadline in rounds (0 = off)")
		arrSeed   = flag.Uint64("arrival-seed", 1, "load test seed (topology and traffic)")
		workers   = flag.Int("workers", 0, "engine shards for the load test (0 = one per 4096 nodes, at most GOMAXPROCS; 1 = serial)")
	)
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, *arrival != "", *table, *sweep != "", *all); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM flips a flag every running replication polls at its
	// round barrier, so in-flight runs end cleanly with all sinks flushed
	// before the process exits 130.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		signal.Stop(sigc)
	}()
	stop := func() bool { return interrupted.Load() }

	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hinetbench: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "hinetbench: pprof listening on http://%s/debug/pprof/\n", *pprof)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	out := os.Stdout
	emitted := 0
	emit := func(tb *report.Table) {
		if *csv {
			if err := tb.WriteCSV(out); err != nil {
				fatal(err)
			}
		} else {
			if err := tb.WriteText(out); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintln(out)
		if *outDir != "" {
			emitted++
			path := filepath.Join(*outDir, fmt.Sprintf("table_%02d.csv", emitted))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := tb.WriteCSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	ran := false
	if *arrival != "" {
		rates, err := parseRates(*arrival)
		if err != nil {
			fatal(err)
		}
		cfg := experiment.ArrivalPoint(*arrN, *arrK)
		cfg.Proto = *arrProto
		cfg.SLA = *arrSLA
		cfg.Seed = *arrSeed
		cfg.Workers = *workers
		cfg.HealthRules = *healthS
		cfg.DumpDir = *dumpDir
		cfg.Stop = stop
		cfg.Arrivals = sim.Arrivals{
			Seed: *arrSeed, Stop: *arrRounds,
			OnRounds: *arrOn, OffRounds: *arrOff,
		}
		if *arrHot >= 0 {
			cfg.Arrivals.Hotspot = true
			cfg.Arrivals.HotspotNode = *arrHot
		}
		start := time.Now()
		results, err := experiment.ArrivalSweep(cfg, rates)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		emit(experiment.ArrivalTable(fmt.Sprintf(
			"Steady-state load — %s on n0=%d over a %d-round window (Theorem 1 pace %.3f tokens/round)",
			results[0].Proto, *arrN, *arrRounds, results[0].PaceThroughput), results))
		var collected, rounds int64
		for _, r := range results {
			collected += r.Collected
			rounds += int64(r.Rounds)
		}
		fmt.Fprintf(out, "wall clock: %d tokens through %d simulated rounds in %v (%.0f tokens/sec)\n\n",
			collected, rounds, elapsed.Round(time.Millisecond),
			float64(collected)/elapsed.Seconds())
		if *healthS != "" || *dumpDir != "" {
			var viol, bundles int
			for _, r := range results {
				viol += r.HealthViolations
				bundles += r.Bundles
			}
			emitHealthLine(out, viol, bundles, *dumpDir)
		}
		ran = true
	}
	if *all || *table == 2 {
		emit(table2())
		ran = true
	}
	if *all || *table == 3 {
		cfg := experiment.Table3Config(*seeds)
		cfg.MetricsDir = *metrics
		cfg.TimingDir = *timing
		cfg.HealthRules = *healthS
		cfg.DumpDir = *dumpDir
		cfg.Stop = stop
		if *selfstab {
			cfg.SelfStabilize = &sim.SelfStabilize{Watchdog: cfg.P.T()}
		}
		tb, rows, err := experiment.Table3Report(cfg)
		if err != nil {
			fatal(err)
		}
		emit(tb)
		emitHeadline(out, rows)
		if *healthS != "" || *dumpDir != "" {
			var viol, bundles int
			for _, r := range rows {
				viol += r.HealthViolations
				bundles += r.Bundles
			}
			emitHealthLine(out, viol, bundles, *dumpDir)
		}
		if *metrics != "" {
			fmt.Fprintf(out, "wrote per-seed round series to %s/\n\n", *metrics)
		}
		if *timing != "" {
			emit(timingBreakdown(rows))
			fmt.Fprintf(out, "wrote per-seed timing series to %s/\n\n", *timing)
		}
		ran = true
	}
	if *all || *sweep == "n0" {
		pts, err := experiment.SweepN0([]int{40, 80, 120, 200, 300, 400}, *seeds)
		if err != nil {
			fatal(err)
		}
		emit(experiment.SweepTable("Sweep A — communication vs network size (Table 3 proportions)", "n0", pts))
		ran = true
	}
	if *all || *sweep == "k" {
		pts, err := experiment.SweepK([]int{1, 2, 4, 8, 16, 32}, *seeds)
		if err != nil {
			fatal(err)
		}
		emit(experiment.SweepTable("Sweep B — communication vs token count (n0=100)", "k", pts))
		ran = true
	}
	if *all || *sweep == "nr" {
		pts, err := experiment.SweepNR([]int{0, 2, 5, 10, 15, 20}, *seeds)
		if err != nil {
			fatal(err)
		}
		emit(experiment.SweepTable("Sweep C — communication vs re-affiliation rate (n0=100)", "nr", pts))
		fmt.Fprintf(out, "analytic crossovers at this point: Alg1 stops paying at nr > %.1f; Alg2 at nr > %.0f\n\n",
			analysis.CrossoverNRT(analysis.Table3Params), analysis.CrossoverNR1(analysis.Table3Params))
		ran = true
	}
	if *all || *sweep == "alpha" {
		pts, err := experiment.SweepAlpha([]int{1, 2, 3, 5, 8, 12, 15, 30}, *seeds)
		if err != nil {
			fatal(err)
		}
		emit(experiment.AlphaTable(pts))
		ran = true
	}
	if *all || *sweep == "mobility" {
		pts, err := experiment.MobilityCampaign(60, 6, []float64{0.5, 2, 5, 10}, *seeds)
		if err != nil {
			fatal(err)
		}
		emit(experiment.MobilityTable(pts))
		ran = true
	}
	if *all || *claims {
		if err := experiment.VerifyCheapClaims(); err != nil {
			fatal(err)
		}
		emit(experiment.ClaimsTable())
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if interrupted.Load() {
		fmt.Fprintln(os.Stderr, "hinetbench: interrupted; partial results above, streams flushed cleanly")
		os.Exit(130)
	}
}

// emitHealthLine summarises the flight recorder's verdict over a batch of
// replications.
func emitHealthLine(w io.Writer, viol, bundles int, dumpDir string) {
	if viol == 0 {
		fmt.Fprintf(w, "health: ok — all SLO rules held in every replication\n\n")
		return
	}
	fmt.Fprintf(w, "health: %d violation(s) across replications", viol)
	if bundles > 0 {
		fmt.Fprintf(w, "; %d postmortem bundle(s) in %s", bundles, dumpDir)
	}
	fmt.Fprint(w, "\n\n")
}

// table2 renders the symbolic Table 2 next to its evaluation at the Table 3
// parameters.
func table2() *report.Table {
	tb := report.NewTable(
		"Table 2 — performance of the algorithms (evaluated at the Table 3 point)",
		"model", "time formula", "comm formula", "time", "comm",
	)
	for _, r := range analysis.Table3() {
		tb.AddRowf(r.Model, r.TimeFormula, r.CommFormula, r.Cost.Time, r.Cost.Comm)
	}
	return tb
}

// emitHeadline prints the paper's headline comparison in ratio form.
func emitHeadline(w io.Writer, rows []experiment.RowResult) {
	kloT, alg1, klo1, alg2 := rows[0], rows[1], rows[2], rows[3]
	fmt.Fprintf(w, "headline: Alg1 vs KLO-T comm saving: formula %s, simulated %s\n",
		report.Pct(1-float64(alg1.Analytic.Comm)/float64(kloT.Analytic.Comm)),
		report.Pct(1-alg1.MeasuredComm/kloT.MeasuredComm))
	fmt.Fprintf(w, "headline: Alg2 vs KLO-1 comm saving: formula %s, simulated %s\n\n",
		report.Pct(1-float64(alg2.Analytic.Comm)/float64(klo1.Analytic.Comm)),
		report.Pct(1-alg2.MeasuredComm/klo1.MeasuredComm))
}

// timingBreakdown folds the per-row stage totals collected under -timing
// into one per-stage table covering every Table 3 simulation run.
func timingBreakdown(rows []experiment.RowResult) *report.Table {
	var wall, cpu []int64
	rounds := 0
	for _, r := range rows {
		if r.StageWallNs == nil {
			continue
		}
		if wall == nil {
			wall = make([]int64, len(r.StageWallNs))
			cpu = make([]int64, len(r.StageCPUNs))
		}
		for i := range r.StageWallNs {
			wall[i] += r.StageWallNs[i]
			cpu[i] += r.StageCPUNs[i]
		}
		rounds += r.TimedRounds
	}
	return obs.TimingTable("Engine per-stage timing — all Table 3 simulation runs",
		obs.WallBreakdown(wall, cpu), rounds)
}

// parseRates splits the -arrival flag's comma-separated offered rates,
// rejecting NaN and negative values (the Poisson sampler treats them as
// undefined) with a clear error.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-arrival: %v", err)
		}
		if math.IsNaN(v) || v < 0 {
			return nil, fmt.Errorf("-arrival: rate must be a non-negative number of tokens per round (got %v)", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hinetbench:", err)
	os.Exit(1)
}
