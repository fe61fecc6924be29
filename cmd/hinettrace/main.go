// Command hinettrace records, inspects and replays CTVG traces: frozen
// dynamic-network runs that make experiments forensically reproducible.
//
// Usage:
//
//	hinettrace record -out net.ctvg [-n -theta -l -t -rounds -seed]
//	hinettrace info   -in net.ctvg
//	hinettrace replay -in net.ctvg [-proto alg1|alg2] [-k -seed]
//	hinettrace probe  -in net.ctvg   # infer which (T, L)-HiNet the trace satisfies
//	hinettrace stats  -in net.ctvg [-proto alg1|alg2] [-k -t -seed -metrics out.jsonl]
//	                  [-provenance prov.jsonl] [-format text|json|csv]
//	hinettrace lineage       -log prov.jsonl -node N -token T [-format ...]
//	hinettrace critical-path -log prov.jsonl [-token T] [-format ...]
//	hinettrace redundancy    -log prov.jsonl [-top N] [-format ...]
//	hinettrace timing        -in run.timing.jsonl [-format ...]
//	hinettrace postmortem    run-r42-stall.dump [-format ...]
//
// stats replays a recorded trace through the internal/obs layer and prints
// a phase-by-phase breakdown (uploads, relays, progress, churn, stalls) —
// the forensic view for diagnosing a run that misses the Theorem 1 bound.
// It also replays the run through the provenance tracer, reporting
// first/redundant delivery totals and critical-path depth quantiles; with
// -provenance the full dissemination DAG is written as JSONL.
//
// lineage, critical-path and redundancy read that provenance JSONL back:
// lineage prints the first-delivery chain that brought one token to one
// node; critical-path prints each token's slowest acquisition route
// (member→head→gateway→head→member hop composition, rounds in flight vs
// queued at heads); redundancy prints the run's wasted-delivery account and
// its per-sender hotspots.
//
// timing reads back a per-round engine stage-span JSONL stream (written by
// hinetsim -timing, hinetbench -timing or experiment TimingDir) and prints
// the per-stage wall/CPU breakdown plus the last resource sample.
//
// postmortem reads back a flight-recorder bundle (written automatically by
// hinetsim/hinetbench -dump-dir when a stall, Theorem 1 pace violation, SLO
// miss or convergence divergence fires) and prints the diagnosis: the
// anomaly, the last healthy round, the first violated invariant, the
// progress trajectory over the recorded window, and the stage-time trend
// when timing was attached.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/hinet"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/provenance"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	case "probe":
		err = probe(os.Args[2:])
	case "stats":
		err = stats(os.Args[2:])
	case "lineage":
		err = lineage(os.Args[2:])
	case "critical-path":
		err = criticalPath(os.Args[2:])
	case "redundancy":
		err = redundancy(os.Args[2:])
	case "timing":
		err = timing(os.Args[2:])
	case "postmortem":
		err = postmortem(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinettrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hinettrace record|info|replay|probe|stats|lineage|critical-path|redundancy|timing|postmortem [flags]")
	os.Exit(2)
}

// writeTable renders tb to stdout in the requested -format.
func writeTable(tb *report.Table, format string) error {
	switch format {
	case "", "text":
		return tb.WriteText(os.Stdout)
	case "json":
		return tb.WriteJSON(os.Stdout)
	case "csv":
		return tb.WriteCSV(os.Stdout)
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", format)
	}
}

// auxOut returns where prose around a table belongs: stdout for text, but
// stderr for machine formats so the stdout stream stays parseable.
func auxOut(format string) *os.File {
	if format == "" || format == "text" {
		return os.Stdout
	}
	return os.Stderr
}

// probe infers which (T, L)-HiNet model a recorded trace satisfies.
func probe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	in := fs.String("in", "net.ctvg", "input file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := load(*in)
	if err != nil {
		return err
	}
	rep := hinet.Probe(tr, tr.Len())
	fmt.Println(rep)
	fmt.Printf("backbone fragility: %d bridge edges, %d cut relays\n",
		rep.BackboneBridges, rep.BackboneCutNodes)
	return nil
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "net.ctvg", "output file")
	n := fs.Int("n", 50, "nodes")
	theta := fs.Int("theta", 10, "max heads")
	l := fs.Int("l", 2, "hop bound L")
	t := fs.Int("t", 12, "phase length T")
	rounds := fs.Int("rounds", 60, "rounds to record")
	reaffil := fs.Int("reaffil", 3, "re-affiliations per boundary")
	churn := fs.Int("churn", 5, "churn edges per round")
	seed := fs.Uint64("seed", 1, "seed")
	full := fs.Bool("full", false, "use the uncompressed v1 format instead of delta encoding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := adversary.HiNetConfig{
		N: *n, Theta: *theta, L: *l, T: *t,
		Reaffiliations: *reaffil, ChurnEdges: *churn,
	}
	if err := checkRecord(cfg, *rounds); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	rec := ctvg.Record(adversary.NewHiNet(cfg, xrand.New(*seed)), *rounds)
	if *full {
		err = trace.Write(f, rec)
	} else {
		err = trace.WriteDelta(f, rec)
	}
	if err == nil {
		err = f.Sync()
	}
	// Close errors are the last place a full disk can surface; losing them
	// here would report a truncated trace as recorded.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d rounds of a (%d, %d)-HiNet on %d nodes to %s\n", *rounds, *t, *l, *n, *out)
	return nil
}

// checkRecord rejects record flags that no trace can be made from, before
// the output file is created.
func checkRecord(cfg adversary.HiNetConfig, rounds int) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("-n %d, -theta %d, -l %d, -t %d: %w", cfg.N, cfg.Theta, cfg.L, cfg.T, err)
	}
	if rounds < 1 {
		return fmt.Errorf("-rounds %d: need at least 1", rounds)
	}
	return nil
}

func load(path string) (*ctvg.DeltaTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "net.ctvg", "input file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := load(*in)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d nodes, %d rounds\n", tr.N(), tr.Len())
	if err := tr.Validate(); err != nil {
		fmt.Printf("structural validation: FAILED: %v\n", err)
	} else {
		fmt.Println("structural validation: ok")
	}
	for r := 0; r < tr.Len(); r++ {
		g := tr.At(r)
		h := tr.HierarchyAt(r)
		fmt.Printf("round %3d: edges=%3d heads=%v gateways=%d connected=%v\n",
			r, g.M(), h.Heads(), len(h.Gateways()), g.Connected())
	}
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "net.ctvg", "input file")
	proto := fs.String("proto", "alg1", "protocol: alg1 | alg2")
	k := fs.Int("k", 8, "tokens")
	t := fs.Int("t", 12, "Algorithm 1 phase length")
	seed := fs.Uint64("seed", 1, "token placement seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := load(*in)
	if err != nil {
		return err
	}
	var p sim.Protocol
	switch *proto {
	case "alg1":
		p = core.Alg1{T: *t}
	case "alg2":
		p = core.Alg2{}
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	assign := token.Spread(tr.N(), *k, xrand.New(*seed))
	met := sim.MustRunProtocol(tr, p, assign, sim.Options{
		MaxRounds: tr.Len(), StopWhenComplete: true,
	})
	fmt.Printf("replayed %s over %s: %v\n", p.Name(), *in, met)
	return nil
}

// stats replays a trace through the obs layer and prints the phase-by-phase
// breakdown. With -metrics it also dumps the raw per-round JSONL series;
// with -provenance it records the full dissemination DAG.
func stats(args []string) (err error) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "net.ctvg", "input file")
	proto := fs.String("proto", "alg1", "protocol: alg1 | alg2")
	k := fs.Int("k", 8, "tokens")
	t := fs.Int("t", 12, "Algorithm 1 phase length")
	seed := fs.Uint64("seed", 1, "token placement seed")
	metrics := fs.String("metrics", "", "also write the per-round JSONL event stream here")
	prov := fs.String("provenance", "", "also write the provenance JSONL stream here")
	format := fs.String("format", "text", "table output: text | json | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := load(*in)
	if err != nil {
		return err
	}
	var p sim.Protocol
	phaseLen := *t
	switch *proto {
	case "alg1":
		p = core.Alg1{T: *t}
	case "alg2":
		p = core.Alg2{}
		phaseLen = 1 // Algorithm 2 re-elects every round; phases degenerate.
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	cfg := obs.Config{
		N: tr.N(), K: *k, PhaseLen: phaseLen, Keep: true,
	}
	var mf *os.File
	if *metrics != "" {
		mf, err = os.Create(*metrics)
		if err != nil {
			return err
		}
		// Propagate the Close error into the subcommand's result: with a
		// buffered sink a full disk can surface only at Close, and a
		// dropped error would pass a truncated JSONL off as complete.
		defer func() {
			if cerr := mf.Close(); err == nil {
				err = cerr
			}
		}()
		cfg.Sink = mf
	}
	col := obs.NewCollector(cfg)
	aux := auxOut(*format)
	pcfg := provenance.Config{
		Keep: true,
		OnPace: func(v provenance.PaceViolation) {
			fmt.Fprintln(aux, "warning:", v)
		},
	}
	var pf *os.File
	if *prov != "" {
		pf, err = os.Create(*prov)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := pf.Close(); err == nil {
				err = cerr
			}
		}()
		pcfg.Sink = pf
	}
	tracer := provenance.New(pcfg)
	assign := token.Spread(tr.N(), *k, xrand.New(*seed))
	met := sim.MustRunProtocol(tr, p, assign, sim.Options{
		MaxRounds:        tr.Len(),
		StopWhenComplete: true,
		Observer:         col.Observer(),
		Tracer:           tracer,
		SizeFn:           wire.Size,
	})
	if err := col.Flush(); err != nil {
		return err
	}
	if err := tracer.Flush(); err != nil {
		return err
	}
	events := col.Events()
	tb := obs.PhaseTable(fmt.Sprintf("%s over %s (n=%d k=%d)", p.Name(), *in, tr.N(), *k), obs.Summarize(events))
	if err := writeTable(tb, *format); err != nil {
		return err
	}
	fmt.Fprintf(aux, "result: %v\n", met)
	if len(events) > 0 {
		last := events[len(events)-1]
		fmt.Fprintf(aux, "final progress: %d/%d (%.1f%%)\n", last.Delivered, last.Total, 100*last.ProgressRatio())
	}
	plog := tracer.Log()
	if s := plog.Summary; s != nil {
		fmt.Fprintf(aux, "deliveries: %d first, %d redundant messages (%d redundant token copies)\n",
			s.First, s.Redundant, s.RedundantTokens)
	}
	if p50, p99, ok := depthQuantiles(plog); ok {
		fmt.Fprintf(aux, "critical-path depth: p50=%.1f p99=%.1f hops\n", p50, p99)
	}
	if mf != nil {
		fmt.Fprintf(aux, "wrote %d per-round events to %s\n", len(events), *metrics)
		if err := mf.Sync(); err != nil {
			return err
		}
	}
	if pf != nil {
		fmt.Fprintf(aux, "wrote %d provenance edges to %s\n", len(plog.Edges), *prov)
		return pf.Sync()
	}
	return nil
}

// timing summarizes a per-round engine stage-span JSONL stream into the
// per-stage wall/CPU breakdown, with the last resource sample appended.
func timing(args []string) error {
	fs := flag.NewFlagSet("timing", flag.ExitOnError)
	in := fs.String("in", "run.timing.jsonl", "timing JSONL file (from hinetsim/hinetbench -timing)")
	format := fs.String("format", "text", "table output: text | json | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	rows, err := obs.ParseTiming(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s holds no timing rows", *in)
	}
	tb := obs.TimingTable(fmt.Sprintf("per-stage timing (%s, %d rounds)", *in, len(rows)),
		obs.SummarizeTiming(rows), len(rows))
	if err := writeTable(tb, *format); err != nil {
		return err
	}
	aux := auxOut(*format)
	for i := len(rows) - 1; i >= 0; i-- {
		if r := rows[i].Res; r != nil {
			fmt.Fprintf(aux, "last resource sample (round %d): heap=%dB objects=%d goroutines=%d arena=%d msgs / %d sets / %dB\n",
				rows[i].Round, r.HeapInuse, r.HeapObjects, r.Goroutines,
				r.ArenaMsgs, r.ArenaSets, r.ArenaSetBytes)
			break
		}
	}
	return nil
}

// postmortem reads back a flight-recorder bundle (written automatically on
// stall/pace/SLO/divergence anomalies) and renders its diagnosis: the last
// healthy round, the first violated invariant, the progress trajectory over
// the ring window, and the stage-time trend when timing was attached.
func postmortem(args []string) error {
	fs := flag.NewFlagSet("postmortem", flag.ExitOnError)
	in := fs.String("in", "", "postmortem bundle (.dump); may also be the first positional argument")
	format := fs.String("format", "text", "table output: text | json | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *in
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" {
		return fmt.Errorf("postmortem: bundle path required (hinettrace postmortem run-r42-stall.dump)")
	}
	b, err := recorder.ReadBundle(path)
	if err != nil {
		return err
	}
	d := b.Diagnose()
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Bundle    string              `json:"bundle"`
			Diagnosis *recorder.Diagnosis `json:"diagnosis"`
			Health    []health.State      `json:"health,omitempty"`
			Metrics   sim.Metrics         `json:"metrics"`
			Faults    any                 `json:"faults,omitempty"`
			Finger    map[string]string   `json:"fingerprint,omitempty"`
		}{path, d, b.Health, b.Metrics, b.Faults, b.Fingerprint})
	}
	aux := auxOut(*format)
	fmt.Fprintf(aux, "postmortem %s\n", path)
	fmt.Fprintf(aux, "anomaly: %s at round %d (run %q, n=%d k=%d phase-len=%d, ring depth %d)\n",
		d.Reason, d.Round, b.Prefix, b.N, b.K, b.PhaseLen, b.Depth)
	if d.LastHealthyRound >= 0 {
		fmt.Fprintf(aux, "last healthy round: %d\n", d.LastHealthyRound)
	} else {
		fmt.Fprintln(aux, "last healthy round: none inside the ring window")
	}
	if fv := d.FirstViolated; fv != nil {
		fmt.Fprintf(aux, "first violated invariant: rule %s at round %d (last %.2f vs limit %.2f)\n",
			fv.Rule.Kind, fv.FirstRound, fv.LastValue, fv.LastLimit)
	}
	for _, s := range b.Health {
		if s.Violations > 0 && (d.FirstViolated == nil || s.Rule.Kind != d.FirstViolated.Rule.Kind) {
			fmt.Fprintf(aux, "also violated: rule %s ×%d, first at round %d\n",
				s.Rule.Kind, s.Violations, s.FirstRound)
		}
	}
	for _, note := range d.Notes {
		fmt.Fprintln(aux, "note:", note)
	}
	if keys := sortedKeys(b.Fingerprint); len(keys) > 0 {
		fmt.Fprint(aux, "config:")
		for _, k := range keys {
			fmt.Fprintf(aux, " %s=%s", k, b.Fingerprint[k])
		}
		fmt.Fprintln(aux)
	}
	tb := report.NewTable(fmt.Sprintf("progress trajectory — last %d recorded rounds", len(d.Trajectory)),
		"round", "delivered", "total", "stall", "msgs", "outstanding", "crashes", "drops")
	for _, p := range d.Trajectory {
		tb.AddRowf(p.Round, p.Delivered, p.Total, p.Stall, p.Messages, p.Outstanding, p.Crashes, p.Drops)
	}
	if err := writeTable(tb, *format); err != nil {
		return err
	}
	if len(d.Stages) > 0 {
		st := report.NewTable("stage-time trend — ring first half vs last quarter",
			"stage", "base ns/round", "tail ns/round", "ratio")
		for _, s := range d.Stages {
			st.AddRowf(s.Stage, s.BaseNs, s.TailNs, fmt.Sprintf("%.2f", s.Ratio))
		}
		if err := writeTable(st, *format); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns m's keys in deterministic order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// depthQuantiles folds the log's first-delivery hop depths through an obs
// histogram with unit buckets and reads off p50/p99.
func depthQuantiles(l *provenance.Log) (p50, p99 float64, ok bool) {
	depths := l.Depths()
	if len(depths) == 0 {
		return 0, 0, false
	}
	maxDepth := 0
	for _, d := range depths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	bounds := make([]float64, maxDepth)
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := obs.NewHistogram(bounds)
	for _, d := range depths {
		h.Observe(float64(d))
	}
	return h.Quantile(0.5), h.Quantile(0.99), true
}

// loadProv reads a provenance JSONL stream from disk.
func loadProv(path string) (*provenance.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return provenance.ParseLog(f)
}

// lineage prints the first-delivery chain that brought one token to one
// node.
func lineage(args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ExitOnError)
	logPath := fs.String("log", "prov.jsonl", "provenance JSONL file")
	node := fs.Int("node", 0, "node that acquired the token")
	tok := fs.Int("token", 0, "token to trace")
	format := fs.String("format", "text", "table output: text | json | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := loadProv(*logPath)
	if err != nil {
		return err
	}
	chain, ok := l.Lineage(*node, *tok)
	if !ok {
		return fmt.Errorf("node %d never acquired token %d", *node, *tok)
	}
	aux := auxOut(*format)
	if len(chain) == 0 {
		fmt.Fprintf(aux, "node %d held token %d initially; no lineage\n", *node, *tok)
		return nil
	}
	tb := edgeTable(fmt.Sprintf("lineage of token %d to node %d (%d hops)", *tok, *node, len(chain)), chain)
	return writeTable(tb, *format)
}

// edgeTable renders provenance edges as a report table.
func edgeTable(title string, edges []provenance.Edge) *report.Table {
	tb := report.NewTable(title, "round", "token", "teacher", "role", "kind", "learner", "cluster")
	for _, e := range edges {
		teacher := "-"
		if e.Teacher != provenance.NoTeacher {
			teacher = fmt.Sprint(e.Teacher)
		}
		tb.AddRowf(e.Round, e.Token, teacher, e.TeacherRole, e.Kind, e.Learner, e.Cluster)
	}
	return tb
}

// criticalPath prints each token's slowest acquisition route: hop depth,
// end-to-end rounds, rounds queued at holders, and the hop composition by
// message kind and teacher role.
func criticalPath(args []string) error {
	fs := flag.NewFlagSet("critical-path", flag.ExitOnError)
	logPath := fs.String("log", "prov.jsonl", "provenance JSONL file")
	tok := fs.Int("token", -1, "single token to report (-1 = all)")
	format := fs.String("format", "text", "table output: text | json | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := loadProv(*logPath)
	if err != nil {
		return err
	}
	var paths []provenance.Path
	if *tok >= 0 {
		p, ok := l.TokenCritical(*tok)
		if !ok {
			return fmt.Errorf("no first delivery of token %d in the log", *tok)
		}
		paths = append(paths, p)
	} else {
		paths = l.AllCritical()
		if len(paths) == 0 {
			return fmt.Errorf("log has no first deliveries")
		}
	}
	tb := report.NewTable(fmt.Sprintf("critical paths (%s)", *logPath),
		"token", "slowest-node", "depth", "rounds", "queued",
		"uploads", "relays", "broadcasts", "coded",
		"via-member", "via-head", "via-gateway")
	for _, p := range paths {
		tb.AddRowf(p.Token, p.Node, p.Depth, p.Rounds, p.Queued,
			p.KindHops[sim.KindUpload], p.KindHops[sim.KindRelay],
			p.KindHops[sim.KindBroadcast], p.KindHops[sim.KindCoded],
			p.RoleHops[ctvg.Member], p.RoleHops[ctvg.Head], p.RoleHops[ctvg.Gateway])
	}
	if err := writeTable(tb, *format); err != nil {
		return err
	}
	if p50, p99, ok := depthQuantiles(l); ok {
		fmt.Fprintf(auxOut(*format), "first-delivery depth over all %d edges: p50=%.1f p99=%.1f hops\n",
			len(l.Edges), p50, p99)
	}
	return nil
}

// redundancy prints the run's wasted-delivery account and the per-sender
// hotspots.
func redundancy(args []string) error {
	fs := flag.NewFlagSet("redundancy", flag.ExitOnError)
	logPath := fs.String("log", "prov.jsonl", "provenance JSONL file")
	top := fs.Int("top", 10, "sender hotspots to list (0 = all)")
	format := fs.String("format", "text", "table output: text | json | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := loadProv(*logPath)
	if err != nil {
		return err
	}
	s := l.Summary
	if s == nil {
		return fmt.Errorf("log %s has no summary record (run was not flushed)", *logPath)
	}
	aux := auxOut(*format)
	total := s.First + s.Redundant
	waste := 0.0
	if total > 0 {
		waste = float64(s.Redundant) / float64(total)
	}
	fmt.Fprintf(aux, "deliveries: %d first, %d redundant messages (%.1f%% of useful+redundant), %d redundant token copies\n",
		s.First, s.Redundant, 100*waste, s.RedundantTokens)
	fmt.Fprintf(aux, "redundant by kind: broadcast=%d upload=%d relay=%d coded=%d\n",
		s.RedundantByKind[sim.KindBroadcast], s.RedundantByKind[sim.KindUpload],
		s.RedundantByKind[sim.KindRelay], s.RedundantByKind[sim.KindCoded])
	if s.PaceViolations > 0 {
		fmt.Fprintf(aux, "pace violations: %d (run fell behind the Theorem 1 schedule)\n", s.PaceViolations)
	}
	rows := s.BySender
	if *top > 0 && len(rows) > *top {
		rows = rows[:*top]
	}
	tb := report.NewTable(fmt.Sprintf("redundant-message hotspots (%s)", *logPath),
		"sender", "redundant-msgs", "share")
	for _, r := range rows {
		share := "-"
		if s.Redundant > 0 {
			share = report.Pct(float64(r.Count) / float64(s.Redundant))
		}
		tb.AddRowf(r.Node, r.Count, share)
	}
	return writeTable(tb, *format)
}
