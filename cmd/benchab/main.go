// Command benchab runs the repository's end-to-end benchmark (perfbench, as
// BENCHMARK.json declares it) on a base commit and on a change in
// alternating pairs, and writes a paired BENCH record:
//
//	go run ./cmd/benchab -base <rev> -out BENCH_PR<n>.json \
//	    [-head <rev>] [-pairs 10] [-workloads w1,w2] \
//	    [-claim workload:metric] [-trace 3]
//
// or `make benchab BASE=<rev> PR=<n>`. The base, and the head when -head
// is given, are exported with git archive under .bench_build/benchab/,
// where the exports of any other commits are removed; without -head the
// change is this checkout as it stands. Every run is
// `bash perfbench/run.sh --workload W --seed S --seconds T` inside the
// side's tree, with T the run_seconds BENCHMARK.json fixes, so each binary
// is built from its own sources and run exactly as the benchmark runs it.
// Odd pairs run the base first, even pairs the change, so drift over a
// long run falls on both sides alike.
//
// Per workload and end-to-end metric the record holds each side's median,
// quartiles, IQR and IQR over median, the relative move of the median, the
// pairs the change won and tied, whether the move stays within the
// metric's BENCHMARK.json bound, whether the metric is resolved, and
// whether the move exceeds the base's IQR; per side it holds failed and
// attempted repetitions, the median host steal and the median 1-minute
// load average, read from /proc/loadavg after each run and printed with
// each pair (left out where the file cannot be read). A metric is resolved
// when neither side's IQR exceeds its bound times its median, or when every
// run of the change beats every run of the base; an unresolved metric
// shows nothing either way. -claim is refused below 10 pairs, so a smoke
// records no claim; a claim is met when the change wins at least 9 of
// every 10 pairs and its median beats the base's by more than the base's
// IQR. With -trace N, N traced pairs per workload add each side's
// per-layer medians. benchab exits 1 when a run fails, a metric leaves its
// bound or is unresolved, or the claim is not met.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json benchab reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one perfbench invocation's parsed output.
type run struct {
	ok        bool
	attempted int
	failed    int
	values    map[string]float64
	stealPct  float64
	load1     float64 // 1-minute load average after the run, NaN when unread
}

// side is one tree under test.
type side struct {
	name, rev, dir string
}

// claimPairs is the fewest pairs a claim is judged on: the rule is at
// least 9 wins in every 10 pairs.
const claimPairs = 10

// options are the command-line flags.
type options struct {
	base, head, workloads, claim, out, note string
	pairs, seed, trace                      int
}

func main() {
	var o options
	flag.StringVar(&o.base, "base", "", "base revision (required)")
	flag.StringVar(&o.head, "head", "", "revision of the change (default: this checkout as it stands)")
	flag.IntVar(&o.pairs, "pairs", claimPairs, "alternating pairs per workload; fewer than 10 is a smoke and takes no -claim")
	flag.IntVar(&o.seed, "seed", 1, "perfbench --seed")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workloads (default: every BENCHMARK.json workload)")
	flag.StringVar(&o.claim, "claim", "", "claimed workload:metric, judged by the 9-of-10 and IQR rule")
	flag.IntVar(&o.trace, "trace", 0, "traced pairs per workload for per-layer medians")
	flag.StringVar(&o.out, "out", "", "record to write, e.g. BENCH_PR<n>.json (required)")
	flag.StringVar(&o.note, "note", "", "what the change is and what it predicts, for the record's benchmark field")
	flag.Parse()
	if o.base == "" || o.out == "" || o.pairs < 1 || o.trace < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchab -base <rev> -out <file> [-head <rev>] [-pairs N] [-seed S] [-workloads a,b] [-claim workload:metric] [-trace N] [-note text]")
		os.Exit(2)
	}
	if o.claim != "" && o.pairs < claimPairs {
		fmt.Fprintf(os.Stderr, "benchab: -claim needs at least %d pairs, not %d\n", claimPairs, o.pairs)
		os.Exit(2)
	}
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func (o options) run() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if sp.RunSeconds <= 0 {
		return fmt.Errorf("BENCHMARK.json: run_seconds %g, want a positive run length", sp.RunSeconds)
	}
	var names []string
	if o.workloads != "" {
		names = strings.Split(o.workloads, ",")
	} else {
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	claimW, claimM, _ := strings.Cut(o.claim, ":")
	if o.claim != "" && !slices.ContainsFunc(sp.EndToEnd, func(m metricSpec) bool { return m.Name == claimM }) {
		return fmt.Errorf("-claim %q: want workload:metric with an end-to-end metric", o.claim)
	}

	b, err := export("base", o.base)
	if err != nil {
		return err
	}
	h := side{name: "head", rev: "working tree", dir: "."}
	if o.head != "" {
		if h, err = export("head", o.head); err != nil {
			return err
		}
	}
	if err := prune(exports, b.rev, h.rev); err != nil {
		return err
	}
	sides := [2]side{b, h}

	rec := map[string]any{
		"benchmark": strings.TrimSpace("perfbench end to end (BENCHMARK.json), base vs change, alternating pairs (base first on odd pairs). Per end-to-end metric: median, quartiles and IQR over median of each side's per-run values, relative move of the median, pairs the change won (ties count for neither), whether the move stays within the BENCHMARK.json bound, whether the metric is resolved (neither side's IQR exceeds the bound times its median, or every run of the change beats every run of the base) and whether the move exceeds the base's IQR. " + o.note),
		"command":   fmt.Sprintf("per pair and side: (cd <tree> && bash perfbench/run.sh --workload <w> --seed %d --seconds %g); traced: the same with --trace 1", o.seed, sp.RunSeconds),
		"base":      b.rev,
		"head":      h.rev,
	}
	ok := true
	wrec := map[string]any{}
	trec := map[string]any{}
	for _, w := range names {
		runs := o.pairsOf(sides, w, o.pairs, sp.RunSeconds, false)
		wr, wok := summarise(sp.EndToEnd, runs, w == claimW, claimM)
		wr["pairs"], wr["seed"], wr["seconds"] = o.pairs, o.seed, sp.RunSeconds
		ok = ok && wok
		if c, claimed := wr["claim"].(map[string]any); claimed {
			c["workload"] = w
			rec["claim"] = c
			delete(wr, "claim")
		}
		wrec[w] = wr
		if o.trace == 0 {
			continue
		}
		truns := o.pairsOf(sides, w, o.trace, sp.RunSeconds, true)
		tr := map[string]any{"pairs": o.trace}
		for s, name := range []string{"base", "head"} {
			m := map[string]any{}
			for _, ms := range sp.PerLayer {
				m[ms.Name] = round6(median(column(truns[s], ms.Name)))
			}
			m["failed_repetitions"] = sum(truns[s], func(r run) int { return r.failed })
			ok = ok && all(truns[s], func(r run) bool { return r.ok })
			tr[name] = m
		}
		trec[w] = tr
	}
	rec["workloads"] = wrec
	if o.trace > 0 {
		rec["traced"] = trec
	}
	rec["host"] = host()
	if o.claim != "" && rec["claim"] == nil {
		return fmt.Errorf("-claim names workload %q, which did not run", claimW)
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.out)
	if !ok {
		return fmt.Errorf("a run failed, a metric left its bound or is unresolved, or the claim was not met; see %s", o.out)
	}
	return nil
}

// pairsOf runs n alternating pairs of workload w, the base first on odd
// pairs, and returns each side's runs in pair order: [0] base, [1] head.
func (o options) pairsOf(sides [2]side, w string, n int, seconds float64, traced bool) [2][]run {
	var runs [2][]run
	for p := 0; p < n; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, s := range order {
			runs[s] = append(runs[s], perfbench(sides[s], w, o.seed, seconds, traced))
		}
		load := ""
		if b, h := runs[0][p].load1, runs[1][p].load1; !math.IsNaN(b) || !math.IsNaN(h) {
			load = fmt.Sprintf(", load1 base %.2f head %.2f", b, h)
		}
		fmt.Fprintf(os.Stderr, "benchab: %s pair %d/%d done (traced %v)%s\n", w, p+1, n, traced, load)
	}
	return runs
}

// exports is the directory export writes its trees under.
var exports = filepath.Join(".bench_build", "benchab")

// export writes rev's tree under exports/<hash> with git archive, unless
// a previous export is there.
func export(name, rev string) (side, error) {
	hash, err := exec.Command("git", "rev-parse", "--short", rev+"^{commit}").Output()
	if err != nil {
		return side{}, fmt.Errorf("-%s %s: %w", name, rev, err)
	}
	s := side{name: name, rev: strings.TrimSpace(string(hash))}
	s.dir = filepath.Join(exports, s.rev)
	if _, err := os.Stat(filepath.Join(s.dir, "BENCHMARK.json")); err == nil {
		return s, nil
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return s, err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return s, err
	}
	archive := exec.Command("git", "archive", s.rev)
	untar := exec.Command("tar", "-x", "-C", s.dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return s, err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return s, err
	}
	if err := archive.Run(); err != nil {
		return s, fmt.Errorf("git archive %s: %w", s.rev, err)
	}
	if err := untar.Wait(); err != nil {
		return s, fmt.Errorf("extracting %s: %w", s.rev, err)
	}
	return s, nil
}

// prune removes every entry of dir but the named ones: each export keeps
// its build cache, about 100 MB, so the trees of earlier passes would
// otherwise pile up.
func prune(dir string, keep ...string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !slices.Contains(keep, e.Name()) {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

var (
	stealLine = regexp.MustCompile(`host steal time [\d.]+ s over [\d.]+ s wall \(([\d.]+)% of \d+ CPUs\)`)
	procsLine = regexp.MustCompile(`GOMAXPROCS (\d+)`)
	// gomaxprocs is what the runs report; perfbench pins it.
	gomaxprocs int
)

// perfbench runs one invocation in s's tree and parses its result line.
func perfbench(s side, workload string, seed int, seconds float64, traced bool) run {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	r := run{stealPct: math.NaN(), load1: math.NaN()}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		r.load1 = parseLoad1(string(buf))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %s %s: %v\n", s.name, workload, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if m := stealLine.FindStringSubmatch(line); m != nil {
			r.stealPct, _ = strconv.ParseFloat(m[1], 64)
		}
		if m := procsLine.FindStringSubmatch(line); m != nil {
			gomaxprocs, _ = strconv.Atoi(m[1])
		}
		if strings.HasPrefix(line, "{") {
			last = line
		}
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if last == "" || json.Unmarshal([]byte(last), &res) != nil {
		fmt.Fprintf(os.Stderr, "benchab: %s %s: no result line\n", s.name, workload)
		return r
	}
	r.ok = err == nil && res.Correct
	r.attempted, r.failed = res.Attempted, res.Failed
	r.values = map[string]float64{}
	for k, v := range res.Metrics {
		r.values[k] = v.Value
	}
	return r
}

// summarise folds one workload's pairs into its record entry and reports
// whether every run succeeded, every metric stayed within its bound and,
// on the claimed workload, whether the claim was met.
func summarise(metrics []metricSpec, runs [2][]run, claimed bool, claimM string) (map[string]any, bool) {
	correct := [2]bool{all(runs[0], func(r run) bool { return r.ok }), all(runs[1], func(r run) bool { return r.ok })}
	steal, load := func(r run) float64 { return r.stealPct }, func(r run) float64 { return r.load1 }
	ok := correct[0] && correct[1]
	wr := map[string]any{
		"correct": map[string]bool{"base": correct[0], "head": correct[1]},
		"failed_repetitions": map[string]int{
			"base": sum(runs[0], func(r run) int { return r.failed }),
			"head": sum(runs[1], func(r run) int { return r.failed }),
		},
		"attempted_repetitions": map[string]int{
			"base": sum(runs[0], func(r run) int { return r.attempted }),
			"head": sum(runs[1], func(r run) int { return r.attempted }),
		},
		"steal_pct_median": map[string]any{
			"base": round6(median(floats(runs[0], steal))),
			"head": round6(median(floats(runs[1], steal))),
		},
	}
	if b, h := median(floats(runs[0], load)), median(floats(runs[1], load)); !math.IsNaN(b) || !math.IsNaN(h) {
		wr["load1_median"] = map[string]any{"base": round6(b), "head": round6(h)}
	}
	mrec := map[string]any{}
	for _, ms := range metrics {
		bv, hv := column(runs[0], ms.Name), column(runs[1], ms.Name)
		bq, hq := quartiles(bv), quartiles(hv)
		sign := 1.0 // +1 when lower is better
		if ms.Better == "higher" {
			sign = -1
		}
		wins, ties := 0, 0
		for i := range bv {
			switch d := sign * (hv[i] - bv[i]); {
			case d < 0:
				wins++
			case d == 0:
				ties++
			}
		}
		change := hq[1]/bq[1] - 1
		within := sign*change <= ms.Bound
		// A move of the median shows something only when neither side
		// spreads wider than the bound or the two sides do not overlap.
		resolved := spread(bq) <= ms.Bound && spread(hq) <= ms.Bound || beatsAll(sign, hv, bv)
		gap := sign*(bq[1]-hq[1]) > bq[2]-bq[0] // the change is better by more than the base IQR
		ok = ok && within && resolved
		mrec[ms.Name] = map[string]any{
			"unit": ms.Unit, "better": ms.Better, "bound": ms.Bound,
			"base":                 side4(bq),
			"head":                 side4(hq),
			"change":               round6(change),
			"head_wins":            wins,
			"ties":                 ties,
			"within_bound":         within,
			"resolved":             resolved,
			"gap_exceeds_base_iqr": gap,
		}
		fmt.Printf("%-22s base %-12.6g head %-12.6g change %+7.2f%%  won %d/%d  within bound %v  resolved %v\n",
			ms.Name, bq[1], hq[1], 100*change, wins, len(bv), within, resolved)
		if claimed && ms.Name == claimM {
			met := len(bv) >= claimPairs && 10*wins >= 9*len(bv) && gap
			ok = ok && met
			wr["claim"] = map[string]any{
				"metric": ms.Name,
				"rule":   "over at least 10 pairs, the change wins at least 9 of every 10 and its median beats the base's by more than the base's IQR",
				"met":    met, "head_wins": wins, "pairs": len(bv),
			}
		}
	}
	wr["metrics"] = mrec
	return wr, ok
}

// host describes the machine the pairs ran on.
func host() map[string]any {
	h := map[string]any{"cpus": runtime.NumCPU(), "go": runtime.Version(), "gomaxprocs": gomaxprocs,
		"steal": "median host steal per run, percent of all CPUs, per workload under steal_pct_median",
		"load1": "median 1-minute load average read from /proc/loadavg after each run, per workload under load1_median"}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/meminfo"); err == nil {
		var kb float64
		if _, err := fmt.Sscanf(string(buf), "MemTotal: %g kB", &kb); err == nil {
			h["mem_gb"] = math.Round(kb/(1<<20)*10) / 10 // GiB
		}
	}
	return h
}

func column(rs []run, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		v, ok := r.values[name]
		if !ok {
			v = math.NaN()
		}
		out[i] = v
	}
	return out
}

// floats returns f of each run.
func floats(rs []run, f func(run) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// parseLoad1 returns the 1-minute load average, the first field of a
// /proc/loadavg line, or NaN when the line has none.
func parseLoad1(line string) float64 {
	f := strings.Fields(line)
	if len(f) == 0 {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

func all(rs []run, f func(run) bool) bool {
	for _, r := range rs {
		if !f(r) {
			return false
		}
	}
	return true
}

func sum(rs []run, f func(run) int) int {
	t := 0
	for _, r := range rs {
		t += f(r)
	}
	return t
}

// quartiles returns q1, median and q3, interpolating linearly between
// order statistics; NaNs are skipped.
func quartiles(xs []float64) [3]float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// spread is a side's IQR over its median. A missing side, or one whose
// runs all read zero, has NaN, which no bound admits.
func spread(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }

// beatsAll reports whether every head value beats every base value; sign
// is +1 when lower is better and -1 when higher is. A missing value beats
// nothing.
func beatsAll(sign float64, hv, bv []float64) bool {
	for _, h := range hv {
		for _, b := range bv {
			if !(sign*(h-b) < 0) {
				return false
			}
		}
	}
	return len(hv) > 0 && len(bv) > 0
}

func side4(q [3]float64) map[string]any {
	return map[string]any{"median": round6(q[1]), "q1": round6(q[0]), "q3": round6(q[2]),
		"iqr": round6(q[2] - q[0]), "iqr_over_median": round6(spread(q))}
}

// round6 keeps six significant digits. A missing value (NaN, which JSON
// cannot carry) becomes null.
func round6(x float64) any {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	return v
}
