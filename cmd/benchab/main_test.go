package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// seq returns n values from start in steps of step.
func seq(n int, start, step float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = start + float64(i)*step
	}
	return xs
}

// pairsFor builds successful runs carrying one metric, base and head in
// pair order; a NaN leaves the metric out of that run.
func pairsFor(name string, base, head []float64) [2][]run {
	var runs [2][]run
	for s, vs := range [2][]float64{base, head} {
		for _, v := range vs {
			r := run{ok: true, values: map[string]float64{}}
			if !math.IsNaN(v) {
				r.values[name] = v
			}
			runs[s] = append(runs[s], r)
		}
	}
	return runs
}

func TestSummarise(t *testing.T) {
	nan := math.NaN()
	oneTie := seq(10, 150, 1)
	oneTie[0] = 100 // equal to the base's first run
	oneMissing := seq(10, 150, 1)
	oneMissing[3] = nan
	cases := []struct {
		name       string
		better     string
		base, head []float64
		claimed    bool
		wins, ties int
		within     bool
		resolved   bool
		met        string // "" when no claim is recorded, else "true" or "false"
		ok         bool
	}{
		{name: "claim met over 10 pairs", better: "higher", base: seq(10, 100, 1), head: seq(10, 150, 1),
			claimed: true, wins: 10, within: true, resolved: true, met: "true", ok: true},
		{name: "claim over too few pairs", better: "higher", base: seq(9, 100, 1), head: seq(9, 150, 1),
			claimed: true, wins: 9, within: true, resolved: true, met: "false"},
		{name: "nine wins and a tie meet a claim", better: "higher", base: seq(10, 100, 1), head: oneTie,
			claimed: true, wins: 9, ties: 1, within: true, resolved: true, met: "true", ok: true},
		{name: "ties win nothing", better: "higher", base: seq(10, 100, 1), head: seq(10, 100, 1),
			claimed: true, ties: 10, within: true, resolved: true, met: "false"},
		{name: "a missing value wins nothing", better: "higher", base: seq(10, 100, 1), head: oneMissing,
			claimed: true, wins: 9, within: true, resolved: true, met: "true", ok: true},
		{name: "a metric missing everywhere", better: "higher", base: []float64{nan, nan}, head: []float64{nan, nan}},
		{name: "lower is better", better: "lower", base: seq(10, 2, 0.01), head: seq(10, 1.5, 0.01),
			claimed: true, wins: 10, within: true, resolved: true, met: "true", ok: true},
		{name: "lower is better and the change is worse", better: "lower", base: seq(10, 2, 0.01), head: seq(10, 3, 0.01),
			within: false, resolved: true},
		{name: "wide overlapping spread is unresolved", better: "higher", base: seq(10, 50, 10), head: seq(10, 55, 10),
			wins: 10, within: true, resolved: false},
		{name: "wide spread that never overlaps is resolved", better: "higher", base: seq(10, 50, 5), head: seq(10, 200, 1),
			wins: 10, within: true, resolved: true, ok: true},
		{name: "wide base spread is unresolved", better: "higher", base: seq(10, 50, 10), head: seq(10, 100, 1),
			wins: 6, within: true, resolved: false},
		{name: "wide head spread is unresolved", better: "lower", base: seq(10, 100, 0.1), head: seq(10, 60, 8),
			wins: 6, within: true, resolved: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms := metricSpec{Name: "m", Better: tc.better, Bound: 0.25}
			wr, ok := summarise([]metricSpec{ms}, pairsFor("m", tc.base, tc.head), tc.claimed, "m")
			m := wr["metrics"].(map[string]any)["m"].(map[string]any)
			if got := m["head_wins"].(int); got != tc.wins {
				t.Errorf("head_wins %d, want %d", got, tc.wins)
			}
			if got := m["ties"].(int); got != tc.ties {
				t.Errorf("ties %d, want %d", got, tc.ties)
			}
			if got := m["within_bound"].(bool); got != tc.within {
				t.Errorf("within_bound %v, want %v", got, tc.within)
			}
			if got := m["resolved"].(bool); got != tc.resolved {
				t.Errorf("resolved %v, want %v", got, tc.resolved)
			}
			met := ""
			if c, has := wr["claim"].(map[string]any); has {
				met = map[bool]string{true: "true", false: "false"}[c["met"].(bool)]
			}
			if met != tc.met {
				t.Errorf("claim met %q, want %q", met, tc.met)
			}
			if ok != tc.ok {
				t.Errorf("ok %v, want %v", ok, tc.ok)
			}
		})
	}
}

func TestSummariseFailedRun(t *testing.T) {
	runs := pairsFor("m", seq(3, 100, 1), seq(3, 100, 1))
	runs[1][2].ok = false
	if _, ok := summarise([]metricSpec{{Name: "m", Better: "higher", Bound: 0.25}}, runs, false, ""); ok {
		t.Fatal("a failed run must fail the workload")
	}
}

func TestQuartiles(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		want [3]float64
	}{
		{name: "even count interpolates", xs: []float64{4, 1, 3, 2}, want: [3]float64{1.75, 2.5, 3.25}},
		{name: "one value", xs: []float64{5}, want: [3]float64{5, 5, 5}},
		{name: "NaN skipped", xs: []float64{nan, 3, 1}, want: [3]float64{1.5, 2, 2.5}},
		{name: "nothing but NaN", xs: []float64{nan}, want: [3]float64{nan, nan, nan}},
		{name: "empty", want: [3]float64{nan, nan, nan}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := quartiles(tc.xs)
			for i := range got {
				if got[i] != tc.want[i] && !(math.IsNaN(got[i]) && math.IsNaN(tc.want[i])) {
					t.Fatalf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				}
			}
		})
	}
}

func TestParseLoad1(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name, line string
		want       float64
	}{
		{name: "a loadavg line", line: "1.52 0.98 0.61 3/412 123456\n", want: 1.52},
		{name: "an idle host", line: "0.00 0.01 0.05 1/80 7", want: 0},
		{name: "empty", line: "", want: nan},
		{name: "garbage", line: "busy 0.98 0.61", want: nan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseLoad1(tc.line); got != tc.want && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
				t.Fatalf("parseLoad1(%q) = %v, want %v", tc.line, got, tc.want)
			}
		})
	}
}

// TestSummariseLoad1: each side's median load is recorded, and left out
// when no run could read it.
func TestSummariseLoad1(t *testing.T) {
	metrics := []metricSpec{{Name: "m", Better: "higher", Bound: 0.25}}
	runs := pairsFor("m", seq(3, 100, 1), seq(3, 100, 1))
	for s := range runs {
		for i := range runs[s] {
			runs[s][i].load1 = float64(s + i)
		}
	}
	wr, _ := summarise(metrics, runs, false, "")
	if got, ok := wr["load1_median"].(map[string]any); !ok || got["base"] != 1.0 || got["head"] != 2.0 {
		t.Fatalf("load1_median %v, want base 1 and head 2", wr["load1_median"])
	}
	for s := range runs {
		for i := range runs[s] {
			runs[s][i].load1 = math.NaN()
		}
	}
	if wr, _ := summarise(metrics, runs, false, ""); wr["load1_median"] != nil {
		t.Fatalf("load1_median %v without a load read", wr["load1_median"])
	}
}

// TestPrune: only the named trees survive, whatever their contents, and
// pruning a directory that holds nothing else is a no-op.
func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"aaa1111", "bbb2222", "ccc3333"} {
		if err := os.MkdirAll(filepath.Join(dir, name, "perfbench"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name, "BENCHMARK.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if err := prune(dir, "aaa1111", "ccc3333", "working tree"); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, []string{"aaa1111", "ccc3333"}) {
			t.Fatalf("left %v, want [aaa1111 ccc3333]", got)
		}
	}
}
