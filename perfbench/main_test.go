package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON keeps the reported metrics and the
// repository's BENCHMARK.json in step: same names, same units, same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		want []metric
		got  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, doc.EndToEnd}, {"per_layer", perLayer, doc.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					c.kind, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
	}
}

// TestHistogramPercentile checks the pooled percentiles against exact
// nearest-rank percentiles of the same samples.
func TestHistogramPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHistogram()
	var xs []float64
	for i := 0; i < 20000; i++ {
		d := time.Duration(math.Exp(rng.NormFloat64()) * 4e6) // around 4 ms
		h.add(d)
		xs = append(xs, float64(d)/1e6)
	}
	sort.Float64s(xs)
	for _, p := range []float64{0.5, 0.99} {
		got, beyond := h.percentile(p)
		rank := int(math.Ceil(p*float64(len(xs)))) - 1
		if want := xs[rank]; math.Abs(got-want) > 0.001*want {
			t.Errorf("p%v = %v ms, exact %v ms", p*100, got, want)
		}
		if exact := len(xs) - 1 - rank; beyond > exact || beyond < exact-len(xs)/1000 {
			t.Errorf("p%v: %d samples beyond, exact %d", p*100, beyond, exact)
		}
	}
}

// TestTrimmedPool checks that a spike in one repetition leaves the pool
// while a round that is slow in every repetition stays in its tail.
func TestTrimmedPool(t *testing.T) {
	runs := make([][]float64, 3)
	for j := range runs {
		runs[j] = make([]float64, 1000)
		for i := range runs[j] {
			runs[j][i] = 1 + float64(j)/100
		}
		for i := 0; i < 20; i++ {
			runs[j][i*50] = 10 // slow in every repetition
		}
	}
	runs[1][7] = 1000 // an interruption in one repetition
	pool := trimmedPool(runs)
	if len(pool) != 2000 {
		t.Fatalf("pooled %d samples, want 2 of 3 repetitions of 1000 rounds", len(pool))
	}
	if max := pool[len(pool)-1]; max != 10 {
		t.Errorf("slowest pooled round %v, want 10: the spike survived or the slow rounds did not", max)
	}
	if p99, beyond := percentile(pool, 0.99); p99 != 10 || beyond != 20 {
		t.Errorf("p99 %v with %d beyond, want 10 with 20 beyond", p99, beyond)
	}
}

// TestCanonical checks that outputs compare equal however their keys were
// ordered, and keep their numbers exactly.
func TestCanonical(t *testing.T) {
	a, err := canonical([]byte(`{"b": 12345678901234567890, "a": [0.1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonical([]byte(`{"a":[0.1,2],"b":12345678901234567890}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) || string(a) != `{"a":[0.1,2],"b":12345678901234567890}` {
		t.Fatalf("canonical forms differ: %s vs %s", a, b)
	}
}
