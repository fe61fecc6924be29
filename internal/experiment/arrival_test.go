package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

var arrivalTestParams = analysis.Params{N0: 12, Theta: 4, NM: 4, K: 2, Alpha: 1, L: 1}

func TestArrivalLoadDrained(t *testing.T) {
	cfg := ArrivalConfig{
		P:        arrivalTestParams,
		Proto:    "alg2",
		Arrivals: sim.Arrivals{Rate: 0.5, Seed: 11, Stop: 40},
		SLA:      1,
		Seed:     3,
	}
	res, err := ArrivalLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "drained" || !res.Complete {
		t.Fatalf("want a drained run, got %+v", res)
	}
	if res.Injected == 0 {
		t.Fatal("no tokens injected over a 40-round window at rate 0.5")
	}
	// Drained: every arrival plus the initial batch was collected.
	if res.Collected != res.Injected+int64(cfg.P.K) {
		t.Fatalf("collected %d, want injected %d + batch %d", res.Collected, res.Injected, cfg.P.K)
	}
	if res.FinalOutstanding != 0 {
		t.Fatalf("drained run with %d outstanding", res.FinalOutstanding)
	}
	if res.PeakOutstanding < cfg.P.K {
		t.Fatalf("peak queue %d below the initial batch", res.PeakOutstanding)
	}
	if !(res.Throughput > 0) {
		t.Fatalf("throughput %v", res.Throughput)
	}
	if !(res.LatencyP50 >= 1) || !(res.LatencyP99 >= res.LatencyP50) || !(res.LatencyMax >= res.LatencyP99) {
		t.Fatalf("latency ordering violated: p50=%v p99=%v max=%v",
			res.LatencyP50, res.LatencyP99, res.LatencyMax)
	}
	// Dissemination through the hierarchy of a 12-node net cannot finish
	// in one round, so an SLA of 1 must flag every collection.
	if res.SLAViolations != int(res.Collected) {
		t.Fatalf("SLA=1 flagged %d of %d collections", res.SLAViolations, res.Collected)
	}
	wantPace := float64(cfg.P.K) / float64(core.Theorem1Phases(cfg.P.Theta, cfg.P.Alpha)*cfg.P.T())
	if res.PaceThroughput != wantPace {
		t.Fatalf("pace throughput %v, want %v", res.PaceThroughput, wantPace)
	}
	if res.OfferedRate != 0.5 || res.Saturation != 0.5/wantPace {
		t.Fatalf("offered/saturation %v/%v", res.OfferedRate, res.Saturation)
	}

	// The whole report is bit-identical under the parallel engine.
	par := cfg
	par.Workers = 4
	resPar, err := ArrivalLoad(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, resPar) {
		t.Fatalf("workers=4 load report diverges:\nserial   %+v\nparallel %+v", res, resPar)
	}
}

func TestArrivalLoadBurstyOfferedRate(t *testing.T) {
	cfg := ArrivalConfig{
		P:        arrivalTestParams,
		Proto:    "flood",
		Arrivals: sim.Arrivals{Rate: 2, Seed: 5, OnRounds: 2, OffRounds: 6, Stop: 40},
	}
	res, err := ArrivalLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2.0 / 8.0; res.OfferedRate != want {
		t.Fatalf("duty-cycled offered rate %v, want %v", res.OfferedRate, want)
	}
	if res.Proto != "flood" {
		t.Fatalf("proto %q", res.Proto)
	}
}

func TestArrivalLoadValidation(t *testing.T) {
	base := ArrivalConfig{P: arrivalTestParams, Arrivals: sim.Arrivals{Rate: 1, Stop: 10}}
	cases := []struct {
		name string
		mut  func(*ArrivalConfig)
		want string
	}{
		{"no window", func(c *ArrivalConfig) { c.Arrivals.Stop = 0 }, "Stop"},
		{"bad rate", func(c *ArrivalConfig) { c.Arrivals.Rate = 0 }, "Rate"},
		{"bad proto", func(c *ArrivalConfig) { c.Proto = "gossip" }, "gossip"},
		{"bad params", func(c *ArrivalConfig) { c.P.N0 = 1 }, "n0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := ArrivalLoad(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestArrivalSweepAndTable(t *testing.T) {
	cfg := ArrivalConfig{
		P:        arrivalTestParams,
		Arrivals: sim.Arrivals{Seed: 11, Stop: 20},
	}
	results, err := ArrivalSweep(cfg, []float64{0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].OfferedRate != 0.25 || results[1].OfferedRate != 0.5 {
		t.Fatalf("rates %v/%v", results[0].OfferedRate, results[1].OfferedRate)
	}
	tb := ArrivalTable("load", results)
	if tb.Len() != 2 {
		t.Fatalf("table rows %d", tb.Len())
	}
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"verdict", "drained", "peak queue"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table output missing %q:\n%s", want, buf.String())
		}
	}

	// A sweep propagates per-rate failures.
	if _, err := ArrivalSweep(cfg, []float64{-1}); err == nil {
		t.Fatal("negative-rate sweep did not fail")
	}
}

// TestRunPointArrivals wires the traffic process through the grid runner:
// all four rows run in arrival mode, per-seed metrics carry the arrival
// fields, and invalid processes fail the point up front.
func TestRunPointArrivals(t *testing.T) {
	dir := t.TempDir()
	cfg := PointConfig{
		P:          arrivalTestParams,
		NRT:        1,
		NR1:        1,
		Seeds:      2,
		ChurnEdges: 1,
		MetricsDir: dir,
		Arrivals:   &sim.Arrivals{Rate: 0.3, Seed: 9, Stop: 5},
	}
	rows, err := RunPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Completed != r.Seeds {
			t.Errorf("%s: %d/%d replications drained within budget %d",
				r.Model, r.Completed, r.Seeds, r.Budget)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "alg2_seed00.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"arrivals":`)) || !bytes.Contains(raw, []byte(`"outstanding":`)) {
		t.Error("per-seed metrics lack the arrival-mode fields")
	}
	// The process must actually inject traffic, not just flip the schema on:
	// a spec that drops cfg.Arrivals would pass the field check with all
	// counts zero.
	events, err := obs.ParseEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var injected int
	for _, ev := range events {
		injected += ev.Arrivals
	}
	if injected == 0 {
		t.Error("arrival process injected no tokens through RunPoint")
	}

	bad := cfg
	bad.Arrivals = &sim.Arrivals{Rate: -1}
	if _, err := RunPoint(bad); err == nil || !strings.Contains(err.Error(), "Rate") {
		t.Fatalf("invalid arrival process not rejected: %v", err)
	}
}

// TestArrivalLoadFloodIgnoresChurnEdges is the regression for the flood
// pairing with ChurnEdges set: ArrivalPoint(100, 8) with ten churn edges
// used to hand them to the 1-interval adversary as its total edge count
// and panic ("adversary: infeasible edge count m=10 for n=100"). That
// adversary redraws every edge each round, so the run must match the one
// without churn edges.
func TestArrivalLoadFloodIgnoresChurnEdges(t *testing.T) {
	cfg := ArrivalPoint(100, 8)
	cfg.Proto = "flood"
	cfg.Arrivals = sim.Arrivals{Rate: 0.5, Seed: 4, Stop: 20}
	cfg.Seed = 2
	cfg.ChurnEdges = 10
	res, err := ArrivalLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "drained" || res.Injected == 0 {
		t.Fatalf("want a drained run with arrivals, got %+v", res)
	}
	plain := cfg
	plain.ChurnEdges = 0
	resPlain, err := ArrivalLoad(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, resPlain) {
		t.Fatalf("ChurnEdges changed the flood run:\nwith    %+v\nwithout %+v", res, resPlain)
	}
}
