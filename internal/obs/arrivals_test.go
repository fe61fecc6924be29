package obs

// Collector behaviour in arrival mode: per-round arrival/collection/
// outstanding series, the dynamic delivery ceiling, quiet-gap stall
// semantics, the latency histogram, JSONL round-tripping, and byte-identity
// of the event stream under the parallel engine.

import (
	"bytes"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
)

// runArrivalCollected floods a path network under a bursty arrival process
// with a fully wired collector.
func runArrivalCollected(t testing.TB, n, workers int, arr sim.Arrivals, reg *Registry) ([]byte, *Collector, *sim.Metrics) {
	t.Helper()
	d := sim.NewFlat(tvg.Static{G: graph.Path(n)})
	var sink bytes.Buffer
	col := NewCollector(Config{
		N: n, K: 1, Sink: &sink, Registry: reg, Keep: true, Arrivals: true,
	})
	met := sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(n, 1, 0), sim.Options{
		MaxRounds:        300,
		StopWhenComplete: true,
		StallWindow:      50,
		Observer:         col.Observer(),
		Workers:          workers,
		Arrivals:         &arr,
	})
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), col, met
}

func TestCollectorArrivalMode(t *testing.T) {
	reg := NewRegistry()
	arr := sim.Arrivals{Rate: 2, Seed: 7, OnRounds: 3, OffRounds: 12, Stop: 60}
	raw, col, met := runArrivalCollected(t, 6, 1, arr, reg)
	if !met.Complete || met.TokensInjected == 0 {
		t.Fatalf("want a completed run with arrivals, got %v", met)
	}
	events := col.Events()
	if len(events) != met.Rounds {
		t.Fatalf("%d events for %d rounds", len(events), met.Rounds)
	}

	var arrivals, collected int64
	sawDynamicTotal := false
	for _, e := range events {
		arrivals += int64(e.Arrivals)
		collected += int64(e.Collected)
		if e.Total != 6*1 && e.Total == 6*e.Outstanding {
			sawDynamicTotal = true
		}
		if e.Total != 6*e.Outstanding {
			t.Errorf("round %d: Total = %d, want N*Outstanding = %d", e.Round, e.Total, 6*e.Outstanding)
		}
		// Quiet-gap semantics: a drained queue must not accrue stall rounds.
		if e.Outstanding == 0 && e.Stall != 0 {
			t.Errorf("round %d: stall series %d with nothing outstanding", e.Round, e.Stall)
		}
	}
	if arrivals != met.TokensInjected {
		t.Errorf("event arrivals sum %d, metrics %d", arrivals, met.TokensInjected)
	}
	if collected != met.TokensCollected {
		t.Errorf("event collected sum %d, metrics %d", collected, met.TokensCollected)
	}
	if !sawDynamicTotal {
		t.Error("delivery ceiling never tracked the live token universe")
	}
	last := events[len(events)-1]
	if last.Outstanding != 0 || last.Total != 0 {
		t.Errorf("drained run ends with outstanding=%d total=%d", last.Outstanding, last.Total)
	}

	// Registry instruments.
	if got := reg.Counter("sim_token_arrivals_total", "").Value(); got != met.TokensInjected {
		t.Errorf("sim_token_arrivals_total = %d, want %d", got, met.TokensInjected)
	}
	if got := reg.Counter("sim_tokens_collected_total", "").Value(); got != met.TokensCollected {
		t.Errorf("sim_tokens_collected_total = %d, want %d", got, met.TokensCollected)
	}
	if got := reg.Gauge("sim_outstanding_tokens", "").Value(); got != 0 {
		t.Errorf("sim_outstanding_tokens = %d after drain", got)
	}
	lat := reg.Histogram("sim_token_latency_rounds", "", LatencyBuckets)
	if lat.Count() != met.TokensCollected {
		t.Errorf("latency histogram has %d samples, want %d", lat.Count(), met.TokensCollected)
	}
	p50, p99 := col.LatencyQuantile(0.50), col.LatencyQuantile(0.99)
	if !(p50 >= 1) || !(p99 >= p50) {
		t.Errorf("latency quantiles p50=%v p99=%v, want 1 <= p50 <= p99", p50, p99)
	}

	// JSONL round-trip preserves the arrival fields.
	parsed, err := ParseEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(events))
	}
	for i := range parsed {
		if parsed[i].Arrivals != events[i].Arrivals ||
			parsed[i].Collected != events[i].Collected ||
			parsed[i].Outstanding != events[i].Outstanding ||
			parsed[i].Total != events[i].Total {
			t.Fatalf("event %d arrival fields did not round-trip: %+v vs %+v", i, parsed[i], events[i])
		}
	}
}

// TestArrivalEventStreamByteIdentical extends the serial-vs-parallel
// determinism contract to arrival mode: the collector's JSONL must be
// byte-identical under any worker count.
func TestArrivalEventStreamByteIdentical(t *testing.T) {
	arr := sim.Arrivals{Rate: 1.5, Seed: 21, Stop: 80}
	ref, _, refMet := runArrivalCollected(t, 40, 1, arr, nil)
	if refMet.TokensInjected == 0 {
		t.Fatal("reference run injected nothing")
	}
	for _, workers := range []int{2, 4} {
		got, _, met := runArrivalCollected(t, 40, workers, arr, nil)
		if met.TokensInjected != refMet.TokensInjected || met.TokensCollected != refMet.TokensCollected {
			t.Errorf("workers=%d: token accounting diverges from serial", workers)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: arrival-mode event stream diverges from serial (%d vs %d bytes)",
				workers, len(got), len(ref))
		}
	}
}
