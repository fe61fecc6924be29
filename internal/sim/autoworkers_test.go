package sim_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// shardSpy is a provenance tracer that also records the shard count the
// engine reports to RunStart.
type shardSpy struct {
	*provenance.Tracer
	shards int
}

func (s *shardSpy) RunStart(n, k, shards int, nodes []sim.Node) {
	s.shards = shards
	s.Tracer.RunStart(n, k, shards, nodes)
}

// countingTrace counts the engine's graph fetches on a recorded trace; it
// keeps the trace's StableUntil, so the stability cache engages.
type countingTrace struct {
	*ctvg.DeltaTrace
	fetches int
}

func (c *countingTrace) At(r int) *graph.Graph {
	c.fetches++
	return c.DeltaTrace.At(r)
}

// TestAutoWorkersMatchesSerial runs a network two shards wide with
// Workers unset: the engine must cut it into more than one shard, and the
// sharded run must match a Workers: 1 run in Metrics, observer JSONL,
// provenance JSONL and the graphs it fetches (one per stability window).
func TestAutoWorkersMatchesSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("GOMAXPROCS < 2: an unset Workers runs serial, so there is no sharded run to compare")
	}
	if testing.Short() {
		t.Skip("runs an 8192-node network twice")
	}
	const k, alpha, l, theta = 8, 2, 2, 40
	n := 2 * sim.MinShardNodes
	T := core.Theorem1T(k, alpha, l)
	rec := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: theta, L: l, T: T,
		Reaffiliations: n / 50, HeadChurn: 2,
	}, xrand.New(1)), 200)
	assign := token.Spread(n, k, xrand.New(2))

	type outputs struct {
		metrics, events, prov []byte
		fetches               int
	}
	run := func(workers int) (int, outputs) {
		d := &countingTrace{DeltaTrace: rec}
		var events, prov bytes.Buffer
		col := obs.NewCollector(obs.Config{N: n, K: k, PhaseLen: 1, Sink: &events, SizeFn: wire.Size})
		spy := &shardSpy{Tracer: provenance.New(provenance.Config{Sink: &prov})}
		met, err := sim.RunProtocol(d, core.Alg2{}, assign, sim.Options{
			MaxRounds: 200, StopWhenComplete: true, SizeFn: wire.Size,
			Observer: col.Observer(), Tracer: spy, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !met.Complete {
			t.Fatalf("Workers=%d: run incomplete: %v", workers, met)
		}
		if err := col.Flush(); err != nil {
			t.Fatalf("collector: %v", err)
		}
		if err := spy.Flush(); err != nil {
			t.Fatalf("tracer: %v", err)
		}
		mj, err := json.Marshal(met)
		if err != nil {
			t.Fatal(err)
		}
		return spy.shards, outputs{mj, events.Bytes(), prov.Bytes(), d.fetches}
	}

	serialShards, serial := run(1)
	autoShards, auto := run(0)
	if serialShards != 1 {
		t.Fatalf("Workers: 1 ran on %d shards, want 1", serialShards)
	}
	if autoShards < 2 {
		t.Fatalf("Workers: 0 over %d nodes with GOMAXPROCS %d ran on %d shard(s), want more than 1",
			n, runtime.GOMAXPROCS(0), autoShards)
	}
	if !bytes.Equal(auto.metrics, serial.metrics) {
		t.Errorf("Metrics differ on %d shards:\n  auto   %s\n  serial %s", autoShards, auto.metrics, serial.metrics)
	}
	if !bytes.Equal(auto.events, serial.events) {
		t.Errorf("observer JSONL differs on %d shards (%d vs %d bytes)", autoShards, len(auto.events), len(serial.events))
	}
	if !bytes.Equal(auto.prov, serial.prov) {
		t.Errorf("provenance JSONL differs on %d shards (%d vs %d bytes)", autoShards, len(auto.prov), len(serial.prov))
	}
	if auto.fetches != serial.fetches {
		t.Errorf("the run on %d shards fetched %d graphs, the serial one %d", autoShards, auto.fetches, serial.fetches)
	}
}
