package main

import (
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// table3-grid is what `hinetbench -table 3` runs: experiment.RunGrid over
// the paper's Table 3 point (n0=100, θ=30, k=8, α=5, L=2, all four rows)
// on a two-worker pool, no sinks. Every replication builds its own inputs
// inside RunGrid, so that set-up counts in node_rounds_per_s; setup_s
// covers only building the grid config.
const (
	gridSeeds   = 128 // replications per row
	gridWorkers = 2
)

// gridRow is one Table 3 row's simulated output.
type gridRow struct {
	Model         string
	Budget        int
	MeasuredTime  float64
	MeasuredComm  float64
	MeasuredBytes float64
	RelayTokens   float64
	MemberTokens  float64
	Completed     int
	Seeds         int
}

// RunGrid derives every replication's adversary and assignment seeds from
// the replication index, and PointConfig has no seed of its own, so the
// benchmark seed cannot reach this workload's inputs through the public
// API; its outputs are checked against the pinned ones at every seed.
func gridRep(r *rep) (any, error) {
	cfg := experiment.Table3Config(gridSeeds)
	cfg.Stop = r.poolBarrier
	if r.traced {
		dir, err := scratchDir("timing")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.TimingDir = dir
	}

	r.beginRun()
	grid, err := experiment.RunGrid([]experiment.PointConfig{cfg}, gridWorkers)
	r.endRun()
	if err != nil {
		return nil, err
	}
	rows := grid[0]
	n := cfg.P.N0
	var rounds int64
	out := make([]gridRow, len(rows))
	for i, row := range rows {
		if row.Completed != row.Seeds {
			return nil, fmt.Errorf("%s: %d of %d replications completed", row.Model, row.Completed, row.Seeds)
		}
		rounds += int64(row.Budget) * int64(row.Seeds)
		out[i] = gridRow{
			Model: row.Model, Budget: row.Budget,
			MeasuredTime: row.MeasuredTime, MeasuredComm: row.MeasuredComm,
			MeasuredBytes: row.MeasuredBytes,
			RelayTokens:   row.RelayTokens, MemberTokens: row.MemberTokens,
			Completed: row.Completed, Seeds: row.Seeds,
		}
	}
	if int64(r.barriers) != rounds {
		return nil, fmt.Errorf("the pool reached %d round barriers, want %d", r.barriers, rounds)
	}
	r.nodeRounds = int64(n) * rounds

	if r.traced {
		wall := make([]int64, sim.NumStages)
		cpu := make([]int64, sim.NumStages)
		var engine int64
		for _, row := range rows {
			for st := range wall {
				wall[st] += row.StageWallNs[st]
				cpu[st] += row.StageCPUNs[st]
				engine += row.StageWallNs[st]
			}
			r.layers["experiment.replications"] += float64(row.Seeds)
		}
		// Every replication runs a serial engine: one shard.
		r.stageTotals(wall, cpu, 1)
		gridCPU := r.cpuEnd - r.cpuStart
		r.layer("experiment.engine_ms", ms(engine))
		r.layer("experiment.outside_ms", ms(int64(gridCPU)-engine))
		r.layer("parallel.pool_utilization", gridCPU.Seconds()/(gridWorkers*r.runSeconds()))
	}
	return out, nil
}
