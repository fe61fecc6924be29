package experiment

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/geom"
	"repro/internal/hinet"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// MobilityPoint is one row of the mobility campaign: measured behaviour of
// Algorithm 2 and flat flooding on the same physically-driven dynamics.
type MobilityPoint struct {
	// Speed is the maximum node speed (field units per round).
	Speed float64
	// Alg2Time / Alg2Comm are mean completion round and token cost.
	Alg2Time, Alg2Comm float64
	// FloodTime / FloodComm for flooding on identical dynamics.
	FloodTime, FloodComm float64
	// MeasuredNR is the probe's per-member re-affiliation rate over the
	// run horizon — the physical counterpart of the paper's n_r knob.
	MeasuredNR float64
	// Alg2Done / FloodDone count completing replications.
	Alg2Done, FloodDone int
	// Seeds is the replication count.
	Seeds int
}

// MobilityCampaign measures the speed sweep: at each maximum speed it runs
// Algorithm 2 and flooding over random-waypoint unit-disk networks with
// incremental clustering, across seeds. The campaign grounds the paper's
// abstract n_r parameter in physical mobility: the probe's measured n_r
// rises with speed, and the clustering saving shrinks accordingly.
func MobilityCampaign(n, k int, speeds []float64, seeds int) ([]MobilityPoint, error) {
	if n < 10 || k < 1 || seeds < 1 {
		return nil, fmt.Errorf("experiment: invalid mobility campaign parameters")
	}
	horizon := 4 * n
	out := make([]MobilityPoint, 0, len(speeds))
	for _, speed := range speeds {
		pt := MobilityPoint{Speed: speed, Seeds: seeds}
		type sample struct {
			a2t, a2c, flt, flc float64
			nr                 float64
			a2done, fldone     bool
		}
		samples := parallel.Map(seeds, 0, func(i int) sample {
			seed := uint64(i)*7919 + 3
			cfg := adversary.MobilityConfig{
				N: n, Field: geom.Field{W: 100, H: 100}, Radius: 20,
				MinSpeed: speed / 4, MaxSpeed: speed, PauseRounds: 1,
				Cluster:         cluster.Config{},
				EnsureConnected: true,
			}
			assign := token.Spread(n, k, xrand.New(seed+31))

			// The adversary generates each round once; the run and the
			// probe read the same recording of it.
			net := ctvg.Recording(adversary.NewMobility(cfg, xrand.New(seed)))
			m2 := sim.MustRunProtocol(net, core.Alg2{}, assign,
				sim.Options{MaxRounds: horizon, StopWhenComplete: true})
			rep := hinet.Probe(net, m2.Rounds)

			// Flooding on the identical physical topology: the mobility
			// adversary satisfies tvg.Dynamic, so NewFlat strips its
			// hierarchy.
			fadv := adversary.NewMobility(cfg, xrand.New(seed))
			mf := sim.MustRunProtocol(sim.NewFlat(fadv), baseline.Flood{}, assign,
				sim.Options{MaxRounds: horizon, StopWhenComplete: true})

			s := sample{
				a2c: float64(m2.TokensSent), flc: float64(mf.TokensSent),
				nr:     rep.MeasuredNR,
				a2done: m2.Complete, fldone: mf.Complete,
			}
			s.a2t = float64(m2.CompletionRound)
			if !m2.Complete {
				s.a2t = float64(horizon)
			}
			s.flt = float64(mf.CompletionRound)
			if !mf.Complete {
				s.flt = float64(horizon)
			}
			return s
		})
		for _, s := range samples {
			pt.Alg2Time += s.a2t / float64(seeds)
			pt.Alg2Comm += s.a2c / float64(seeds)
			pt.FloodTime += s.flt / float64(seeds)
			pt.FloodComm += s.flc / float64(seeds)
			pt.MeasuredNR += s.nr / float64(seeds)
			if s.a2done {
				pt.Alg2Done++
			}
			if s.fldone {
				pt.FloodDone++
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// MobilityTable renders the campaign.
func MobilityTable(pts []MobilityPoint) *report.Table {
	tb := report.NewTable(
		"Mobility campaign — Algorithm 2 vs flooding under random waypoint",
		"max speed", "measured n_r", "alg2 time", "alg2 comm", "flood comm", "saving", "alg2 done",
	)
	for _, pt := range pts {
		saving := report.Pct(1 - pt.Alg2Comm/pt.FloodComm)
		tb.AddRowf(pt.Speed, pt.MeasuredNR, pt.Alg2Time, pt.Alg2Comm, pt.FloodComm,
			saving, fmt.Sprintf("%d/%d", pt.Alg2Done, pt.Seeds))
	}
	return tb
}
