package sim

import (
	"fmt"
	"slices"

	"repro/internal/cluster/selfstab"
	"repro/internal/ctvg"
	"repro/internal/faults"
	"repro/internal/graph"
)

// SelfStabilize configures the emergent clustering mode (see
// Options.SelfStabilize): the run's hierarchy is maintained by the
// message-passing self-stabilizing protocol in internal/cluster/selfstab
// instead of being handed down by the adversary.
type SelfStabilize struct {
	// OrphanAfter is the number of consecutive rounds a member tolerates
	// silence from its head before treating itself as orphaned; 0 means
	// the protocol default of 2.
	OrphanAfter int
	// Watchdog arms the convergence watchdog: when the emergent hierarchy
	// has not been valid (every live node covered, heads bridged through
	// live relays) for Watchdog consecutive rounds, the engine emits a
	// structured ConvergenceReport through Observer.Diverged and counts it
	// in Metrics.ConvergenceReports. Unlike the stall watchdog the run
	// continues — divergence is the protocol's repair window, not a
	// failure. 0 disables the reports (validity is still tracked, so
	// rounds-to-reconverge telemetry works either way).
	Watchdog int
}

// MaintenanceStats summarises one round of the self-stabilizing clustering
// protocol; it is handed to Observer.Maintenance and, for tracers that
// implement MaintenanceTracer, to the provenance ledger.
type MaintenanceStats struct {
	// Elections / Adoptions / HeadMerges count this round's repair events
	// (nodes electing themselves head, orphaned or unaffiliated nodes
	// joining a cluster, heads abdicating to a lower-ID neighbour).
	Elections  int
	Adoptions  int
	HeadMerges int
	// BeaconsSent is the round's maintenance message budget: one beacon
	// per live node. BeaconsHeard counts the receptions that survived the
	// link faults.
	BeaconsSent  int
	BeaconsHeard int
	// Valid reports whether the emergent hierarchy was valid this round
	// (after fault injection felled its victims).
	Valid bool
	// Reconverged, when positive, reports that this round ended an invalid
	// streak of that many rounds — the protocol's rounds-to-reconverge.
	Reconverged int
}

// ConvergenceReport is the convergence watchdog's structured diagnostic:
// the emergent hierarchy has not been valid for Window consecutive rounds,
// and this is what the live population looked like when the watchdog
// fired.
type ConvergenceReport struct {
	// Round is the round index at which the watchdog fired.
	Round int
	// Window is the configured invalid-round threshold; InvalidFor is the
	// actual streak length when the report fired (== Window).
	Window     int
	InvalidFor int
	// Heads and Unaffiliated count live heads and live nodes with no
	// cluster; Orphaned counts live members or gateways whose named head
	// is dead or no longer a head.
	Heads        int
	Unaffiliated int
	Orphaned     int
}

// String formats the diagnostic on one line.
func (c *ConvergenceReport) String() string {
	return fmt.Sprintf("hierarchy invalid at round %d: not valid for %d rounds, %d heads, %d unaffiliated, %d orphaned",
		c.Round, c.InvalidFor, c.Heads, c.Unaffiliated, c.Orphaned)
}

// MaintenanceTracer is the optional tracer extension for self-stabilizing
// runs: a Tracer that also implements it receives each round's clustering
// maintenance summary, so the ledger can attribute the maintenance message
// budget alongside the dissemination traffic it rides with. Maintenance is
// called from the engine goroutine right after Tracer.RoundStart.
type MaintenanceTracer interface {
	Maintenance(r int, ms MaintenanceStats)
}

// stabState is the engine-side bundle for Options.SelfStabilize. Like the
// timing and arrival subsystems, everything hangs off one pointer so the
// disabled path stays allocation-free.
type stabState struct {
	state      *selfstab.State
	window     int
	round      selfstab.Stats // last Commit's merged counters
	ms         MaintenanceStats
	rep        *ConvergenceReport // non-nil only on the round the watchdog fires
	invalidRun int
	// lost reads a beacon's loss from the round's loss rows; nil on
	// lossless runs.
	lost func(v, i int) bool
}

// beaconShard runs the beacon exchange on one shard. A beacon from u to v
// in round r is lost exactly when a payload on the same link is, one
// outcome per link per round: the beacon piggybacks on the node's round
// transmission.
func (e *engine) beaconShard(s, lo, hi int) { e.stb.state.Shard(s, lo, hi, e.stb.lost) }

// lossShard draws the loss rows of one shard's live receivers. The row
// pass runs over the delivery shard bounds, so each receiver's burst memos
// stay on the shard that owns the receiver.
func (e *engine) lossShard(s, lo, hi int) { e.rows.draw(e.r, e.g, e.crashed, lo, hi) }

// lossRows holds one round's link-loss draws for a lossy self-stabilizing
// run: lost[off[v]+i] reports whether the round's transmission from v's
// i-th neighbour to v is lost. Every live node beacons over every live
// link, so the engine draws each live receiver's whole in-row once
// (faults.Injector.DropRow) and both the beacon exchange and delivery read
// the slots, which draws each link at most once per round. Crashed
// receivers get no row; their stale slots are never read. The offsets are
// rebuilt every round and the slices reused across rounds.
type lossRows struct {
	inj  *faults.Injector
	off  []int
	lost []bool
}

// reset aligns the rows with g's neighbour lists.
func (lr *lossRows) reset(g *graph.Graph) {
	n := g.N()
	total := 0
	for v := 0; v < n; v++ {
		lr.off[v] = total
		total += len(g.Neighbors(v))
	}
	lr.off[n] = total
	lr.lost = slices.Grow(lr.lost[:0], total)[:total]
}

// row returns receiver v's loss row.
func (lr *lossRows) row(v int) []bool { return lr.lost[lr.off[v]:lr.off[v+1]] }

// lostAt reports whether the round's transmission from v's i-th neighbour
// to v is lost.
func (lr *lossRows) lostAt(v, i int) bool { return lr.lost[lr.off[v]+i] }

// draw fills the rows of the live receivers in [lo, hi) of g for round r.
func (lr *lossRows) draw(r int, g *graph.Graph, crashed []bool, lo, hi int) {
	for v := lo; v < hi; v++ {
		if !crashed[v] {
			lr.inj.DropRow(r, v, g.Neighbors(v), lr.row(v))
		}
	}
}

func newStabState(cfg *SelfStabilize, n, nshards int) *stabState {
	return &stabState{
		state:  selfstab.New(n, selfstab.Config{OrphanAfter: cfg.OrphanAfter}, nshards),
		window: cfg.Watchdog,
	}
}

// observe runs after the round's fault injection: it snapshots the round's
// maintenance stats, evaluates hierarchy validity against the post-crash
// population, advances the convergence watchdog and folds the counters
// into the run metrics.
func (sb *stabState) observe(r int, met *Metrics, crashed []bool) {
	rd := sb.round
	ms := MaintenanceStats{
		Elections:    rd.Elections,
		Adoptions:    rd.Adoptions,
		HeadMerges:   rd.HeadMerges,
		BeaconsSent:  rd.BeaconsSent,
		BeaconsHeard: rd.BeaconsHeard,
	}
	ms.Valid = sb.state.Valid()
	sb.rep = nil
	if ms.Valid {
		if sb.invalidRun > 0 {
			ms.Reconverged = sb.invalidRun
			met.Reconvergences++
		}
		sb.invalidRun = 0
	} else {
		sb.invalidRun++
		if sb.window > 0 && sb.invalidRun == sb.window {
			sb.rep = sb.report(r, crashed)
			met.ConvergenceReports++
		}
	}
	met.Elections += ms.Elections
	met.Adoptions += ms.Adoptions
	met.HeadMerges += ms.HeadMerges
	met.MaintenanceBeacons += int64(ms.BeaconsSent)
	sb.ms = ms
}

func (sb *stabState) report(r int, crashed []bool) *ConvergenceReport {
	h := sb.state.Hierarchy()
	rep := &ConvergenceReport{Round: r, Window: sb.window, InvalidFor: sb.invalidRun}
	for v := 0; v < h.N(); v++ {
		if crashed[v] {
			continue
		}
		switch h.Role[v] {
		case ctvg.Head:
			rep.Heads++
		case ctvg.Unaffiliated:
			rep.Unaffiliated++
		default:
			if c := h.Cluster[v]; c == ctvg.NoCluster || crashed[c] || h.Role[c] != ctvg.Head {
				rep.Orphaned++
			}
		}
	}
	return rep
}
