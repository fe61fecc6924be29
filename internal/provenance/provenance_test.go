package provenance

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// Theorem-parameterised test network: k=5, α=2, L=2 → T = k+αL = 9,
// M = ⌈θ/α⌉+1 = 4 phases.
const (
	tN     = 30
	tK     = 5
	tAlpha = 2
	tL     = 2
	tTheta = 6
	tT     = 9 // core.Theorem1T(tK, tAlpha, tL)
)

// recordedNet freezes a HiNet adversary so repeated runs (serial vs
// parallel, traced vs untraced) see identical snapshots.
func recordedNet(seed uint64, rounds int) (*ctvg.DeltaTrace, *token.Assignment) {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: tN, Theta: tTheta, L: tL, T: tT,
		Reaffiliations: 2, HeadChurn: 1, Heads: 4, ChurnEdges: 4,
	}, xrand.New(seed))
	tr := ctvg.Record(adv, rounds)
	assign := token.Spread(tN, tK, xrand.New(seed+100))
	return tr, assign
}

func testBudget() *Budget {
	return &Budget{PhaseLen: tT, Phases: core.Theorem1Phases(tTheta, tAlpha), Alpha: tAlpha, Theta: tTheta}
}

// tracedRun executes one Alg1 run with a tracer attached and returns the
// emitted stream, the tracer and the metrics.
func tracedRun(t testing.TB, seed uint64, workers int, proto sim.Protocol, faults *sim.Faults, keep bool) ([]byte, *Tracer, *sim.Metrics) {
	t.Helper()
	tr, assign := recordedNet(seed, 72)
	var sink bytes.Buffer
	tracer := New(Config{Sink: &sink, Keep: keep, Budget: testBudget()})
	met, err := sim.RunProtocol(tr, proto, assign, sim.Options{
		MaxRounds: 72, StopWhenComplete: true,
		Tracer: tracer, Faults: faults, Workers: workers,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return sink.Bytes(), tracer, met
}

// TestTracerSerialParallelByteIdentical is the determinism acceptance
// gate: serial and 4-worker runs must emit byte-identical provenance
// streams, fault-free and under crash-recovery + duplication faults, for
// the plain and failover protocols.
func TestTracerSerialParallelByteIdentical(t *testing.T) {
	faulty := &sim.Faults{
		Seed:    42,
		DupProb: 0.05,
		CrashAt: map[int]int{3: 8, 11: 20, 17: 5},
		RecoverAfter: map[int]int{
			3:  10,
			17: 25,
		},
	}
	cases := []struct {
		name   string
		proto  sim.Protocol
		faults *sim.Faults
	}{
		{"alg1 fault-free", core.Alg1{T: tT}, nil},
		{"alg1-failover faulty", core.Alg1{T: tT, Failover: &core.Failover{Window: 3}}, faulty},
		{"alg2 faulty", core.Alg2{}, faulty},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, st, smet := tracedRun(t, 1, 1, tc.proto, tc.faults, false)
			par, pt, pmet := tracedRun(t, 1, 4, tc.proto, tc.faults, false)
			if !bytes.Equal(serial, par) {
				t.Fatalf("serial and 4-worker provenance streams differ (%d vs %d bytes)", len(serial), len(par))
			}
			if smet.FirstDeliveries != pmet.FirstDeliveries || smet.RedundantDeliveries != pmet.RedundantDeliveries {
				t.Fatalf("metrics differ: serial first=%d red=%d, parallel first=%d red=%d",
					smet.FirstDeliveries, smet.RedundantDeliveries, pmet.FirstDeliveries, pmet.RedundantDeliveries)
			}
			if st.PaceViolations() != pt.PaceViolations() {
				t.Fatalf("pace violations differ: %d vs %d", st.PaceViolations(), pt.PaceViolations())
			}
			if len(serial) == 0 {
				t.Fatal("empty provenance stream")
			}
		})
	}
}

// TestTracerDAGInvariants replays the edge stream and checks the causal
// invariants: exactly one edge per acquired (node, token) pair, no edge
// for initially held pairs, and every teacher acquired the token in a
// strictly earlier round (or held it initially).
func TestTracerDAGInvariants(t *testing.T) {
	_, tracer, met := tracedRun(t, 2, 1, core.Alg1{T: tT}, nil, true)
	log := tracer.Log()
	if log == nil {
		t.Fatal("Keep log missing")
	}
	if int64(len(log.Edges)) != met.FirstDeliveries {
		t.Fatalf("%d edges, metrics counted %d first deliveries", len(log.Edges), met.FirstDeliveries)
	}

	// acquired[pair] = round the pair was first delivered; initial holders
	// are seeded at round -1.
	acquired := map[int64]int{}
	for tok, hs := range log.Meta.Holders {
		for _, v := range hs {
			acquired[pairKey(v, tok)] = -1
		}
	}
	initial := len(acquired)
	lastRound := -1
	for i, e := range log.Edges {
		if e.Round < lastRound {
			t.Fatalf("edge %d out of round order: %d after %d", i, e.Round, lastRound)
		}
		lastRound = e.Round
		if _, dup := acquired[pairKey(e.Learner, e.Token)]; dup {
			t.Fatalf("edge %d: (node %d, token %d) delivered twice", i, e.Learner, e.Token)
		}
		if e.Teacher != NoTeacher {
			tr, ok := acquired[pairKey(e.Teacher, e.Token)]
			if !ok {
				t.Fatalf("edge %d: teacher %d never held token %d", i, e.Teacher, e.Token)
			}
			if tr >= e.Round {
				t.Fatalf("edge %d: teacher %d acquired token %d at round %d, taught at round %d", i, e.Teacher, e.Token, tr, e.Round)
			}
		}
		acquired[pairKey(e.Learner, e.Token)] = e.Round
	}
	if !met.Complete {
		t.Fatalf("run incomplete: %v", met)
	}
	if got, want := len(log.Edges), tN*tK-initial; got != want {
		t.Fatalf("complete run recorded %d edges, want n·k−initial = %d", got, want)
	}
}

// TestCrashRecoveryNoDoubleCount: a recovered node rejoins with its token
// set intact, so re-hearing pre-crash tokens must never mint new edges.
func TestCrashRecoveryNoDoubleCount(t *testing.T) {
	faults := &sim.Faults{
		Seed:         7,
		CrashAt:      map[int]int{2: 2, 9: 4, 21: 6},
		RecoverAfter: map[int]int{2: 5, 9: 6, 21: 8},
	}
	_, tracer, met := tracedRun(t, 3, 2, core.Alg1{T: tT, Failover: &core.Failover{Window: 3}}, faults, true)
	log := tracer.Log()
	seen := map[int64]bool{}
	for i, e := range log.Edges {
		k := pairKey(e.Learner, e.Token)
		if seen[k] {
			t.Fatalf("edge %d: (node %d, token %d) counted twice across crash-recovery", i, e.Learner, e.Token)
		}
		seen[k] = true
	}
	if met.FirstDeliveries > int64(tN*tK) {
		t.Fatalf("first deliveries %d exceed n·k = %d", met.FirstDeliveries, tN*tK)
	}
	if met.Recoveries == 0 {
		t.Fatal("fault plan injected no recoveries; test is vacuous")
	}
}

// TestRedundancyAccounting: duplicated deliveries teach nothing, so a
// duplicating run must record strictly more redundant messages than the
// same run without faults, and the summary must reconcile with the
// per-round records.
func TestRedundancyAccounting(t *testing.T) {
	_, clean, _ := tracedRun(t, 4, 1, core.Alg1{T: tT}, nil, true)
	_, dupped, met := tracedRun(t, 4, 1, core.Alg1{T: tT}, &sim.Faults{Seed: 5, DupProb: 0.3}, true)
	cs, ds := clean.Log().Summary, dupped.Log().Summary
	if ds.Redundant <= cs.Redundant {
		t.Fatalf("duplication did not increase redundancy: %d (dup) vs %d (clean)", ds.Redundant, cs.Redundant)
	}
	if met.RedundantDeliveries != ds.Redundant {
		t.Fatalf("metrics redundant %d != summary %d", met.RedundantDeliveries, ds.Redundant)
	}
	var first, red int64
	for _, r := range dupped.Log().Rounds {
		first += int64(r.First)
		red += int64(r.Redundant)
	}
	if first != ds.First || red != ds.Redundant {
		t.Fatalf("round records sum to first=%d red=%d, summary says first=%d red=%d", first, red, ds.First, ds.Redundant)
	}
	var byKind int64
	for _, c := range ds.RedundantByKind {
		byKind += c
	}
	if byKind != ds.Redundant {
		t.Fatalf("per-kind redundancy sums to %d, total is %d", byKind, ds.Redundant)
	}
	var bySender int64
	for _, sr := range ds.BySender {
		bySender += sr.Count
		if sr.Count <= 0 {
			t.Fatalf("BySender contains non-positive count: %+v", sr)
		}
	}
	if bySender != ds.Redundant {
		t.Fatalf("per-sender redundancy sums to %d, total is %d", bySender, ds.Redundant)
	}
	for i := 1; i < len(ds.BySender); i++ {
		a, b := ds.BySender[i-1], ds.BySender[i]
		if a.Count < b.Count || (a.Count == b.Count && a.Node > b.Node) {
			t.Fatalf("BySender not sorted: %+v before %+v", a, b)
		}
	}
}

// heartbeat pollution guard: a fault-free failover run's heartbeats are
// zero-cost and must not show up in the redundancy account as messages.
func TestHeartbeatsNotRedundant(t *testing.T) {
	_, plain, _ := tracedRun(t, 6, 1, core.Alg1{T: tT}, nil, true)
	_, fo, _ := tracedRun(t, 6, 1, core.Alg1{T: tT, Failover: &core.Failover{Window: 3}}, nil, true)
	ps, fs := plain.Log().Summary, fo.Log().Summary
	// Failover changes payload timing slightly (phase-boundary upload
	// retransmissions), so totals need not be equal — but the heartbeat
	// flood (every head, every round) must not appear as redundancy, which
	// would dwarf the plain run's count.
	if fs.Redundant > 3*ps.Redundant+tN {
		t.Fatalf("failover redundancy %d suggests zero-cost heartbeats are being counted (plain: %d)", fs.Redundant, ps.Redundant)
	}
}

// isolatedHeadNet builds a 4-node static network: head 0 with members 1
// and 2, and head 3 isolated with no edges and no members. Token t is
// initially held by node t, so head 3 can never learn anything and must
// fall behind any positive pace floor.
func isolatedHeadNet(rounds int) (*ctvg.DeltaTrace, *token.Assignment) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	h := ctvg.NewHierarchy(4)
	h.SetHead(0)
	h.SetMember(1, 0)
	h.SetMember(2, 0)
	h.SetHead(3)
	snaps := make([]*graph.Graph, rounds)
	hiers := make([]*ctvg.Hierarchy, rounds)
	for i := range snaps {
		snaps[i], hiers[i] = g, h
	}
	assign := &token.Assignment{K: 4, Initial: []*bitset.Set{
		bitset.FromSlice([]int{0}),
		bitset.FromSlice([]int{1}),
		bitset.FromSlice([]int{2}),
		bitset.FromSlice([]int{3}),
	}}
	return ctvg.NewTrace(snaps, hiers), assign
}

// TestPaceCheckerFires: on a constructed under-budget network the checker
// must warn at the first phase boundary whose floor the isolated head
// misses, bump the registry counter and invoke OnPace.
func TestPaceCheckerFires(t *testing.T) {
	tr, assign := isolatedHeadNet(6)
	reg := obs.NewRegistry()
	var fired []PaceViolation
	tracer := New(Config{
		Keep:     true,
		Budget:   &Budget{PhaseLen: 2, Phases: 3, Alpha: 2, Theta: 2},
		Registry: reg,
		OnPace:   func(v PaceViolation) { fired = append(fired, v) },
	})
	if _, err := sim.RunProtocol(tr, core.Alg1{T: 2}, assign, sim.Options{
		MaxRounds: 6, Tracer: tracer,
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tracer.PaceViolations() == 0 {
		t.Fatal("pace checker stayed silent on an under-budget run")
	}
	if len(fired) != tracer.PaceViolations() {
		t.Fatalf("OnPace fired %d times, tracer counted %d", len(fired), tracer.PaceViolations())
	}
	first := fired[0]
	// Phase 1 is grace; the isolated head (1 token) first misses the
	// α·(p−1) floor at the end of phase 2, round 3.
	if first.Phase != 2 || first.Round != 3 || first.HeadMin != 1 || first.Required != 2 {
		t.Fatalf("first violation %+v, want phase 2 at round 3 with head_min 1 < required 2", first)
	}
	if got := reg.Counter("sim_pace_violations_total", "").Value(); got != int64(tracer.PaceViolations()) {
		t.Fatalf("registry counter %d, tracer counted %d", got, tracer.PaceViolations())
	}
	if got := tracer.Log().Pace; len(got) != len(fired) || !reflect.DeepEqual(got[0], first) {
		t.Fatalf("log pace records %+v do not match OnPace %+v", got, fired)
	}
}

// TestPaceCheckerSilentOnConformanceRuns: fault-free Algorithm 1 runs on
// theorem-parameterised networks must never trip the checker — across
// seeds and worker counts.
func TestPaceCheckerSilentOnConformanceRuns(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, workers := range []int{1, 4} {
			_, tracer, met := tracedRun(t, seed, workers, core.Alg1{T: tT}, nil, false)
			if n := tracer.PaceViolations(); n != 0 {
				t.Fatalf("seed %d workers %d: pace checker fired %d times on a fault-free run (metrics: %v)", seed, workers, n, met)
			}
		}
	}
}

// TestParseLogRoundTrip: the JSONL stream parses back into exactly the
// structures the tracer retained.
func TestParseLogRoundTrip(t *testing.T) {
	stream, tracer, _ := tracedRun(t, 5, 1, core.Alg1{T: tT}, &sim.Faults{Seed: 9, DupProb: 0.1}, true)
	kept := tracer.Log()
	parsed, err := ParseLog(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(parsed.Meta, kept.Meta) {
		t.Fatalf("meta mismatch:\nparsed %+v\nkept   %+v", parsed.Meta, kept.Meta)
	}
	if !reflect.DeepEqual(parsed.Edges, kept.Edges) {
		t.Fatalf("edges mismatch (%d vs %d)", len(parsed.Edges), len(kept.Edges))
	}
	if !reflect.DeepEqual(parsed.Rounds, kept.Rounds) {
		t.Fatalf("rounds mismatch (%d vs %d)", len(parsed.Rounds), len(kept.Rounds))
	}
	if !reflect.DeepEqual(parsed.Pace, kept.Pace) {
		t.Fatalf("pace mismatch: %+v vs %+v", parsed.Pace, kept.Pace)
	}
	if !reflect.DeepEqual(parsed.Summary, kept.Summary) {
		t.Fatalf("summary mismatch:\nparsed %+v\nkept   %+v", parsed.Summary, kept.Summary)
	}
}

// TestLineageAndCriticalPath checks the ancestry walk on a real run: every
// chain is chronological, rooted at an initial holder, and the per-token
// critical path dominates every sampled per-node path.
func TestLineageAndCriticalPath(t *testing.T) {
	_, tracer, met := tracedRun(t, 7, 1, core.Alg1{T: tT}, nil, true)
	if !met.Complete {
		t.Fatalf("run incomplete: %v", met)
	}
	log := tracer.Log()
	for node := 0; node < tN; node++ {
		for tok := 0; tok < tK; tok++ {
			chain, ok := log.Lineage(node, tok)
			if !ok {
				t.Fatalf("complete run has no lineage for (node %d, token %d)", node, tok)
			}
			if len(chain) == 0 {
				if !log.initiallyHolds(node, tok) {
					t.Fatalf("(node %d, token %d): empty chain but not an initial holder", node, tok)
				}
				continue
			}
			if chain[len(chain)-1].Learner != node {
				t.Fatalf("(node %d, token %d): chain ends at node %d", node, tok, chain[len(chain)-1].Learner)
			}
			root := chain[0]
			if root.Teacher != NoTeacher && !log.initiallyHolds(root.Teacher, tok) {
				t.Fatalf("(node %d, token %d): chain root teacher %d is not an initial holder", node, tok, root.Teacher)
			}
			for i := 1; i < len(chain); i++ {
				if chain[i].Round <= chain[i-1].Round {
					t.Fatalf("(node %d, token %d): chain not strictly chronological at hop %d", node, tok, i)
				}
				if chain[i].Teacher != chain[i-1].Learner {
					t.Fatalf("(node %d, token %d): chain disconnected at hop %d", node, tok, i)
				}
			}
		}
	}
	for tok := 0; tok < tK; tok++ {
		crit, ok := log.TokenCritical(tok)
		if !ok {
			t.Fatalf("no critical path for token %d", tok)
		}
		if crit.Depth != len(crit.Edges) || crit.Rounds != crit.Edges[len(crit.Edges)-1].Round+1 {
			t.Fatalf("token %d: inconsistent path account %+v", tok, crit)
		}
		if crit.Queued != crit.Rounds-crit.Depth {
			t.Fatalf("token %d: queued %d != rounds %d − depth %d", tok, crit.Queued, crit.Rounds, crit.Depth)
		}
		hops := 0
		for _, c := range crit.RoleHops {
			hops += c
		}
		if hops != crit.Depth {
			t.Fatalf("token %d: role hops sum to %d, depth is %d", tok, hops, crit.Depth)
		}
		for node := 0; node < tN; node += 7 {
			if p, ok := log.CriticalPath(node, tok); ok && p.Rounds > crit.Rounds {
				t.Fatalf("token %d: node %d path (%d rounds) exceeds critical path (%d rounds)", tok, node, p.Rounds, crit.Rounds)
			}
		}
	}
}

// TestDepths: the forward-pass depth of each edge equals its lineage
// length.
func TestDepths(t *testing.T) {
	_, tracer, _ := tracedRun(t, 8, 1, core.Alg1{T: tT}, nil, true)
	log := tracer.Log()
	depths := log.Depths()
	if len(depths) != len(log.Edges) {
		t.Fatalf("%d depths for %d edges", len(depths), len(log.Edges))
	}
	for i, e := range log.Edges {
		chain, ok := log.Lineage(e.Learner, e.Token)
		if !ok {
			t.Fatalf("edge %d has no lineage", i)
		}
		if depths[i] != len(chain) {
			t.Fatalf("edge %d: depth %d, lineage length %d", i, depths[i], len(chain))
		}
	}
}

// TestLedger: phase rows tile the run, reconcile with the edge totals and
// judge a fault-free run on pace.
func TestLedger(t *testing.T) {
	_, tracer, _ := tracedRun(t, 9, 1, core.Alg1{T: tT}, nil, true)
	log := tracer.Log()
	rows := log.Ledger(nil) // budget reconstructed from the meta line
	if len(rows) == 0 {
		t.Fatal("empty ledger")
	}
	var first int64
	for i, row := range rows {
		if row.Phase != i+1 {
			t.Fatalf("row %d has phase %d", i, row.Phase)
		}
		first += int64(row.First)
		if !row.OnPace {
			t.Fatalf("fault-free run judged behind pace at phase %d: %+v", row.Phase, row)
		}
	}
	if first != log.Summary.First {
		t.Fatalf("ledger first-delivery total %d != summary %d", first, log.Summary.First)
	}
}

// TestDisabledTracerUntouched: a nil Options.Tracer leaves Metrics'
// delivery counters at zero (the zero-overhead contract is benchmarked in
// the repository root's BenchmarkHiNet1k alloc guard).
func TestDisabledTracerUntouched(t *testing.T) {
	tr, assign := recordedNet(1, 72)
	met, err := sim.RunProtocol(tr, core.Alg1{T: tT}, assign, sim.Options{
		MaxRounds: 72, StopWhenComplete: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if met.FirstDeliveries != 0 || met.RedundantDeliveries != 0 {
		t.Fatalf("untraced run accumulated delivery metrics: %+v", met)
	}
}

// writeLog is a sink that keeps the stream and the length of every Write.
type writeLog struct {
	bytes.Buffer
	lens []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.lens = append(w.lens, len(p))
	return w.Buffer.Write(p)
}

// TestTracerStreamOfBusyRounds traces Alg2 on a 2,000-node HiNet, whose
// busiest rounds teach over a thousand (node, token) pairs each: no write
// to the sink may exceed 64 KiB and one record, and the stream keeps the
// digest it had when each round was written whole.
func TestTracerStreamOfBusyRounds(t *testing.T) {
	const n, k, rounds = 2000, 8, 40
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: 20, L: 2, T: 10, Reaffiliations: 20, ChurnEdges: 40,
	}, xrand.New(11))
	sink := &writeLog{}
	tracer := New(Config{Sink: sink, Keep: true})
	sim.MustRunProtocol(ctvg.Record(adv, rounds), core.Alg2{}, token.Spread(n, k, xrand.New(12)),
		sim.Options{MaxRounds: rounds, StopWhenComplete: true, Tracer: tracer})
	if err := tracer.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	busiest := 0
	for _, r := range tracer.Log().Rounds {
		busiest = max(busiest, r.First)
	}
	if busiest <= 1000 {
		t.Fatalf("busiest round teaches %d pairs, want over 1,000", busiest)
	}
	longest := 0
	for _, line := range bytes.Split(sink.Bytes(), []byte("\n")) {
		longest = max(longest, len(line)+1)
	}
	for i, l := range sink.lens {
		if l > spillBytes+longest {
			t.Errorf("write %d holds %d bytes, over 64 KiB and one record (%d bytes)", i, l, longest)
		}
	}
	const want = "1601c55f5060e15f9ec2c569f8023e77ebb14661e919fe7363c4989c750ea32c"
	if got := fmt.Sprintf("%x", sha256.Sum256(sink.Bytes())); got != want {
		t.Errorf("stream digest %s, want %s (%d bytes)", got, want, sink.Len())
	}
}
