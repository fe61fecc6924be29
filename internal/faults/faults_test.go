package faults

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/xrand"
)

func TestNilAndInactivePlans(t *testing.T) {
	var p *Plan
	if p.Active() || p.Lossy() {
		t.Fatal("nil plan reports active")
	}
	if err := p.Validate(10); err != nil {
		t.Fatalf("nil plan invalid: %v", err)
	}
	in, err := New(p, 10)
	if err != nil || in != nil {
		t.Fatalf("New(nil) = %v, %v; want nil, nil", in, err)
	}
	if in.Drop(3, 1, 2) || in.Duplicate(3, 1, 2) || in.Lossy() || in.Duplicating() {
		t.Fatal("nil injector injects")
	}
	lost := []bool{true, true}
	if in.DropRow(3, 0, []int{1, 2}, lost); lost[0] || lost[1] {
		t.Fatal("nil injector drops a row")
	}
	if cs := in.Crashes(); cs != nil {
		t.Fatalf("nil injector has crashes: %v", cs)
	}
	if kill, _ := in.HeadCrash(5); kill {
		t.Fatal("nil injector kills heads")
	}

	zero := &Plan{Seed: 7}
	if zero.Active() {
		t.Fatal("zero plan reports active")
	}
	in, err = New(zero, 10)
	if err != nil || in != nil {
		t.Fatalf("New(zero) = %v, %v; want nil, nil", in, err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error
	}{
		{"drop prob", Plan{DropProb: 1.5}, "DropProb"},
		{"negative drop", Plan{DropProb: -0.1}, "DropProb"},
		{"dup prob", Plan{DupProb: 2}, "DupProb"},
		{"crash node high", Plan{CrashAt: map[int]int{10: 3}}, "node 10"},
		{"crash node negative", Plan{CrashAt: map[int]int{-1: 3}}, "node -1"},
		{"crash round negative", Plan{CrashAt: map[int]int{2: -4}}, "CrashAt[2]"},
		{"recover orphan", Plan{RecoverAfter: map[int]int{5: 2}}, "no CrashAt"},
		{"recover zero", Plan{CrashAt: map[int]int{5: 1}, RecoverAfter: map[int]int{5: 0}}, "RecoverAfter[5]"},
		{"head round negative", Plan{HeadCrashRounds: []int{4, -1}}, "negative round"},
		{"head round dup", Plan{HeadCrashRounds: []int{4, 4}}, "twice"},
		{"head downtime", Plan{HeadCrashRounds: []int{4}, HeadCrashDowntime: -2}, "HeadCrashDowntime"},
		{"burst prob", Plan{Burst: &GilbertElliott{PGoodBad: 1.2}}, "Burst.PGoodBad"},
		{"burst black hole", Plan{Burst: &GilbertElliott{PGoodBad: 0.1, PBadGood: 0, DropBad: 1}}, "black hole"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(10)
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.plan)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := New(&tc.plan, 10); err == nil {
				t.Fatal("New accepted invalid plan")
			}
		})
	}
}

// TestBurstLimits checks the bounds of the burst memos' int32 fields: a
// network past 2^31 nodes is rejected, and a query past MaxBurstRound
// panics instead of stepping a wrapped memo round forever.
func TestBurstLimits(t *testing.T) {
	plan := &Plan{Seed: 5, Burst: &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.5, DropBad: 1}}
	if err := plan.Validate(1<<31 + 1); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("Validate(2^31+1) = %v, want a network-size error", err)
	}
	if err := plan.Validate(1 << 31); err != nil {
		t.Fatalf("Validate(2^31) = %v", err)
	}
	in, err := New(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	const r = MaxBurstRound + 1
	for _, q := range []struct {
		name  string
		query func()
	}{
		{"Drop", func() { in.Drop(r, 1, 0) }},
		{"DropRow", func() { in.DropRow(r, 0, []int{1, 2}, make([]bool, 2)) }},
	} {
		func() {
			defer func() {
				if msg := recover(); msg == nil || !strings.Contains(fmt.Sprint(msg), "MaxBurstRound") {
					t.Fatalf("%s at round %d: recovered %v, want a MaxBurstRound panic", q.name, r, msg)
				}
			}()
			q.query()
		}()
	}
}

func TestCrashesSortedAndCompiled(t *testing.T) {
	p := &Plan{
		CrashAt:      map[int]int{7: 3, 2: 10, 5: 0},
		RecoverAfter: map[int]int{5: 4},
	}
	in, err := New(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := in.Crashes()
	want := []Crash{
		{Node: 2, At: 10, RecoverAt: NoRecovery},
		{Node: 5, At: 0, RecoverAt: 4},
		{Node: 7, At: 3, RecoverAt: NoRecovery},
	}
	if len(got) != len(want) {
		t.Fatalf("Crashes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Crashes()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHeadCrashSchedule(t *testing.T) {
	in, err := New(&Plan{HeadCrashRounds: []int{5, 12}, HeadCrashDowntime: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kill, rec := in.HeadCrash(5); !kill || rec != 8 {
		t.Fatalf("HeadCrash(5) = %v, %d; want true, 8", kill, rec)
	}
	if kill, _ := in.HeadCrash(6); kill {
		t.Fatal("HeadCrash(6) fired off-schedule")
	}
	stop, err := New(&Plan{HeadCrashRounds: []int{5}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kill, rec := stop.HeadCrash(5); !kill || rec != NoRecovery {
		t.Fatalf("crash-stop HeadCrash(5) = %v, %d; want true, NoRecovery", kill, rec)
	}
}

// refLoss is the loss model written out from its definition, with no memo:
// each link's Gilbert–Elliott chain is stepped from round 0, once, and
// kept as a per-round state trajectory.
type refLoss struct {
	p      *Plan
	n      int
	rounds int
	bad    map[[2]int][]bool // link (src, dst) -> channel state per round
}

func newRefLoss(p *Plan, n, rounds int) *refLoss {
	return &refLoss{p: p, n: n, rounds: rounds, bad: make(map[[2]int][]bool)}
}

func (ref *refLoss) drop(r, src, dst int) bool {
	p := ref.p
	if p.DropProb > 0 && xrand.HashFloat64(p.Seed^streamDrop, uint64(r), uint64(src), uint64(dst)) < p.DropProb {
		return true
	}
	g := p.Burst
	if g == nil {
		return false
	}
	seed := p.Seed ^ streamBurst
	link := uint64(src)*uint64(ref.n) + uint64(dst)
	states, ok := ref.bad[[2]int{src, dst}]
	if !ok {
		states = make([]bool, ref.rounds)
		bad := xrand.HashFloat64(seed, 0, link, burstInit) < g.PGoodBad/(g.PGoodBad+g.PBadGood)
		states[0] = bad
		for t := 1; t < ref.rounds; t++ {
			q := g.PGoodBad
			if bad {
				q = g.PBadGood
			}
			if xrand.HashFloat64(seed, uint64(t), link, burstStep) < q {
				bad = !bad
			}
			states[t] = bad
		}
		ref.bad[[2]int{src, dst}] = states
	}
	lossP := g.DropGood
	if states[r] {
		lossP = g.DropBad
	}
	return lossP > 0 && xrand.HashFloat64(seed, uint64(r), link, burstLoss) < lossP
}

// Receivers of the row scenario: a hub with more than 1000 in-links, one
// with none, and a few with sparse rows.
const (
	rowN      = 1300
	rowRounds = 24
	rowHub    = 0
	rowEmpty  = 1
)

var rowDsts = []int{rowHub, rowEmpty, 5, 17, 600, rowN - 1}

// rowSenders is receiver dst's ascending in-link list at round r. The hub
// hears over 1000 senders with gaps that move every round (a link absent
// for some rounds), and senders 1200 and up only from round 10 on (links
// first seen mid-run). Sparse receivers hear about 2% of the nodes, a
// different draw every round.
func rowSenders(r, dst int) []int {
	var srcs []int
	for src := 0; src < rowN; src++ {
		switch {
		case src == dst || dst == rowEmpty:
		case dst == rowHub:
			if (src < 1200 || r >= 10) && (src+r)%11 != 0 {
				srcs = append(srcs, src)
			}
		case xrand.Hash(99, uint64(r), uint64(src), uint64(dst))%50 == 0:
			srcs = append(srcs, src)
		}
	}
	return srcs
}

// TestDropDeterministicAcrossInjectors is the core parallel-safety
// property: every (round, src, dst) decision is a pure function of the
// plan, independent of query order, of other queries, of the entry point
// (Drop or DropRow) and of which injector instance answers. Every injector
// is checked against refLoss, which shares no code with the memo rows.
func TestDropDeterministicAcrossInjectors(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *Plan
	}{
		{"iid+burst", &Plan{
			Seed:     42,
			DropProb: 0.2,
			DupProb:  0.1,
			Burst:    &GilbertElliott{PGoodBad: 0.1, PBadGood: 0.4, DropBad: 0.9},
		}},
		{"burst", &Plan{Seed: 7, Burst: &GilbertElliott{PGoodBad: 0.2, PBadGood: 0.3, DropGood: 0.05, DropBad: 0.7}}},
		{"iid", &Plan{Seed: 9, DropProb: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("dense", func(t *testing.T) { checkDense(t, tc.plan) })
			t.Run("rows", func(t *testing.T) { checkRows(t, tc.plan) })
		})
	}
}

// checkDense queries every link of a 16-node network every round, then a
// scattered subset on a fresh injector, then every link again with one
// goroutine per receiver.
func checkDense(t *testing.T, plan *Plan) {
	const n, rounds = 16, 40
	ref := newRefLoss(plan, n, rounds)
	dense, err := New(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	drops := make(map[[3]int]bool)
	dups := make(map[[3]int]bool)
	for r := 0; r < rounds; r++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				key := [3]int{r, src, dst}
				drops[key] = ref.drop(r, src, dst)
				if got := dense.Drop(r, src, dst); got != drops[key] {
					t.Fatalf("dense Drop%v = %v, reference %v", key, got, drops[key])
				}
				dups[key] = plan.DupProb > 0 &&
					xrand.HashFloat64(plan.Seed^streamDup, uint64(r), uint64(src), uint64(dst)) < plan.DupProb
				if got := dense.Duplicate(r, src, dst); got != dups[key] {
					t.Fatalf("Duplicate%v = %v, reference %v", key, got, dups[key])
				}
			}
		}
	}

	// Sparse injector: query only a scattered subset, still per-link
	// non-decreasing rounds. Skipped queries must not shift outcomes.
	sparse, err := New(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r += 7 {
		for src := n - 1; src >= 0; src -= 3 {
			for dst := 0; dst < n; dst += 2 {
				key := [3]int{r, src, dst}
				if got := sparse.Drop(r, src, dst); got != drops[key] {
					t.Fatalf("sparse Drop%v = %v, reference %v", key, got, drops[key])
				}
				if got := sparse.Duplicate(r, src, dst); got != dups[key] {
					t.Fatalf("sparse Duplicate%v = %v, reference %v", key, got, dups[key])
				}
			}
		}
	}

	// Concurrent injector: receivers partitioned across goroutines, as the
	// engine shards them. Run with -race to check the ownership contract.
	conc, err := New(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	perReceiver(n, func(dst int) string {
		for r := 0; r < rounds; r++ {
			for src := 0; src < n; src++ {
				if conc.Drop(r, src, dst) != drops[[3]int{r, src, dst}] {
					return "concurrent Drop mismatch"
				}
			}
		}
		return ""
	}, t)
}

// perReceiver runs check(dst) for every dst in [0, n) on its own
// goroutine and fails on the first non-empty message.
func perReceiver(n int, check func(dst int) string, t *testing.T) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for dst := 0; dst < n; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			if msg := check(dst); msg != "" {
				errs <- msg
			}
		}(dst)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// checkRows runs the row scenario (rowSenders) through several injectors:
// DropRow every round, Drop every round, the two alternating with Drop
// queried in descending sender order, DropRow on every third round only,
// and DropRow and Drop each with one goroutine per receiver.
func checkRows(t *testing.T, plan *Plan) {
	ref := newRefLoss(plan, rowN, rowRounds)
	srcs := make([][][]int, rowRounds) // [round][receiver index]
	want := make([][][]bool, rowRounds)
	for r := range srcs {
		srcs[r] = make([][]int, len(rowDsts))
		want[r] = make([][]bool, len(rowDsts))
		for d, dst := range rowDsts {
			srcs[r][d] = rowSenders(r, dst)
			for _, src := range srcs[r][d] {
				want[r][d] = append(want[r][d], ref.drop(r, src, dst))
			}
		}
	}
	if hub := len(srcs[0][0]); hub <= 1000 {
		t.Fatalf("hub hears %d senders, want more than 1000", hub)
	}

	// viaRow and viaDrop answer one receiver's round through one entry
	// point; check compares the answer with the reference.
	viaRow := func(in *Injector, r, d int) []bool {
		lost := make([]bool, len(srcs[r][d]))
		in.DropRow(r, rowDsts[d], srcs[r][d], lost)
		return lost
	}
	viaDrop := func(in *Injector, r, d int, descending bool) []bool {
		lost := make([]bool, len(srcs[r][d]))
		for j := range lost {
			i := j
			if descending {
				i = len(lost) - 1 - j
			}
			lost[i] = in.Drop(r, srcs[r][d][i], rowDsts[d])
		}
		return lost
	}
	check := func(got []bool, r, d int) string {
		for i, src := range srcs[r][d] {
			if got[i] != want[r][d][i] {
				return fmt.Sprintf("round %d link %d -> %d: lost %v, reference %v",
					r, src, rowDsts[d], got[i], want[r][d][i])
			}
		}
		return ""
	}
	newInjector := func() *Injector {
		in, err := New(plan, rowN)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}

	for _, sq := range []struct {
		name  string
		query func(in *Injector, r, d int) []bool // nil: skip the round
	}{
		{"DropRow", func(in *Injector, r, d int) []bool { return viaRow(in, r, d) }},
		{"Drop", func(in *Injector, r, d int) []bool { return viaDrop(in, r, d, false) }},
		{"alternating", func(in *Injector, r, d int) []bool {
			if r%2 == 0 {
				return viaRow(in, r, d)
			}
			return viaDrop(in, r, d, true)
		}},
		{"DropRow every third round", func(in *Injector, r, d int) []bool {
			if r%3 != 2 {
				return nil
			}
			return viaRow(in, r, d)
		}},
	} {
		in := newInjector()
		for r := 0; r < rowRounds; r++ {
			for d := range rowDsts {
				if got := sq.query(in, r, d); got != nil {
					if msg := check(got, r, d); msg != "" {
						t.Fatalf("%s: %s", sq.name, msg)
					}
				}
			}
		}
	}

	// One goroutine per receiver, through each entry point.
	for _, useRow := range []bool{true, false} {
		in := newInjector()
		perReceiver(len(rowDsts), func(d int) string {
			for r := 0; r < rowRounds; r++ {
				var got []bool
				if useRow {
					got = viaRow(in, r, d)
				} else {
					got = viaDrop(in, r, d, false)
				}
				if msg := check(got, r, d); msg != "" {
					return fmt.Sprintf("concurrent (DropRow %v): %s", useRow, msg)
				}
			}
			return ""
		}, t)
	}
}

// TestDropRates sanity-checks the statistics: empirical i.i.d. loss near
// DropProb, Gilbert–Elliott loss near its stationary rate, and burst
// (consecutive-loss) runs materially longer than i.i.d. at the same rate.
func TestDropRates(t *testing.T) {
	const n, rounds = 32, 400
	total := float64(n * n * rounds)

	count := func(p *Plan) (lost int, maxRun int) {
		in, err := New(p, n)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				run := 0
				for r := 0; r < rounds; r++ {
					if in.Drop(r, src, dst) {
						lost++
						run++
						if run > maxRun {
							maxRun = run
						}
					} else {
						run = 0
					}
				}
			}
		}
		return lost, maxRun
	}

	iid, _ := count(&Plan{Seed: 1, DropProb: 0.05})
	if rate := float64(iid) / total; rate < 0.04 || rate > 0.06 {
		t.Fatalf("i.i.d. loss rate %.4f, want ≈ 0.05", rate)
	}

	// Stationary loss: DropBad · PGB/(PGB+PBG) = 0.9 · 0.02/0.22 ≈ 0.0818.
	ge := &Plan{Seed: 1, Burst: &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.2, DropBad: 0.9}}
	burstLost, burstRun := count(ge)
	if rate := float64(burstLost) / total; rate < 0.06 || rate > 0.10 {
		t.Fatalf("burst loss rate %.4f, want ≈ 0.082", rate)
	}
	// Mean bad-state dwell is 1/PBadGood = 5 rounds at DropBad = 0.9, so
	// long loss runs must appear; i.i.d. at 8% has vanishing probability of
	// an 8-run (0.08^8 over ~4e5 trials ≈ 7e-4 expected occurrences).
	if burstRun < 8 {
		t.Fatalf("longest burst run %d, want ≥ 8 (losses are not bursty)", burstRun)
	}
	iid8, iidRun := count(&Plan{Seed: 1, DropProb: 0.082})
	_ = iid8
	if iidRun >= burstRun {
		t.Fatalf("i.i.d. max run %d ≥ burst max run %d; burst model adds no clustering", iidRun, burstRun)
	}
}

func TestSeedDecorrelates(t *testing.T) {
	const n, rounds = 8, 50
	a, err := New(&Plan{Seed: 1, DropProb: 0.3}, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(&Plan{Seed: 2, DropProb: 0.3}, n)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < rounds && same; r++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if a.Drop(r, src, dst) != b.Drop(r, src, dst) {
					same = false
				}
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical drop patterns")
	}
}

// BenchmarkDropRow draws replay10k's link losses (perfbench's plan: 2%
// i.i.d. loss plus a Gilbert–Elliott burst channel on 10,000 nodes) for one
// receiver's in-row, one round per op: a cluster head hearing 1000 members
// and a member hearing two neighbours. It explains sim.StageFaults on
// replay10k, where the self-stabilizing engine draws every live receiver's
// row once per round.
func BenchmarkDropRow(b *testing.B) {
	plan := &Plan{
		Seed:     3,
		DropProb: 0.02,
		Burst:    &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.25, DropBad: 0.8},
	}
	const n = 10000
	head := make([]int, 1000)
	for i := range head {
		head[i] = 1 + 7*i
	}
	for _, bc := range []struct {
		name string
		srcs []int
	}{
		{"head-1000", head},
		{"member-2", []int{42, 4242}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			in, err := New(plan, n)
			if err != nil {
				b.Fatal(err)
			}
			lost := make([]bool, len(bc.srcs))
			b.ReportAllocs()
			for r := 0; r < b.N; r++ {
				in.DropRow(r, 0, bc.srcs, lost)
			}
		})
	}
}
