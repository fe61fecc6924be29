package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// testTrace freezes a churning (T, L)-HiNet so serial and parallel runs
// see the exact same dynamics.
func testTrace(t testing.TB, n, rounds, T int) *ctvg.DeltaTrace {
	t.Helper()
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: n / 4, L: 2, T: T,
		Reaffiliations: 2, ChurnEdges: 4,
	}, xrand.New(3))
	return ctvg.Record(adv, rounds)
}

// runCollected runs Algorithm 1 over tr with a fresh collector and returns
// the JSONL bytes plus the collector itself.
func runCollected(t testing.TB, tr *ctvg.DeltaTrace, k, T, workers int, reg *Registry) ([]byte, *Collector, *sim.Metrics) {
	t.Helper()
	assign := token.Spread(tr.N(), k, xrand.New(9))
	var sink bytes.Buffer
	col := NewCollector(Config{
		N: tr.N(), K: k, PhaseLen: T,
		Sink: &sink, Registry: reg, Keep: true,
	})
	met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: tr.Len(),
		Observer:  col.Observer(),
		SizeFn:    wire.Size,
		Workers:   workers,
	})
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), col, met
}

func TestCollectorRoundSeries(t *testing.T) {
	const n, k, T, rounds = 32, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	reg := NewRegistry()
	raw, col, met := runCollected(t, tr, k, T, 0, reg)

	events := col.Events()
	if len(events) != rounds {
		t.Fatalf("%d events, want %d", len(events), rounds)
	}
	var totMsgs, totTokens, totBytes int64
	prevDelivered := 0
	for i, e := range events {
		if e.Round != i {
			t.Fatalf("event %d has round %d", i, e.Round)
		}
		if e.Phase != i/T {
			t.Fatalf("round %d phase %d, want %d", i, e.Phase, i/T)
		}
		if e.Total != n*k {
			t.Fatalf("round %d total %d, want %d", i, e.Total, n*k)
		}
		if e.Delivered < prevDelivered {
			t.Fatalf("round %d delivered %d regressed below %d", i, e.Delivered, prevDelivered)
		}
		prevDelivered = e.Delivered
		if e.Idle != (e.Messages == 0) {
			t.Fatalf("round %d idle flag inconsistent", i)
		}
		var kindMsgs, roleMsgs int64
		for j := 0; j < sim.NumKinds; j++ {
			kindMsgs += e.MsgsByKind[j]
		}
		for j := 0; j < sim.NumRoles; j++ {
			roleMsgs += e.MsgsByRole[j]
		}
		if kindMsgs != e.Messages || roleMsgs != e.Messages {
			t.Fatalf("round %d splits don't sum: kinds=%d roles=%d msgs=%d", i, kindMsgs, roleMsgs, e.Messages)
		}
		totMsgs += e.Messages
		totTokens += e.Tokens
		totBytes += e.Bytes
	}
	// The event stream must reconcile exactly with the engine's metrics.
	if totMsgs != met.Messages || totTokens != met.TokensSent || totBytes != met.BytesSent {
		t.Fatalf("series totals (%d, %d, %d) != metrics (%d, %d, %d)",
			totMsgs, totTokens, totBytes, met.Messages, met.TokensSent, met.BytesSent)
	}
	// Algorithm 1 on a clustered network must attribute uploads to members
	// and relays to heads/gateways.
	var uploads, relays int64
	for _, e := range events {
		uploads += e.MsgsByKind[sim.KindUpload]
		relays += e.MsgsByKind[sim.KindRelay]
	}
	if uploads == 0 || relays == 0 {
		t.Fatalf("expected both uploads (%d) and relays (%d)", uploads, relays)
	}

	// JSONL round-trips through ParseEvents.
	parsed, err := ParseEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(events))
	}
	for i := range parsed {
		a, b := parsed[i], events[i]
		if len(a.Crashed) != len(b.Crashed) {
			t.Fatalf("event %d crash list changed over the wire", i)
		}
		a.Crashed, b.Crashed = nil, nil
		var ab, bb bytes.Buffer
		ab.Write(a.AppendJSON(nil))
		bb.Write(b.AppendJSON(nil))
		if ab.String() != bb.String() {
			t.Fatalf("event %d changed over the wire:\n%s\n%s", i, ab.String(), bb.String())
		}
	}

	// Registry totals agree with the engine.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"sim_messages_total " + itoa(met.Messages),
		"sim_tokens_total " + itoa(met.TokensSent),
		"sim_bytes_total " + itoa(met.BytesSent),
		`sim_messages_kind_total{kind="upload"} ` + itoa(met.MessagesByKind[sim.KindUpload]),
		`sim_tokens_role_total{role="head"} ` + itoa(met.TokensByRole[ctvg.Head]),
		"sim_rounds_total " + itoa(int64(rounds)),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func itoa(v int64) string {
	var b []byte
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestParallelEventStreamByteIdentical(t *testing.T) {
	// The acceptance criterion: Workers > 1 with a collector produces a
	// JSONL stream byte-identical to the serial engine on the same seed.
	const n, k, T, rounds = 48, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	serial, _, smet := runCollected(t, tr, k, T, 0, nil)
	for _, workers := range []int{2, 4, 7} {
		par, _, pmet := runCollected(t, tr, k, T, workers, nil)
		if smet.String() != pmet.String() {
			t.Fatalf("workers=%d: metrics diverge: %v vs %v", workers, smet, pmet)
		}
		if !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d: event stream diverges from serial", workers)
		}
	}
	if len(serial) == 0 {
		t.Fatal("empty event stream")
	}
}

func TestCollectorCrashEvents(t *testing.T) {
	// Crashes must appear in the round event, ascending, and feed the
	// crash counter.
	tr := testTrace(t, 16, 10, 5)
	assign := token.Spread(16, 3, xrand.New(1))
	reg := NewRegistry()
	col := NewCollector(Config{N: 16, K: 3, PhaseLen: 5, Registry: reg, Keep: true})
	sim.MustRunProtocol(tr, core.Alg1{T: 5}, assign, sim.Options{
		MaxRounds: 10,
		Observer:  col.Observer(),
		Faults:    &sim.Faults{CrashAt: map[int]int{5: 2, 3: 2, 9: 0}},
	})
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	if got := events[0].Crashed; len(got) != 1 || got[0] != 9 {
		t.Fatalf("round 0 crashes %v, want [9]", got)
	}
	if got := events[2].Crashed; len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("round 2 crashes %v, want [3 5]", got)
	}
	if c := reg.Counter("sim_crashes_total", ""); c.Value() != 3 {
		t.Fatalf("crash counter %d, want 3", c.Value())
	}
}

func TestCrashRecoveryListsSortedDeduped(t *testing.T) {
	// A node the static plan fells in the round a head crash fells every
	// head is listed once, the crash and recovery lists are ascending
	// whatever order the plan's map iterates in, and the counters count
	// the same lists.
	const n, k, T, rounds = 16, 3, 5, 10
	var heads []int
	for v, role := range testTrace(t, n, rounds, T).HierarchyAt(2).Role {
		if role == ctvg.Head {
			heads = append(heads, v)
		}
	}
	if len(heads) < 2 {
		t.Fatalf("round 2 has heads %v; the test needs two", heads)
	}
	static := heads[len(heads)-1] // felled by the plan and the head crash
	other := slices.Index(heads, 0) < 0 && static != 0
	crashAt := map[int]int{static: 2}
	want := slices.Clone(heads)
	if other {
		crashAt[0] = 2
		want = append([]int{0}, want...)
	}
	reg := NewRegistry()
	col := NewCollector(Config{N: n, K: k, PhaseLen: T, Registry: reg, Keep: true})
	sim.MustRunProtocol(testTrace(t, n, rounds, T), core.Alg1{T: T}, token.Spread(n, k, xrand.New(1)), sim.Options{
		MaxRounds: rounds,
		Observer:  col.Observer(),
		Faults:    &sim.Faults{CrashAt: crashAt, HeadCrashRounds: []int{2}, HeadCrashDowntime: 3},
	})
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	if got := events[2].Crashed; !slices.Equal(got, want) {
		t.Fatalf("round 2 crashes %v, want %v", got, want)
	}
	rejoined := slices.DeleteFunc(slices.Clone(heads), func(v int) bool { return v == static })
	if got := events[5].Recovered; !slices.Equal(got, rejoined) {
		t.Fatalf("round 5 recoveries %v, want %v", got, rejoined)
	}
	if c := reg.Counter("sim_crashes_total", ""); c.Value() != int64(len(want)) {
		t.Fatalf("crash counter %d, want %d", c.Value(), len(want))
	}
	if c := reg.Counter("sim_recoveries_total", ""); c.Value() != int64(len(rejoined)) {
		t.Fatalf("recovery counter %d, want %d", c.Value(), len(rejoined))
	}
}

// stubTracer drives the engine's delivery accounting with fixed per-round
// counts so the obs plumbing can be tested without importing the provenance
// package (which depends on obs and would cycle).
type stubTracer struct{ first, redundant int }

func (s *stubTracer) RunStart(n, k, shards int, nodes []sim.Node) {}
func (s *stubTracer) RoundStart(r int, hier *ctvg.Hierarchy)      {}
func (s *stubTracer) Delivered(shard, v int, vw *sim.View, inbox []*sim.Message, tokens *bitset.Set) {
}
func (s *stubTracer) RoundEnd(r int, crashed []bool) (int, int) { return s.first, s.redundant }

func TestDeliveriesFlowThroughEvents(t *testing.T) {
	// Tracer-reported delivery counts must reach the round events, the
	// JSONL stream (surviving a ParseEvents round trip) and the registry.
	const n, k, T, rounds = 16, 3, 5, 10
	tr := testTrace(t, n, rounds, T)
	assign := token.Spread(n, k, xrand.New(2))
	reg := NewRegistry()
	var sink bytes.Buffer
	col := NewCollector(Config{N: n, K: k, PhaseLen: T, Sink: &sink, Registry: reg, Keep: true})
	met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: rounds,
		Observer:  col.Observer(),
		Tracer:    &stubTracer{first: 3, redundant: 2},
	})
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if met.FirstDeliveries != 3*int64(met.Rounds) || met.RedundantDeliveries != 2*int64(met.Rounds) {
		t.Fatalf("engine metrics (%d, %d) don't fold the tracer counts over %d rounds",
			met.FirstDeliveries, met.RedundantDeliveries, met.Rounds)
	}
	events := col.Events()
	if len(events) != met.Rounds {
		t.Fatalf("%d events, want %d", len(events), met.Rounds)
	}
	for i, e := range events {
		if e.FirstDeliveries != 3 || e.RedundantDeliveries != 2 {
			t.Fatalf("event %d carries (%d, %d), want (3, 2)", i, e.FirstDeliveries, e.RedundantDeliveries)
		}
	}
	raw := sink.Bytes()
	if !bytes.Contains(raw, []byte(`"first_deliveries":3`)) ||
		!bytes.Contains(raw, []byte(`"redundant_deliveries":2`)) {
		t.Fatalf("JSONL missing delivery fields:\n%s", raw)
	}
	parsed, err := ParseEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := range parsed {
		if parsed[i].FirstDeliveries != events[i].FirstDeliveries ||
			parsed[i].RedundantDeliveries != events[i].RedundantDeliveries {
			t.Fatalf("event %d delivery fields changed over the wire", i)
		}
	}
	if c := reg.Counter("sim_first_deliveries_total", ""); c.Value() != met.FirstDeliveries {
		t.Fatalf("first-delivery counter %d, want %d", c.Value(), met.FirstDeliveries)
	}
	if c := reg.Counter("sim_redundant_deliveries_total", ""); c.Value() != met.RedundantDeliveries {
		t.Fatalf("redundant-delivery counter %d, want %d", c.Value(), met.RedundantDeliveries)
	}
}

func TestStallEventUnderParallelEngine(t *testing.T) {
	// Crashing the whole population stalls dissemination; the watchdog's
	// report and the collector's stalled/stall fields must agree, and the
	// parallel engine must emit an event stream byte-identical to serial.
	const n, k, T, window = 16, 3, 5, 4
	tr := testTrace(t, n, 40, T)
	assign := token.Spread(n, k, xrand.New(4))
	crashAll := map[int]int{}
	for v := 0; v < n; v++ {
		crashAll[v] = 2
	}
	run := func(workers int) ([]byte, []RoundEvent, *sim.Metrics, *Registry) {
		reg := NewRegistry()
		var sink bytes.Buffer
		col := NewCollector(Config{N: n, K: k, PhaseLen: T, Sink: &sink, Registry: reg, Keep: true})
		met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
			MaxRounds:   40,
			StallWindow: window,
			Workers:     workers,
			Observer:    col.Observer(),
			Faults:      &sim.Faults{CrashAt: crashAll},
		})
		if err := col.Flush(); err != nil {
			t.Fatal(err)
		}
		return sink.Bytes(), col.Events(), met, reg
	}
	serialRaw, events, met, reg := run(0)
	if met.Complete || met.Stall == nil {
		t.Fatalf("run did not stall: %v", met)
	}
	// The report renders every population term.
	s := met.Stall.String()
	for _, want := range []string{
		"stalled at round", "no progress for 4 rounds",
		"0 live", "16 down", "0 pending recovery",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("StallReport %q missing %q", s, want)
		}
	}
	// Exactly the final event is marked stalled, its round matches the
	// report, and its Stall streak covers the watchdog window.
	last := events[len(events)-1]
	if !last.Stalled || last.Round != met.Stall.Round {
		t.Fatalf("final event %+v does not record the stall at round %d", last, met.Stall.Round)
	}
	if last.Stall < window {
		t.Fatalf("final event stall streak %d < window %d", last.Stall, window)
	}
	for _, e := range events[:len(events)-1] {
		if e.Stalled {
			t.Fatalf("round %d marked stalled before the watchdog fired", e.Round)
		}
	}
	if c := reg.Counter("sim_stalled_runs_total", ""); c.Value() != 1 {
		t.Fatalf("stalled-runs counter %d, want 1", c.Value())
	}
	if !bytes.Contains(serialRaw, []byte(`"stalled":true`)) {
		t.Fatalf("JSONL stream does not mark the stalled round:\n%s", serialRaw)
	}
	for _, workers := range []int{2, 4} {
		parRaw, _, pmet, preg := run(workers)
		if !bytes.Equal(serialRaw, parRaw) {
			t.Fatalf("workers=%d: stalled event stream diverges from serial", workers)
		}
		if pmet.Stall == nil || pmet.Stall.Round != met.Stall.Round {
			t.Fatalf("workers=%d: stall report diverges: %+v vs %+v", workers, pmet.Stall, met.Stall)
		}
		if c := preg.Counter("sim_stalled_runs_total", ""); c.Value() != 1 {
			t.Fatalf("workers=%d: stalled-runs counter %d, want 1", workers, c.Value())
		}
	}
}

func TestObserveNoAllocs(t *testing.T) {
	// Once its buffers are warm, the collector turns a round record into an
	// event, its JSONL line and its registry updates without allocating,
	// so attaching it leaves the engine's round loop allocation-free.
	h := ctvg.NewHierarchy(4)
	h.SetHead(0)
	h.SetMember(1, 0)
	col := NewCollector(Config{N: 4, K: 2, PhaseLen: 3, Sink: io.Discard, Registry: NewRegistry()})
	obs := col.Observer()
	rd := &sim.Round{
		Hier: h, Crashed: []int{2}, Recovered: []int{3},
		Collected: []sim.CollectedToken{{Slot: 1}},
		Metrics:   &sim.Metrics{},
	}
	obs(rd)
	if n := testing.AllocsPerRun(1000, func() {
		rd.R++
		rd.Metrics.Messages++
		rd.Metrics.MessagesByKind[sim.KindUpload]++
		obs(rd)
	}); n != 0 {
		t.Fatalf("an observed round allocates %.1f times", n)
	}
}

func TestCombine(t *testing.T) {
	var calls []string
	oa := func(rd *sim.Round) { calls = append(calls, fmt.Sprint("a", rd.R)) }
	ob := func(rd *sim.Round) { calls = append(calls, fmt.Sprint("b", rd.R)) }
	Combine(oa, nil, ob)(&sim.Round{R: 3})
	if want := []string{"a3", "b3"}; !slices.Equal(calls, want) {
		t.Fatalf("combined calls %v, want %v", calls, want)
	}
	if Combine(nil, nil) != nil {
		t.Fatal("all-nil combine should be nil")
	}
	if reflect.ValueOf(Combine(nil, oa)).Pointer() != reflect.ValueOf(oa).Pointer() {
		t.Fatal("single observer should pass through")
	}
}

func TestSummarizePhases(t *testing.T) {
	const n, k, T, rounds = 32, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	_, col, _ := runCollected(t, tr, k, T, 0, nil)
	phases := Summarize(col.Events())
	if len(phases) != rounds/T {
		t.Fatalf("%d phases, want %d", len(phases), rounds/T)
	}
	gained := 0
	for i, p := range phases {
		if p.Phase != i {
			t.Fatalf("phase %d labelled %d", i, p.Phase)
		}
		if p.Rounds != T {
			t.Fatalf("phase %d has %d rounds, want %d", i, p.Rounds, T)
		}
		gained += p.Gained
	}
	last := phases[len(phases)-1]
	if gained != last.Delivered {
		t.Fatalf("gained sum %d != final delivered %d", gained, last.Delivered)
	}
	tb := PhaseTable("phases", phases)
	if tb.Len() != len(phases) {
		t.Fatalf("table rows %d", tb.Len())
	}
	if !strings.Contains(tb.String(), "uploads") {
		t.Fatal("phase table missing uploads column")
	}
}

// TestCollectorPropagatesEmissionErrors pins the mid-run error contract: a
// sink write failure during round emission is visible through Err() while
// the run is still going (not only at Flush), later rounds keep being
// collected but are counted as dropped, and Flush returns the attributed
// error.
func TestCollectorPropagatesEmissionErrors(t *testing.T) {
	const n, k, T, rounds = 32, 6, 12, 48
	tr := testTrace(t, n, rounds, T)
	assign := token.Spread(n, k, xrand.New(9))

	// Let two buffer spills through (~8 KiB ≈ a dozen rounds), then fail
	// (failAfterWriter is shared with the timing-sink error test).
	w := &failAfterWriter{n: 8192}
	onEvents := 0
	col := NewCollector(Config{
		N: n, K: k, PhaseLen: T, Sink: w, Keep: true,
		OnEvent: func(*RoundEvent) { onEvents++ },
	})
	errSeenAtRound := -1
	obsv := Combine(col.Observer(), func(rd *sim.Round) {
		if errSeenAtRound < 0 && col.Err() != nil {
			errSeenAtRound = rd.R
		}
	})
	met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: rounds, Observer: obsv,
	})

	err := col.Flush()
	if err == nil {
		t.Fatal("Flush returned nil after the sink failed")
	}
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("error lost its cause: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "event sink failed at round") {
		t.Fatalf("error not attributed to a round: %q", msg)
	}
	if !strings.Contains(msg, "later events dropped") {
		t.Fatalf("error does not count the dropped tail: %q", msg)
	}
	if errSeenAtRound < 0 {
		t.Fatal("write error only surfaced at Flush, not at emission time")
	}
	if errSeenAtRound >= met.Rounds-1 {
		t.Fatalf("error latched only at the last round (%d of %d)", errSeenAtRound, met.Rounds)
	}
	// In-memory consumers must outlive the dead sink: every round still
	// reached OnEvent and the retained series.
	if onEvents != met.Rounds {
		t.Fatalf("OnEvent fired %d times for %d rounds", onEvents, met.Rounds)
	}
	if len(col.Events()) != met.Rounds {
		t.Fatalf("retained %d events for %d rounds", len(col.Events()), met.Rounds)
	}
	// Err is idempotent and Flush after an error keeps returning it.
	if err2 := col.Flush(); err2 == nil || !errors.Is(err2, errDiskFull) {
		t.Fatalf("second Flush: %v", err2)
	}
}
