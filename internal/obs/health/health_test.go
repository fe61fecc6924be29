package health

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(" pace, p99<=40,queue<=500 ,beacons<=1200,stage>2.0,conservation,stall>=50")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{KindPace, 0}, {KindLatencyP99, 40}, {KindQueue, 500},
		{KindBeacons, 1200}, {KindStage, 2}, {KindConservation, 0}, {KindStall, 50},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	if r, err := ParseRules(""); err != nil || r != nil {
		t.Fatalf("empty spec: %v %v", r, err)
	}
	for _, bad := range []string{
		"p99<=40x", "latency<=40", "stage>0.5", "stall>=0", "p99>=40",
		"pace,pace", "queue<=-1", "stall", "stage>NaN",
		"p99<=Inf", "queue<=+Inf", "stall>=inf", "beacons<=infinity", "stage>1e999",
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// FuzzParseRules checks that ParseRules never panics and that every rule
// it accepts encodes into a State, as the flight recorder writes it into
// a postmortem bundle.
func FuzzParseRules(f *testing.F) {
	for _, s := range []string{
		"pace,p99<=40,queue<=500,beacons<=1200,stage>2.0,conservation,stall>=50",
		"stall>=inf", "p99<=1e308", "queue<=0x1p10", "stage>NaN", "pace,,pace", " stall >= 3 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			if _, err := json.Marshal(State{Rule: r, LastLimit: r.Threshold}); err != nil {
				t.Fatalf("spec %q: rule %+v does not encode: %v", spec, r, err)
			}
		}
	})
}

func TestNilEngineIsSafe(t *testing.T) {
	e := New(Config{})
	if e != nil {
		t.Fatal("no rules should yield a nil engine")
	}
	e.Observe(&obs.RoundEvent{})
	e.ObserveMetrics(0, &sim.Metrics{})
	e.ObserveLatency(3)
	e.RoundTiming(0, &[sim.NumStages]int64{})
	if !e.Healthy() || e.Violations() != 0 || e.States() != nil || e.Rules() != nil {
		t.Fatal("nil engine must read as healthy and empty")
	}
	if _, ok := e.FirstViolated(); ok {
		t.Fatal("nil engine reported a violation")
	}
}

func TestStallRule(t *testing.T) {
	var got []Violation
	e := New(Config{
		Rules: mustRules(t, "stall>=3"),
		N:     10, K: 4, PhaseLen: 5,
		OnViolation: func(v Violation) { got = append(got, v) },
	})
	for r, stall := range []int{0, 1, 2, 0, 1} {
		e.Observe(&obs.RoundEvent{Round: r, Stall: stall})
	}
	if len(got) != 0 {
		t.Fatalf("streaks below threshold violated: %+v", got)
	}
	e.Observe(&obs.RoundEvent{Round: 5, Stall: 3})
	e.Observe(&obs.RoundEvent{Round: 6, Stall: 4})
	if len(got) != 2 {
		t.Fatalf("%d violations, want 2 (one per round at/over threshold)", len(got))
	}
	if got[0].Rule != "stall" || got[0].Round != 5 || got[0].Value != 3 {
		t.Fatalf("first violation %+v", got[0])
	}
	s, ok := e.FirstViolated()
	if !ok || s.Rule.Kind != KindStall || s.FirstRound != 5 {
		t.Fatalf("FirstViolated = %+v, %v", s, ok)
	}
	// The watchdog event itself violates even under the threshold.
	e2 := New(Config{Rules: mustRules(t, "stall>=50")})
	e2.Observe(&obs.RoundEvent{Round: 9, Stall: 12, Stalled: true})
	if e2.Healthy() {
		t.Fatal("watchdog-terminated round did not violate the stall rule")
	}
}

func TestPaceRule(t *testing.T) {
	e := New(Config{Rules: mustRules(t, "pace"), N: 10, K: 6, PhaseLen: 5, Alpha: 2})
	// Phase 1 boundary (round 4) is grace: even zero progress is on pace.
	e.Observe(&obs.RoundEvent{Round: 4, Phase: 0, Delivered: 0, Total: 60})
	if !e.Healthy() {
		t.Fatal("grace phase violated")
	}
	// Phase 2 boundary: floor is min(6, 2·1) = 2 tokens/node = 20 pairs.
	e.Observe(&obs.RoundEvent{Round: 9, Phase: 1, Delivered: 19, Total: 60})
	if e.Healthy() {
		t.Fatal("19/10 = 1.9 tokens/node passed a floor of 2")
	}
	st := e.States()[0]
	if st.FirstRound != 9 || st.LastLimit != 2 {
		t.Fatalf("pace state %+v", st)
	}
	// Off-boundary rounds are never judged.
	e2 := New(Config{Rules: mustRules(t, "pace"), N: 10, K: 6, PhaseLen: 5, Alpha: 2})
	e2.Observe(&obs.RoundEvent{Round: 8, Delivered: 0, Total: 60})
	if !e2.Healthy() {
		t.Fatal("pace judged off a phase boundary")
	}
	// On-pace run stays healthy.
	e3 := New(Config{Rules: mustRules(t, "pace"), N: 10, K: 6, PhaseLen: 5, Alpha: 2})
	e3.Observe(&obs.RoundEvent{Round: 9, Delivered: 20, Total: 60})
	if !e3.Healthy() {
		t.Fatal("exactly-on-floor run violated")
	}
}

func TestQueueAndBeaconRules(t *testing.T) {
	e := New(Config{Rules: mustRules(t, "queue<=10,beacons<=2"), N: 8, K: 4, PhaseLen: 4, Arrivals: true})
	for r := 0; r < 3; r++ {
		e.Observe(&obs.RoundEvent{Round: r, Outstanding: 99, Beacons: 3})
	}
	if !e.Healthy() {
		t.Fatal("phase-scoped rules judged before the boundary")
	}
	e.Observe(&obs.RoundEvent{Round: 3, Outstanding: 25, Beacons: 3})
	if e.Violations() != 2 {
		t.Fatalf("%d violations at the boundary, want queue+beacons = 2", e.Violations())
	}
	states := e.States()
	if states[0].LastValue != 25 || states[1].LastValue != 3 {
		t.Fatalf("states %+v", states)
	}
	// Queue never binds outside arrival mode.
	e2 := New(Config{Rules: mustRules(t, "queue<=10"), N: 8, K: 4, PhaseLen: 4})
	e2.Observe(&obs.RoundEvent{Round: 3, Outstanding: 25})
	if !e2.Healthy() {
		t.Fatal("queue rule fired with arrivals off")
	}
}

func TestLatencyP99Rule(t *testing.T) {
	e := New(Config{Rules: mustRules(t, "p99<=8"), N: 8, K: 4, PhaseLen: 4, Arrivals: true})
	for i := 0; i < 100; i++ {
		e.ObserveLatency(4)
	}
	e.Observe(&obs.RoundEvent{Round: 3})
	if !e.Healthy() {
		t.Fatal("p99≈4 violated a budget of 8")
	}
	for i := 0; i < 100; i++ {
		e.ObserveLatency(64)
	}
	e.Observe(&obs.RoundEvent{Round: 7})
	if e.Healthy() {
		t.Fatal("p99≈64 passed a budget of 8")
	}
	if v := e.States()[0].LastValue; v <= 8 {
		t.Fatalf("recorded p99 %.1f not over budget", v)
	}
}

func TestConservationRule(t *testing.T) {
	e := New(Config{Rules: mustRules(t, "conservation"), N: 8, K: 3, PhaseLen: 4, Arrivals: true})
	e.ObserveMetrics(5, &sim.Metrics{TokensInjected: 4, TokensCollected: 2, OutstandingTokens: 5})
	if !e.Healthy() {
		t.Fatal("balanced ledger violated: 3+4−2 = 5")
	}
	e.ObserveMetrics(6, &sim.Metrics{TokensInjected: 4, TokensCollected: 2, OutstandingTokens: 6})
	if e.Healthy() {
		t.Fatal("unbalanced ledger passed")
	}
	v, _ := e.FirstViolated()
	if v.FirstRound != 6 {
		t.Fatalf("conservation broke at round %d, want 6", v.FirstRound)
	}
	// Vacuous outside arrival mode (all counters stay zero there).
	e2 := New(Config{Rules: mustRules(t, "conservation"), N: 8, K: 3, PhaseLen: 4})
	e2.ObserveMetrics(1, &sim.Metrics{})
	if !e2.Healthy() {
		t.Fatal("conservation judged with arrivals off")
	}
}

func TestStageRegressionRule(t *testing.T) {
	e := New(Config{Rules: mustRules(t, "stage>2.0"), N: 8, K: 4, PhaseLen: 4, StageWarmup: 4})
	var wall [sim.NumStages]int64
	for s := range wall {
		wall[s] = 1_000_000 // 1ms per stage
	}
	for r := 0; r < 6; r++ {
		e.RoundTiming(r, &wall)
	}
	if !e.Healthy() {
		t.Fatal("steady timings violated the regression rule")
	}
	spike := wall
	spike[sim.StageDeliver] = 10_000_000
	e.RoundTiming(6, &spike)
	if e.Healthy() {
		t.Fatal("10× stage spike passed a 2× budget")
	}
	st := e.States()[0]
	if st.LastValue < 2 || !strings.Contains(stageDetail(t, e), "deliver") {
		t.Fatalf("stage state %+v", st)
	}
	// Sub-floor stages never violate, however large the ratio.
	e2 := New(Config{Rules: mustRules(t, "stage>2.0"), N: 8, K: 4, PhaseLen: 4, StageWarmup: 2})
	tiny := [sim.NumStages]int64{}
	for s := range tiny {
		tiny[s] = 10 // 10ns
	}
	for r := 0; r < 4; r++ {
		e2.RoundTiming(r, &tiny)
	}
	tiny[0] = 100_000 // 10000× but under the 200µs floor
	e2.RoundTiming(4, &tiny)
	if !e2.Healthy() {
		t.Fatal("noise under StageMinNanos violated")
	}
}

// stageDetail replays the last violation's detail via the callback.
func stageDetail(t *testing.T, e *Engine) string {
	t.Helper()
	var detail string
	e.cfg.OnViolation = func(v Violation) { detail = v.Detail }
	spike := [sim.NumStages]int64{}
	for s := range spike {
		spike[s] = 1_000_000
	}
	spike[sim.StageDeliver] = 10_000_000
	e.RoundTiming(100, &spike)
	return detail
}

func TestRegistrySeries(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Rules: mustRules(t, "stall>=2,queue<=5"), N: 4, K: 2, PhaseLen: 2, Arrivals: true, Registry: reg})
	gauge := reg.Gauge("sim_health_state", "")
	if gauge.Value() != 1 {
		t.Fatal("sim_health_state must start at 1")
	}
	e.Observe(&obs.RoundEvent{Round: 0, Stall: 0, Outstanding: 2})
	if gauge.Value() != 1 {
		t.Fatal("healthy round flipped the gauge")
	}
	e.Observe(&obs.RoundEvent{Round: 1, Stall: 2, Outstanding: 9})
	if gauge.Value() != 0 {
		t.Fatal("violations left sim_health_state at 1")
	}
	if v := reg.Counter(`sim_slo_violations_total{rule="stall"}`, "").Value(); v != 1 {
		t.Fatalf(`stall violation counter = %d, want 1`, v)
	}
	if v := reg.Counter(`sim_slo_violations_total{rule="queue"}`, "").Value(); v != 1 {
		t.Fatalf(`queue violation counter = %d, want 1`, v)
	}
}

func mustRules(t *testing.T, spec string) []Rule {
	t.Helper()
	rules, err := ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}
