package recorder

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// testTrace freezes a churning HiNet so every worker count replays the
// same dynamics.
func testTrace(t testing.TB, n, rounds, T int) *ctvg.DeltaTrace {
	t.Helper()
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: n, Theta: n / 4, L: 2, T: T,
		Reaffiliations: 2, ChurnEdges: 4,
	}, xrand.New(3))
	return ctvg.Record(adv, rounds)
}

func mustRules(t testing.TB, spec string) []health.Rule {
	t.Helper()
	rules, err := health.ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// runStalled drives Algorithm 1 into the stall watchdog (the entire
// population crashes mid-run) with a fully wired recorder.
func runStalled(t testing.TB, workers int, dir string) (*Recorder, *sim.Metrics) {
	t.Helper()
	const n, k, T, rounds = 32, 6, 12, 160
	tr := testTrace(t, n, rounds, T)
	assign := token.Spread(n, k, xrand.New(9))
	crash := map[int]int{}
	for v := 0; v < n; v++ {
		crash[v] = 4 // well before any run can complete
	}
	plan := &sim.Faults{Seed: 5, CrashAt: crash}
	rec := New(Config{
		Obs:     obs.Config{N: n, K: k, PhaseLen: T, SizeFn: wire.Size},
		Depth:   64,
		Rules:   mustRules(t, "stall>=8"),
		Alpha:   2,
		DumpDir: dir, Prefix: "t",
		Fingerprint: map[string]string{"scenario": "test", "n": "32"},
		FaultPlan:   plan,
	})
	met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds:   rounds,
		StallWindow: 8,
		Observer:    rec.Observer(),
		SizeFn:      wire.Size,
		Workers:     workers,
		Faults:      plan,
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return rec, met
}

func TestStallProducesExactlyOneBundle(t *testing.T) {
	dir := t.TempDir()
	rec, met := runStalled(t, 0, dir)
	if met.Stall == nil {
		t.Fatalf("run did not stall: %v", met)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.dump"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("stall wrote %d bundles, want exactly 1: %v", len(files), files)
	}
	if got := rec.Bundles(); len(got) != 1 || got[0] != files[0] {
		t.Fatalf("Bundles() = %v, files = %v", got, files)
	}
	if !strings.HasSuffix(files[0], "-stall.dump") {
		t.Fatalf("bundle name %q does not carry the stall reason", files[0])
	}

	b, err := ReadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "stall" || b.N != 32 || b.K != 6 || b.PhaseLen != 12 {
		t.Fatalf("bundle header %+v", b)
	}
	if b.Fingerprint["scenario"] != "test" {
		t.Fatalf("fingerprint lost: %v", b.Fingerprint)
	}
	if b.Faults == nil || len(b.Faults.CrashAt) != 32 {
		t.Fatalf("fault plan lost: %+v", b.Faults)
	}
	if b.Metrics.Stall == nil || b.Metrics.Rounds != met.Rounds {
		t.Fatalf("metrics snapshot incomplete: %+v", b.Metrics)
	}
	if len(b.Events) == 0 || len(b.Events) > 64 {
		t.Fatalf("%d events in a depth-64 ring", len(b.Events))
	}
	last := b.Events[len(b.Events)-1]
	if !last.Stalled || last.Round != met.Stall.Round {
		t.Fatalf("ring tail %+v does not end at the watchdog round %d", last, met.Stall.Round)
	}

	d := b.Diagnose()
	if d.FirstViolated == nil || d.FirstViolated.Rule.Kind != health.KindStall {
		t.Fatalf("diagnosis blames %+v, want the stall rule", d.FirstViolated)
	}
	if d.LastHealthyRound < 0 || d.LastHealthyRound >= d.FirstViolated.FirstRound {
		t.Fatalf("last healthy round %d vs first violation %d", d.LastHealthyRound, d.FirstViolated.FirstRound)
	}
	if len(d.Trajectory) == 0 {
		t.Fatal("diagnosis has no trajectory")
	}
}

func TestBundleByteIdenticalAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		dir := t.TempDir()
		rec, _ := runStalled(t, workers, dir)
		files := rec.Bundles()
		if len(files) != 1 {
			t.Fatalf("workers=%d wrote %d bundles", workers, len(files))
		}
		raw, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = raw
			continue
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("workers=%d bundle differs from serial (%d vs %d bytes)", workers, len(raw), len(want))
		}
	}
	// The ring itself must agree too, not just its serialisation.
	dirA, dirB := t.TempDir(), t.TempDir()
	recA, _ := runStalled(t, 0, dirA)
	recB, _ := runStalled(t, 4, dirB)
	evA, evB := recA.Events(), recB.Events()
	if len(evA) != len(evB) {
		t.Fatalf("ring lengths differ: %d vs %d", len(evA), len(evB))
	}
	var bufA, bufB []byte
	for i := range evA {
		bufA = evA[i].AppendJSON(bufA[:0])
		bufB = evB[i].AppendJSON(bufB[:0])
		if !bytes.Equal(bufA, bufB) {
			t.Fatalf("ring slot %d differs:\n%s\n%s", i, bufA, bufB)
		}
	}
}

func TestPaceViolationDump(t *testing.T) {
	// An α far above what any run can sustain forces the Theorem-1 floor
	// past reality at the second phase boundary.
	const n, k, T, rounds = 32, 8, 4, 60
	tr := testTrace(t, n, rounds, 12)
	assign := token.Spread(n, k, xrand.New(9))
	dir := t.TempDir()
	rec := New(Config{
		Obs:     obs.Config{N: n, K: k, PhaseLen: T},
		Rules:   mustRules(t, "pace"),
		Alpha:   8,
		DumpDir: dir, Prefix: "pace",
	})
	sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: rounds,
		Observer:  rec.Observer(),
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	files := rec.Bundles()
	if len(files) != 1 || !strings.HasSuffix(files[0], "-pace.dump") {
		t.Fatalf("pace violation bundles: %v", files)
	}
	b, err := ReadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	d := b.Diagnose()
	if d.Reason != "pace" || d.FirstViolated == nil || d.FirstViolated.Rule.Kind != health.KindPace {
		t.Fatalf("diagnosis %+v does not blame the pace rule", d.FirstViolated)
	}
}

func TestQueueSLAMissDump(t *testing.T) {
	// A queue budget of zero is a deliberate SLA miss: the first phase
	// boundary with anything outstanding violates.
	const n = 6
	d := sim.NewFlat(tvg.Static{G: graph.Path(n)})
	dir := t.TempDir()
	rec := New(Config{
		Obs:     obs.Config{N: n, K: 1, PhaseLen: 10, Arrivals: true},
		Rules:   mustRules(t, "queue<=0,conservation"),
		DumpDir: dir, Prefix: "sla",
	})
	arr := sim.Arrivals{Rate: 2, Seed: 7, OnRounds: 3, OffRounds: 12, Stop: 60}
	sim.MustRunProtocol(d, baseline.Flood{}, token.SingleSource(n, 1, 0), sim.Options{
		MaxRounds:        300,
		StopWhenComplete: true,
		StallWindow:      50,
		Observer:         rec.Observer(),
		Arrivals:         &arr,
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	files := rec.Bundles()
	if len(files) != 1 || !strings.HasSuffix(files[0], "-queue.dump") {
		t.Fatalf("SLA miss bundles: %v (conservation must stay clean)", files)
	}
	b, err := ReadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	d2 := b.Diagnose()
	if d2.FirstViolated == nil || d2.FirstViolated.Rule.Kind != health.KindQueue {
		t.Fatalf("diagnosis %+v does not blame the queue rule", d2.FirstViolated)
	}
	// The genuine conservation invariant must have been judged and held.
	for _, s := range b.Health {
		if s.Rule.Kind == health.KindConservation {
			if s.LastRound < 0 {
				t.Fatal("conservation rule never judged")
			}
			if s.Violations != 0 {
				t.Fatalf("conservation broke on a healthy run: %+v", s)
			}
		}
	}
}

func TestRingWrapKeepsNewestRounds(t *testing.T) {
	const n, k, T, rounds = 24, 4, 8, 96
	tr := testTrace(t, n, rounds, T)
	assign := token.Spread(n, k, xrand.New(9))
	rec := New(Config{Obs: obs.Config{N: n, K: k, PhaseLen: T}, Depth: 16})
	met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: rounds,
		Observer:  rec.Observer(),
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d rounds, want 16", len(evs))
	}
	for i, e := range evs {
		if want := met.Rounds - 16 + i; e.Round != want {
			t.Fatalf("slot %d holds round %d, want %d", i, e.Round, want)
		}
	}
}

func TestRecorderWithoutDumpDir(t *testing.T) {
	// No dump dir: triggers mark the run unhealthy but write nothing.
	dir := t.TempDir()
	rec, _ := runStalledNoDir(t)
	if got := rec.Bundles(); len(got) != 0 {
		t.Fatalf("bundles written without a dump dir: %v", got)
	}
	if rec.Health().Healthy() {
		t.Fatal("stalled run reads healthy")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatal("stray files")
	}
}

func runStalledNoDir(t testing.TB) (*Recorder, *sim.Metrics) {
	t.Helper()
	return runStalled(t, 0, "")
}

func TestStatusAndHTTPSurfaces(t *testing.T) {
	dir := t.TempDir()
	rec, met := runStalled(t, 2, dir)
	st := rec.Status()
	if st.Round != met.Stall.Round || !st.Stalled || st.Healthy || st.Violations == 0 {
		t.Fatalf("status %+v", st)
	}
	if st.RingLen == 0 || st.RingCap != 64 || len(st.Bundles) != 1 || len(st.Rules) != 1 {
		t.Fatalf("status %+v", st)
	}

	mux := http.NewServeMux()
	rec.RegisterHTTP(mux)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "rule stall") {
		t.Fatalf("healthz on an unhealthy run: %d %q", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	body := rr.Body.String()
	for _, want := range []string{"round ", "flight recorder: ", "VIOLATED", "bundle: "} {
		if !strings.Contains(body, want) {
			t.Fatalf("statusz missing %q:\n%s", want, body)
		}
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/statusz?format=json", nil))
	if !strings.Contains(rr.Body.String(), `"ring_cap": 64`) {
		t.Fatalf("statusz json: %s", rr.Body.String())
	}

	// A healthy run's probe must answer 200.
	rec2 := New(Config{Obs: obs.Config{N: 8, K: 2}, Rules: mustRules(t, "stall>=50")})
	mux2 := http.NewServeMux()
	rec2.RegisterHTTP(mux2)
	rr = httptest.NewRecorder()
	mux2.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz on a fresh run: %d", rr.Code)
	}
}

// TestInProcessCancelLeavesValidStreams is the CLIs' SIGINT path in
// miniature: a cooperative Options.Stop ends the run mid-flight and the
// normal close path still flushes complete, parseable streams and a
// coherent recorder state.
func TestInProcessCancelLeavesValidStreams(t *testing.T) {
	const n, k, T, rounds = 24, 4, 8, 200
	tr := testTrace(t, n, rounds, T)
	assign := token.Spread(n, k, xrand.New(9))
	var sink bytes.Buffer
	rec := New(Config{Obs: obs.Config{N: n, K: k, PhaseLen: T, Sink: &sink}, Depth: 32})
	stopAt := 10
	met := sim.MustRunProtocol(tr, core.Alg1{T: T}, assign, sim.Options{
		MaxRounds: rounds,
		Observer:  rec.Observer(),
		Stop:      func(r int) bool { return r >= stopAt },
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if met.Rounds != stopAt+1 {
		t.Fatalf("stop hook ended the run after %d rounds, want %d", met.Rounds, stopAt+1)
	}
	events, err := obs.ParseEvents(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("interrupted stream does not parse: %v", err)
	}
	if len(events) != met.Rounds {
		t.Fatalf("stream has %d events for %d executed rounds", len(events), met.Rounds)
	}
	if got := rec.Events(); len(got) != met.Rounds || got[len(got)-1].Round != stopAt {
		t.Fatalf("ring disagrees with the interrupted run: %d events", len(got))
	}
}
