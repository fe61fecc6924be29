package recorder

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// TestOpenWithoutSinksAttachesNothing: a run that names no file, rule or
// dump directory gets no sink, and opening and closing its sinks
// allocates nothing.
func TestOpenWithoutSinksAttachesNothing(t *testing.T) {
	cfg := SinkConfig{
		Recorder:   Config{Obs: obs.Config{N: 8, K: 2, PhaseLen: 4}},
		Provenance: provenance.Config{Budget: &provenance.Budget{PhaseLen: 4, Alpha: 2}},
	}
	var opts sim.Options
	allocs := testing.AllocsPerRun(100, func() {
		s, err := Open(cfg, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.Collector != nil || s.Recorder != nil || s.Timing != nil || s.Tracer != nil {
			t.Fatalf("sinks attached: %+v", s)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Open and Close allocate %v times without sinks", allocs)
	}
	if opts.Observer != nil || opts.Tracer != nil || opts.Timing != nil {
		t.Fatal("options gained a sink")
	}
}

// TestOpenPaceRuleFollowsBudget: the health pace rule stays only when a
// Theorem 1 budget governs the run, judged at the budget's α, and the
// caller's rules are never written.
func TestOpenPaceRuleFollowsBudget(t *testing.T) {
	rules := mustRules(t, "pace,stall>=8")
	for _, tc := range []struct {
		budget *provenance.Budget
		want   []health.Kind
	}{
		{nil, []health.Kind{health.KindStall}},
		{&provenance.Budget{PhaseLen: 8, Phases: 4, Alpha: 3}, []health.Kind{health.KindPace, health.KindStall}},
	} {
		var opts sim.Options
		s, err := Open(SinkConfig{
			Recorder:   Config{Obs: obs.Config{N: 8, K: 2, PhaseLen: 8}, Rules: rules},
			Provenance: provenance.Config{Budget: tc.budget},
		}, &opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []health.Kind
		for _, st := range s.Recorder.Health().States() {
			got = append(got, st.Rule.Kind)
		}
		if len(got) != len(tc.want) || got[0] != tc.want[0] {
			t.Errorf("budget %+v: rules %v, want %v", tc.budget, got, tc.want)
		}
		if tc.budget != nil && s.Recorder.cfg.Alpha != tc.budget.Alpha {
			t.Errorf("pace judged at α %d, want the budget's %d", s.Recorder.cfg.Alpha, tc.budget.Alpha)
		}
		if s.Tracer != nil || opts.Tracer != nil {
			t.Error("a budget alone attached a tracer")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rules) != 2 || rules[0].Kind != health.KindPace {
		t.Fatalf("Open wrote the caller's rules: %v", rules)
	}
}

// stalledSinks runs Algorithm 1 into the stall watchdog with every sink
// attached through Open, its files in a directory Open creates, and
// returns the closed sinks and that directory.
func stalledSinks(t testing.TB) (Sinks, string) {
	t.Helper()
	const n, k, T, rounds = 32, 6, 12, 160
	dir := filepath.Join(t.TempDir(), "run")
	crash := map[int]int{}
	for v := 0; v < n; v++ {
		crash[v] = 4
	}
	opts := sim.Options{MaxRounds: rounds, StallWindow: 8, Faults: &sim.Faults{CrashAt: crash}}
	s, err := Open(SinkConfig{
		MetricsPath:    filepath.Join(dir, "m.jsonl"),
		ProvenancePath: filepath.Join(dir, "p", "prov.jsonl"),
		TimingPath:     filepath.Join(dir, "t.jsonl"),
		Recorder: Config{
			Obs:   obs.Config{N: n, K: k, PhaseLen: T},
			Depth: 16, Rules: mustRules(t, "stall>=8,pace"), DumpDir: filepath.Join(dir, "dumps"),
		},
		Provenance: provenance.Config{Budget: &provenance.Budget{PhaseLen: T, Phases: 4, Alpha: 2}},
	}, &opts)
	if err != nil {
		t.Fatal(err)
	}
	sim.MustRunProtocol(testTrace(t, n, rounds, T), core.Alg1{T: T}, token.Spread(n, k, xrand.New(9)), opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// TestOpenWritesEveryStream: every named file is created with its
// directory and holds its stream, the recorder's bundle carries the fault
// plan and the stage timings teed in on their way to the timing file.
func TestOpenWritesEveryStream(t *testing.T) {
	s, dir := stalledSinks(t)
	for _, name := range []string{"m.jsonl", "p/prov.jsonl", "t.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 || b[len(b)-1] != '\n' {
			t.Fatalf("%s: %d bytes, not a complete stream", name, len(b))
		}
	}
	bundles := s.Recorder.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles %v, want the stall's", bundles)
	}
	b, err := ReadBundle(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Faults == nil || len(b.Timing) != len(b.Events) || len(b.Events) == 0 {
		t.Fatalf("bundle has fault plan %v and %d timing rows for %d events", b.Faults, len(b.Timing), len(b.Events))
	}
	if s.Tracer == nil || s.Timing.Rounds() == 0 {
		t.Fatalf("tracer %v, timing %d rounds", s.Tracer, s.Timing.Rounds())
	}
}

// TestOpenClosesWhatItOpenedOnError: when one file cannot be created, Open
// fails and leaves none of the others open.
func TestOpenClosesWhatItOpenedOnError(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this system")
		}
		return len(ents)
	}
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := fds()
	var opts sim.Options
	_, err := Open(SinkConfig{
		MetricsPath:    filepath.Join(dir, "m.jsonl"),
		ProvenancePath: filepath.Join(dir, "p.jsonl"),
		TimingPath:     filepath.Join(blocker, "t.jsonl"),
		Recorder:       Config{Obs: obs.Config{N: 8, K: 2}},
	}, &opts)
	if err == nil {
		t.Fatal("Open created a file under a regular file")
	}
	if after := fds(); after != before {
		t.Fatalf("open descriptors %d before a failed Open, %d after", before, after)
	}
}

// FuzzParseBundle feeds ParseBundle arbitrary bytes. It must never panic,
// and Diagnose must not panic on any bundle it accepts.
func FuzzParseBundle(f *testing.F) {
	s, _ := stalledSinks(f)
	raw, err := os.ReadFile(s.Recorder.Bundles()[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"bundle":"hinet-postmortem","version":1,"round":3}` + "\n" + `{"events":0}` + "\n" + `{"end":true}`))
	f.Add([]byte(`{"bundle":"hinet-postmortem","version":1}` + "\n" + `{"timing":8}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		b.Diagnose()
	})
}
