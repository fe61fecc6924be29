package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/sim"
)

// TestHiNetRunsPastTheCheckedBudget runs the hinet scenario with -selfstab,
// whose run gets four times the Theorem 1 budget that the model check
// reads. The rounds past that budget must be generated like the rest, not
// repeated from its last round: the pinned result is the one the scenario
// printed when the check and the run each read the adversary directly.
func TestHiNetRunsPastTheCheckedBudget(t *testing.T) {
	plan, err := buildFaults(0.05, "", "", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mi := &instr{faults: plan, selfstab: true, fo: &core.Failover{Window: 3}}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := runHiNet(200, 6, 8, 5, 2, 3, 10, 1, mi)
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if err := mi.close(); err != nil {
		t.Fatal(err)
	}
	if want := "result: rounds=52 msgs=9586 tokens=4239 complete@52"; !strings.Contains(string(out), want) {
		t.Fatalf("output:\n%s\nwant a line %q", out, want)
	}
}

// TestPaceRuleNeedsTheorem1Budget runs -health pace with -dump-dir on two
// scenarios. Theorem 1's schedule governs Algorithm 1 only, so the onel
// scenario's Algorithm 2 run must report no pace violation and write no
// bundle, while the hinet scenario under 90% loss falls behind its
// Theorem 1 budget and dumps a pace bundle.
func TestPaceRuleNeedsTheorem1Budget(t *testing.T) {
	rules, err := health.ParseRules("pace")
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := buildFaults(0.9, "", "", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scenario string
		faults   *sim.Faults
		run      func(*instr) error
		wantPace bool
	}{
		{"onel", nil, func(mi *instr) error { return runOneL(100, 8, 30, 2, 3, 10, 1, mi) }, false},
		{"hinet", lossy, func(mi *instr) error { return runHiNet(100, 8, 20, 4, 2, 3, 10, 5, mi) }, true},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			dir := t.TempDir()
			mi := &instr{faults: tc.faults, sinks: recorder.SinkConfig{
				Recorder: recorder.Config{Rules: rules, DumpDir: dir, Prefix: tc.scenario},
			}}
			err := discardStdout(t, func() error {
				if err := tc.run(mi); err != nil {
					return err
				}
				return mi.close()
			})
			if err != nil {
				t.Fatal(err)
			}
			pace := 0
			for _, s := range mi.out.Recorder.Health().States() {
				if s.Rule.Kind == health.KindPace {
					pace = s.Violations
				}
			}
			bundles, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantPace != (pace > 0) || tc.wantPace != (len(bundles) == 1) {
				t.Fatalf("%d pace violation(s), bundles %v; want pace judged: %v", pace, bundles, tc.wantPace)
			}
		})
	}
}

// discardStdout runs f with os.Stdout sent to the null device.
func discardStdout(t *testing.T, f func() error) error {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()
	return f()
}
