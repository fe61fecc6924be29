package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
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
	mi := &instr{faults: plan, selfstab: true, scenario: "hinet", alpha: 5,
		fo: &core.Failover{Window: 3}}
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
