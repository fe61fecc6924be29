package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordRejectsImpossibleFlags runs the record subcommand on flags no
// trace can be made from: each must fail with a flag error, not a panic,
// and leave no output file behind. The defaults must record.
func TestRecordRejectsImpossibleFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error; empty means accepted
	}{
		{"defaults", nil, ""},
		{"too few nodes for theta", []string{"-n", "5"}, "-n 5, -theta 10, -l 2, -t 12: adversary: Theta=10 out of range"},
		{"zero phase length", []string{"-t", "0"}, "-t 0: adversary: T=0 must be positive"},
		{"zero rounds", []string{"-rounds", "0"}, "-rounds 0: need at least 1"},
		{"negative churn", []string{"-churn", "-1"}, "negative churn parameter"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "net.ctvg")
			err := record(append([]string{"-out", out}, tc.args...))
			_, statErr := os.Stat(out)
			if tc.want == "" {
				if err != nil || statErr != nil {
					t.Fatalf("record: %v (output: %v)", err, statErr)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("record: error %v, want it to contain %q", err, tc.want)
			}
			if !os.IsNotExist(statErr) {
				t.Fatalf("a rejected record left an output file (%v)", statErr)
			}
		})
	}
}
