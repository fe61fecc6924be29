package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		drop     float64
		arrival  float64
		stall    int
		stallSet bool
		wantErr  string // substring, "" = valid
	}{
		{name: "all defaults", wantErr: ""},
		{name: "valid drop", drop: 0.05, wantErr: ""},
		{name: "drop at one", drop: 1, wantErr: ""},
		{name: "negative drop", drop: -0.1, wantErr: "-drop"},
		{name: "drop above one", drop: 1.5, wantErr: "-drop"},
		{name: "NaN drop", drop: math.NaN(), wantErr: "-drop"},
		{name: "valid arrival", arrival: 0.5, wantErr: ""},
		{name: "negative arrival", arrival: -2, wantErr: "-arrival"},
		{name: "NaN arrival", arrival: math.NaN(), wantErr: "-arrival"},
		{name: "valid stall window", stall: 50, stallSet: true, wantErr: ""},
		{name: "default stall off", stall: 0, stallSet: false, wantErr: ""},
		{name: "explicit zero stall window", stall: 0, stallSet: true, wantErr: "-stall-window"},
		{name: "negative stall window", stall: -3, stallSet: true, wantErr: "-stall-window"},
		{name: "negative stall window unset", stall: -3, stallSet: false, wantErr: "-stall-window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.drop, tc.arrival, tc.stall, tc.stallSet)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestImpossibleHiNet runs the hinet and onel scenarios at the default
// flags with too few nodes: `hinetsim -scenario hinet -n 40` and
// `hinetsim -scenario onel -n 20`. Both must fail with an error naming
// -n, -theta and -l instead of panicking in the adversary.
func TestImpossibleHiNet(t *testing.T) {
	const k, theta, alpha, l, reaffil, churn, seed = 8, 30, 5, 2, 3, 10, 1
	cases := []struct {
		name string
		run  func() error
		want []string
	}{
		{"hinet -n 40", func() error { return runHiNet(40, k, theta, alpha, l, reaffil, churn, seed, &instr{}) },
			[]string{"-n 40, -theta 30, -l 2", "cannot host 30 heads with L=2 (need >= 59)"}},
		{"onel -n 20", func() error { return runOneL(20, k, theta, l, reaffil, churn, seed, &instr{}) },
			[]string{"-n 20, -theta 30, -l 2", "Theta=30 out of range"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("want an error, got none")
			}
			for _, s := range tc.want {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not mention %q", err, s)
				}
			}
		})
	}
}
