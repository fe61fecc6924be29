package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     string // flags given on the command line, space-separated
		arrival bool
		table   int
		sweep   bool
		all     bool
		wantErr string // substring, "" = valid
	}{
		{name: "no flags"},
		{name: "table 2", set: "table", table: 2},
		{name: "ci load test", set: "arrival arrival-n arrival-rounds workers", arrival: true},
		{name: "every load-test flag", arrival: true,
			set: "arrival arrival-n arrival-k arrival-rounds arrival-proto arrival-on arrival-off arrival-hotspot arrival-sla arrival-seed workers"},
		{name: "load test with recorder", set: "arrival health dump-dir", arrival: true},
		{name: "table 3 sinks", set: "table selfstab metrics timing health dump-dir", table: 3},
		{name: "all with sinks", set: "all selfstab metrics timing health", all: true},
		{name: "table 2 ignores load test and selfstab",
			set: "table arrival-on arrival-sla workers selfstab", table: 2, wantErr: "-arrival-on needs -arrival"},
		{name: "workers without arrival", set: "table workers", table: 3, wantErr: "-workers needs -arrival"},
		{name: "arrival seed without arrival", set: "sweep arrival-seed", sweep: true, wantErr: "-arrival-seed needs -arrival"},
		{name: "selfstab on load test", set: "arrival selfstab", arrival: true, wantErr: "-selfstab needs -table 3 or -all"},
		{name: "metrics on sweep", set: "sweep metrics", sweep: true, wantErr: "-metrics needs -table 3"},
		{name: "timing on table 2", set: "table timing", table: 2, wantErr: "-timing needs -table 3"},
		{name: "health on sweep", set: "sweep health", sweep: true, wantErr: "-health needs -arrival or -table 3 or -all"},
		{name: "dump-dir on claims", set: "claims dump-dir", wantErr: "-dump-dir needs -arrival or -table 3 or -all"},
		{name: "seeds on table 3", set: "table seeds", table: 3},
		{name: "seeds on sweep", set: "sweep seeds", sweep: true},
		{name: "smoke: all with seeds", set: "all seeds", all: true},
		{name: "seeds on load test", set: "arrival seeds", arrival: true, wantErr: "-seeds needs -table 3 or -all or -sweep"},
		{name: "seeds on table 2", set: "table seeds", table: 2, wantErr: "-seeds needs -table 3 or -all or -sweep"},
		{name: "seeds on claims", set: "claims seeds", wantErr: "-seeds needs -table 3 or -all or -sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := make(map[string]bool)
			for _, f := range strings.Fields(tc.set) {
				set[f] = true
			}
			err := validateFlags(set, tc.arrival, tc.table, tc.sweep, tc.all)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestModeFlagsAreDefined keeps modeFlags in step with main's flag set: a
// misspelt name there would never match and so never be rejected.
func TestModeFlagsAreDefined(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([^"]+)"`).FindAllSubmatch(src, -1) {
		defined[string(m[1])] = true
	}
	for _, m := range modeFlags {
		for _, name := range m.flags {
			if !defined[name] {
				t.Errorf("modeFlags names -%s, which main.go does not define", name)
			}
		}
	}
}
