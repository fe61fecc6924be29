package main

import (
	"fmt"
	"strings"
)

// modeFlags lists the flags that only some modes read, with those modes:
// the load-test flags only -arrival, the Table 3 sinks and the emergent
// hierarchy only -table 3 (alone or through -all), the flight recorder
// both, and the replication count -table 3 and the sweeps.
var modeFlags = []struct {
	arrival, table3, sweep bool // the modes that read flags
	flags                  []string
}{
	{arrival: true, flags: []string{
		"arrival-n", "arrival-k", "arrival-rounds", "arrival-proto", "arrival-on",
		"arrival-off", "arrival-hotspot", "arrival-sla", "arrival-seed", "workers",
	}},
	{table3: true, flags: []string{"selfstab", "metrics", "timing"}},
	{arrival: true, table3: true, flags: []string{"health", "dump-dir"}},
	{table3: true, sweep: true, flags: []string{"seeds"}},
}

// validateFlags rejects a flag that the selected modes never read, so a
// misplaced option fails instead of being silently ignored. set holds the
// names of the flags given on the command line; arrival, table, sweep and
// all are the mode selectors' values (sweep: a -sweep was given).
func validateFlags(set map[string]bool, arrival bool, table int, sweep, all bool) error {
	table3 := table == 3 || all
	for _, m := range modeFlags {
		if m.arrival && arrival || m.table3 && table3 || m.sweep && (sweep || all) {
			continue
		}
		for _, name := range m.flags {
			if !set[name] {
				continue
			}
			var modes []string
			if m.arrival {
				modes = append(modes, "-arrival")
			}
			if m.table3 {
				modes = append(modes, "-table 3", "-all")
			}
			if m.sweep {
				modes = append(modes, "-sweep")
			}
			return fmt.Errorf("-%s needs %s", name, strings.Join(modes, " or "))
		}
	}
	return nil
}
