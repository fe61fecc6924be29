package main

import (
	"fmt"
	"math"

	"repro/internal/adversary"
)

// validateFlags rejects numeric flag values that would otherwise reach the
// engine as undefined behaviour: a NaN or negative -drop probability (the
// injector's comparisons would silently never or always fire), a -drop
// above 1 (same), a NaN or negative -arrival rate (the Poisson sampler
// would spin or inject nothing while looking armed), and a zero or
// negative -stall-window given explicitly (0 only means "watchdog off"
// as the untouched default; asking for it is a misconfiguration).
// stallSet reports whether -stall-window appeared on the command line.
func validateFlags(drop, arrival float64, stallWindow int, stallSet bool) error {
	if math.IsNaN(drop) || drop < 0 || drop > 1 {
		return fmt.Errorf("-drop: loss probability must be in [0, 1] (got %v)", drop)
	}
	if math.IsNaN(arrival) || arrival < 0 {
		return fmt.Errorf("-arrival: rate must be a non-negative number of tokens per round (got %v)", arrival)
	}
	if stallWindow < 0 || (stallSet && stallWindow == 0) {
		return fmt.Errorf("-stall-window: window must be a positive round count (got %d); omit the flag to disable the watchdog", stallWindow)
	}
	return nil
}

// checkHiNet rejects a HiNet scenario whose flags the adversary cannot
// build (too few nodes for -theta heads at -l hops, a -theta above -n),
// naming those flags, before adversary.NewHiNet would panic on it.
func checkHiNet(cfg adversary.HiNetConfig) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("-n %d, -theta %d, -l %d: %w", cfg.N, cfg.Theta, cfg.L, err)
	}
	return nil
}
