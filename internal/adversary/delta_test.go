package adversary

import (
	"math"
	"testing"

	"repro/internal/ctvg"
	"repro/internal/xrand"
)

// Delta equivalence: recording an adversary through the delta path must
// reproduce the snapshot path exactly — same graphs, same hierarchies, same
// stability windows — for churn-free and churny configurations, in both
// memoised and forward-only (streaming) modes, and whether the deltas come
// from the native WindowDelta implementation or the generic diff fallback.

func hiNetPair(cfg HiNetConfig, seed uint64) (*HiNet, *HiNet) {
	return NewHiNet(cfg, xrand.New(seed)), NewHiNet(cfg, xrand.New(seed))
}

func checkCTVGEqual(t *testing.T, dt *ctvg.DeltaTrace, tr *ctvg.Trace, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		if !dt.At(r).Equal(tr.At(r)) {
			t.Fatalf("round %d: snapshot mismatch", r)
		}
		if !dt.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
			t.Fatalf("round %d: hierarchy mismatch", r)
		}
		ds, ts := dt.StableUntil(r), tr.StableUntil(r)
		if ds != ts && !(ds == math.MaxInt && ts >= rounds-1) {
			t.Fatalf("round %d: StableUntil %d, want %d", r, ds, ts)
		}
	}
}

func TestHiNetDeltaRecordingMatchesSnapshots(t *testing.T) {
	configs := []struct {
		name   string
		cfg    HiNetConfig
		rounds int
	}{
		{"stable", HiNetConfig{N: 60, Theta: 12, L: 2, T: 6, Reaffiliations: 4, HeadChurn: 2}, 30},
		{"churny", HiNetConfig{N: 40, Theta: 8, L: 3, T: 5, Reaffiliations: 3, HeadChurn: 1, ChurnEdges: 6}, 25},
		{"flat-l1", HiNetConfig{N: 30, Theta: 6, L: 1, T: 4, Reaffiliations: 2, ChurnEdges: 2}, 16},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			snap, delt := hiNetPair(tc.cfg, 7)
			tr := ctvg.Record(snap, tc.rounds)
			dt := ctvg.RecordDeltas(delt, tc.rounds)
			checkCTVGEqual(t, dt, tr, tc.rounds)
			if err := dt.Validate(); err != nil {
				t.Fatalf("delta trace fails model validation: %v", err)
			}
		})
	}
}

// TestHiNetForwardOnlyDeltaRecording records a forward-only HiNet, whose
// phases and churny rounds reuse the storage of discarded ones, over at
// least three phases with and without churn, and compares it with the
// snapshot recording of a memoising twin. The recorded base must be a deep
// copy (phase 0's storage is reused by phase 2), and a run of phases that
// change nothing must not make RecordDeltas ask for a recycled phase.
func TestHiNetForwardOnlyDeltaRecording(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    HiNetConfig
		rounds int
	}{
		{"churny", HiNetConfig{N: 40, Theta: 8, L: 2, T: 5, Reaffiliations: 3, HeadChurn: 1, ChurnEdges: 4}, 35},
		{"stable", HiNetConfig{N: 40, Theta: 8, L: 3, T: 4, Reaffiliations: 3, HeadChurn: 2}, 24},
		{"t1-churny", HiNetConfig{N: 30, Theta: 6, L: 2, T: 1, Reaffiliations: 2, ChurnEdges: 3}, 12},
		{"t1-stable", HiNetConfig{N: 30, Theta: 6, L: 2, T: 1, Reaffiliations: 2, HeadChurn: 1}, 12},
		// Every phase equals phase 0, so RecordDeltas records one window.
		{"identical-phases", HiNetConfig{N: 30, Theta: 6, L: 2, T: 3}, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, delt := hiNetPair(tc.cfg, 11)
			tr := ctvg.Record(snap, tc.rounds)
			dt := ctvg.RecordDeltas(delt.ForwardOnly(), tc.rounds)
			checkCTVGEqual(t, dt, tr, tc.rounds)
			if got := delt.Stats().Phases; got < 3 {
				t.Fatalf("recorded %d phases, want at least 3", got)
			}
		})
	}
}

// TestHiNetNativeDeltasMatchGenericDiff pins the native WindowDelta algebra
// against the generic snapshot diff: for every recorded window transition
// the two must produce the same delta.
func TestHiNetNativeDeltasMatchGenericDiff(t *testing.T) {
	cfg := HiNetConfig{N: 50, Theta: 10, L: 2, T: 4, Reaffiliations: 5, HeadChurn: 2, ChurnEdges: 5}
	a, b := hiNetPair(cfg, 3)
	const rounds = 24
	// Record b through a shim that hides the DeltaSource, forcing the
	// generic DeltaBetween fallback.
	type dynOnly struct{ ctvg.Dynamic }
	generic := ctvg.RecordDeltas(dynOnly{b}, rounds)
	native := ctvg.RecordDeltas(a, rounds)
	if gw, nw := generic.Windows(), native.Windows(); gw != nw {
		t.Fatalf("window count: native %d, generic %d", nw, gw)
	}
	ge, gr := generic.Changes()
	ne, nr := native.Changes()
	if ge != ne || gr != nr {
		t.Fatalf("changes: native (%d edges, %d roles), generic (%d edges, %d roles)", ne, nr, ge, gr)
	}
	checkCTVGEqual(t, native, ctvg.Record(NewHiNet(cfg, xrand.New(3)), rounds), rounds)
}

// TestTIntervalStableUntil pins the new Stability implementation: aligned
// window ends without churn, per-round freshness with churn.
func TestTIntervalStableUntil(t *testing.T) {
	pure := NewTInterval(10, 4, 0, xrand.New(1))
	for _, tc := range []struct{ r, want int }{{0, 3}, {3, 3}, {4, 7}, {10, 11}} {
		if got := pure.StableUntil(tc.r); got != tc.want {
			t.Fatalf("pure StableUntil(%d) = %d, want %d", tc.r, got, tc.want)
		}
	}
	churny := NewTInterval(10, 4, 2, xrand.New(1))
	if got := churny.StableUntil(5); got != 5 {
		t.Fatalf("churny StableUntil(5) = %d, want 5", got)
	}
}
