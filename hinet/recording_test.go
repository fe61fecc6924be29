package hinet_test

import (
	"fmt"
	"testing"

	"repro/hinet"
)

// The facade's networks record their generator as rounds are asked for,
// so they can be read again in any order. These cases pin each access
// pattern to the values the generators produced when they kept every
// round in memory instead.

func TestFacadeCheckThenRun(t *testing.T) {
	T := hinet.Theorem1T(8, 5, 2)
	net := hinet.NewHiNetNetwork(hinet.HiNetConfig{
		N: 100, Theta: 30, L: 2, T: T, Reaffiliations: 3, ChurnEdges: 10,
	}, 42)
	phases := hinet.Theorem1Phases(30, 5)
	if err := hinet.CheckModel(net, T, 2, phases); err != nil {
		t.Fatalf("model check: %v", err)
	}
	res := hinet.MustRun(net, hinet.Algorithm1(T), hinet.SpreadTokens(100, 8, 43), hinet.RunOptions{
		MaxRounds: phases * T, StopWhenComplete: true,
	})
	if got, want := fmt.Sprintf("%v %v", res, res.MessagesByKind), "rounds=25 msgs=900 tokens=900 complete@25 [0 16 884 0]"; got != want {
		t.Fatalf("run after the check: %s, want %s", got, want)
	}
}

func TestFacadeProbeThenLongerRun(t *testing.T) {
	net := hinet.NewHiNetNetwork(hinet.HiNetConfig{
		N: 40, Theta: 6, L: 2, T: 14, Reaffiliations: 2, ChurnEdges: 4,
	}, 5)
	rep := hinet.ProbeNetwork(net, 28)
	if got, want := rep.String(), "probe over 28 rounds: (14, 2)-HiNet with ∞-interval stable head set (Remark 1 applies); n_m≈29, measured n_r=0.07"; got != want {
		t.Fatalf("probe: %s, want %s", got, want)
	}
	// The run reads 98 rounds, 70 more than the probe recorded.
	res := hinet.MustRun(net, hinet.Algorithm1(14), hinet.SpreadTokens(40, 6, 6),
		hinet.RunOptions{MaxRounds: 7 * 14})
	if got, want := fmt.Sprintf("%v %v", res, res.MessagesByKind), "rounds=98 msgs=503 tokens=503 complete@14 [0 41 462 0]"; got != want {
		t.Fatalf("run after the probe: %s, want %s", got, want)
	}
}

func TestFacadeDynamicDiameterOneInterval(t *testing.T) {
	net := hinet.NewOneIntervalNetwork(12, 0, 2)
	if got := hinet.DynamicDiameter(net, 3, 11); got != 5 {
		t.Fatalf("dynamic diameter %d, want 5", got)
	}
	if got := hinet.DynamicDiameter(net, 1, 2); got != 3 {
		t.Fatalf("capped dynamic diameter %d, want 3", got)
	}
}

func TestFacadeMobilityRun(t *testing.T) {
	net := hinet.NewMobilityNetwork(hinet.MobilityConfig{
		N: 30, Field: hinet.Field{W: 60, H: 60}, Radius: 18,
		MinSpeed: 0.5, MaxSpeed: 2, EnsureConnected: true,
	}, 11)
	res := hinet.MustRun(net, hinet.Algorithm2(), hinet.SpreadTokens(30, 4, 12), hinet.RunOptions{
		MaxRounds: 120, StopWhenComplete: true,
	})
	if got, want := fmt.Sprintf("%v %v", res, res.MessagesByKind), "rounds=5 msgs=94 tokens=157 complete@5 [0 34 60 0]"; got != want {
		t.Fatalf("mobility run: %s, want %s", got, want)
	}
}

// TestFacadeUnchangingHiNet runs a HiNet whose phases never change (no
// re-affiliation, head churn or churn edges) to its full budget. Its
// network must answer StableUntil without searching for a change that
// never comes.
func TestFacadeUnchangingHiNet(t *testing.T) {
	const T = 10
	net := hinet.NewHiNetNetwork(hinet.HiNetConfig{N: 40, Theta: 6, L: 2, T: T}, 3)
	st, ok := net.(interface{ StableUntil(int) int })
	if !ok {
		t.Fatal("the network does not advertise its stability windows")
	}
	if got := st.StableUntil(0); got < T-1 {
		t.Fatalf("StableUntil(0) = %d, want at least %d", got, T-1)
	}
	res := hinet.MustRun(net, hinet.Algorithm1(T), hinet.SpreadTokens(40, 4, 4),
		hinet.RunOptions{MaxRounds: 50 * T})
	if res.Rounds != 50*T || !res.Complete {
		t.Fatalf("run: %v, want all %d rounds and completion", res, 50*T)
	}
}
