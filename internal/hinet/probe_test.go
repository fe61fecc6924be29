package hinet

import (
	"strings"
	"testing"

	"repro/internal/ctvg"
	"repro/internal/graph"
)

func TestProbeStableTrace(t *testing.T) {
	tr := stableTrace(12)
	rep := Probe(tr, 12)
	if !rep.Valid {
		t.Fatalf("valid trace reported invalid: %v", rep)
	}
	if rep.MaxStableT != 12 {
		t.Fatalf("MaxStableT = %d, want 12 (fully stable)", rep.MaxStableT)
	}
	if rep.MinL != 2 {
		t.Fatalf("MinL = %d, want 2 (heads two hops apart)", rep.MinL)
	}
	if !rep.HeadSetForever {
		t.Fatal("head set is constant but not reported forever-stable")
	}
	if !strings.Contains(rep.String(), "(12, 2)-HiNet") {
		t.Fatalf("String: %s", rep)
	}
	if !strings.Contains(rep.String(), "Remark 1") {
		t.Fatalf("String misses Remark 1: %s", rep)
	}
}

func TestProbeDetectsPhaseBoundary(t *testing.T) {
	// Stable for rounds 0-5, membership changes at round 6, stable 6-11:
	// aligned windows of T=6 are stable; T in 7..12 are not.
	gs, hs := stableRounds(12)
	for r := 6; r < 12; r++ {
		gs[r].AddEdge(0, 6)
		hs[r].SetMember(6, 0)
	}
	tr := ctvg.NewTrace(gs, hs)
	rep := Probe(tr, 12)
	if rep.MaxStableT != 6 {
		t.Fatalf("MaxStableT = %d, want 6", rep.MaxStableT)
	}
	if !rep.HeadSetForever {
		t.Fatal("head set unchanged; should be forever-stable")
	}
}

func TestProbeInvalidRound(t *testing.T) {
	gs, hs := stableRounds(6)
	gs[3].RemoveEdge(0, 1) // member 1 loses its head adjacency
	tr := ctvg.NewTrace(gs, hs)
	rep := Probe(tr, 6)
	if rep.Valid || rep.InvalidRound != 3 {
		t.Fatalf("invalid round not detected: %+v", rep)
	}
	if !strings.Contains(rep.String(), "INVALID") {
		t.Fatalf("String: %s", rep)
	}
}

func TestProbeDisconnectedHeads(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	h := ctvg.NewHierarchy(4)
	h.SetHead(0)
	h.SetHead(2)
	h.SetMember(1, 0)
	h.SetMember(3, 2)
	tr := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	rep := Probe(tr, 1)
	if rep.MinL != -1 {
		t.Fatalf("disconnected heads not flagged: %+v", rep)
	}
	if !strings.Contains(rep.String(), "not connected") {
		t.Fatalf("String: %s", rep)
	}
}

func TestProbeHeadChurn(t *testing.T) {
	gs, hs := stableRounds(8)
	// New head in the second half.
	for r := 4; r < 8; r++ {
		hs[r].SetHead(6)
		gs[r].AddEdge(6, 5) // keep 6 adjacent to something (not needed for validity)
	}
	tr := ctvg.NewTrace(gs, hs)
	rep := Probe(tr, 8)
	if rep.HeadSetForever {
		t.Fatal("head churn missed")
	}
	if rep.MaxStableT != 4 {
		t.Fatalf("MaxStableT = %d, want 4", rep.MaxStableT)
	}
}

func TestProbeChurnAccounting(t *testing.T) {
	// Stable trace: zero re-affiliations; 3 members and 1 gateway on
	// average (gateways do not count as members).
	tr := stableTrace(6)
	rep := Probe(tr, 6)
	if rep.Reaffiliations != 0 || rep.MeasuredNR != 0 {
		t.Fatalf("stable trace shows churn: %+v", rep)
	}
	if rep.AvgMembers != 3 {
		t.Fatalf("AvgMembers = %f, want 3 (members 1, 2, 5)", rep.AvgMembers)
	}

	// Move member 5 from cluster 4 to cluster 0 at round 3: exactly one
	// re-affiliation event.
	gs, hs := stableRounds(6)
	for r := 3; r < 6; r++ {
		gs[r].AddEdge(0, 5)
		hs[r].SetMember(5, 0)
	}
	tr2 := ctvg.NewTrace(gs, hs)
	rep2 := Probe(tr2, 6)
	if rep2.Reaffiliations != 1 {
		t.Fatalf("Reaffiliations = %d, want 1", rep2.Reaffiliations)
	}
	if rep2.MeasuredNR <= 0 || rep2.MeasuredNR > 1 {
		t.Fatalf("MeasuredNR = %f", rep2.MeasuredNR)
	}
}

func TestProbeBackboneFragility(t *testing.T) {
	// The two-cluster backbone 0-3-4 is a path: both edges are bridges
	// and the gateway 3 is a cut node.
	tr := stableTrace(6)
	rep := Probe(tr, 6)
	if rep.BackboneBridges < 2 {
		t.Fatalf("BackboneBridges = %d, want >= 2", rep.BackboneBridges)
	}
	if rep.BackboneCutNodes < 1 {
		t.Fatalf("BackboneCutNodes = %d, want >= 1", rep.BackboneCutNodes)
	}
}

func TestProbeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Probe(stableTrace(2), 0)
}
