package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/report"
)

// ClaimStatus classifies how a claim of the paper reproduced.
type ClaimStatus string

const (
	// StatusExact: our computation matches the published number exactly.
	StatusExact ClaimStatus = "exact"
	// StatusHolds: the claim (a bound or ordering) holds executably.
	StatusHolds ClaimStatus = "holds"
	// StatusShape: absolute numbers differ (different substrate) but the
	// ordering/factor the paper reports is reproduced.
	StatusShape ClaimStatus = "shape"
	// StatusDiscrepancy: the published number disagrees with the paper's
	// own formula; our value follows the formula.
	StatusDiscrepancy ClaimStatus = "discrepancy"
	// StatusFails: the claim is violated by an executable counterexample.
	StatusFails ClaimStatus = "fails"
)

// Claim is one quantitative statement of the paper with its reproduction
// status and the test or harness output backing it.
type Claim struct {
	ID        string
	Source    string // where in the paper
	Statement string
	Status    ClaimStatus
	Evidence  string // test names, repo paths or hinetbench commands
}

// Claims returns the full reproduction ledger. Statuses are backed by the
// test suite; TestClaimsLedgerConsistent cross-checks the cheap ones, and
// TestClaimsEvidenceExists checks that every test, path and hinetbench
// flag an Evidence field cites exists.
func Claims() []Claim {
	return []Claim{
		{
			ID: "T2-formulas", Source: "Table 2",
			Statement: "closed-form time/communication for all four model/algorithm pairs",
			Status:    StatusExact,
			Evidence:  "internal/analysis TestTable3ReproducesPaperNumbers; hinetbench -table 2",
		},
		{
			ID: "T3-kloT", Source: "Table 3 row 1",
			Statement: "(k+αL)-interval KLO: time 180, comm 8000",
			Status:    StatusExact,
			Evidence:  "analysis.Table3()[0]",
		},
		{
			ID: "T3-alg1", Source: "Table 3 row 2",
			Statement: "(k+αL, L)-HiNet: time 126, comm 4320",
			Status:    StatusExact,
			Evidence:  "analysis.Table3()[1]",
		},
		{
			ID: "T3-klo1", Source: "Table 3 row 3",
			Statement: "1-interval KLO: time 99, comm 79200",
			Status:    StatusExact,
			Evidence:  "analysis.Table3()[2]",
		},
		{
			ID: "T3-alg2", Source: "Table 3 row 4",
			Statement: "(1, L)-HiNet: time 99, comm 51680 (formula gives 50720 at nr=10)",
			Status:    StatusDiscrepancy,
			Evidence:  "analysis.Table3()[3]; EXPERIMENTS.md §Table 3",
		},
		{
			ID: "THM1", Source: "Theorem 1",
			Statement: "Algorithm 1 completes within ⌈θ/α⌉+1 phases of T=k+αL rounds on any (T, L)-HiNet",
			Status:    StatusHolds,
			Evidence:  "internal/core TestTheorem1CompletionWithinBound (+L3, +head churn variants)",
		},
		{
			ID: "RMK1", Source: "Remark 1",
			Statement: "∞-stable head set: members upload only in phase 0 and cost strictly drops",
			Status:    StatusHolds,
			Evidence:  "internal/core TestRemark1StableHeadsCompletes, TestRemark1ReducesMemberUploads",
		},
		{
			ID: "THM2", Source: "Theorem 2",
			Statement: "Algorithm 2 completes within n−1 rounds under 1-interval connectivity",
			Status:    StatusHolds,
			Evidence:  "internal/core TestTheorem2CompletionWithinNMinus1",
		},
		{
			ID: "THM3", Source: "Theorem 3",
			Statement: "Algorithm 2 completes within ⌈θ/α⌉+1 rounds under (αL)-interval head connectivity",
			Status:    StatusFails,
			Evidence:  "internal/core TestTheorem3BoundFailsOnChainBackbones (chain backbone counterexample; holds on constant-diameter backbones)",
		},
		{
			ID: "THM4", Source: "Theorem 4",
			Statement: "Algorithm 2 completes within θ·L+1 rounds under L-interval stable hierarchy",
			Status:    StatusHolds,
			Evidence:  "internal/core TestTheorem4StyleBoundWithStableHierarchy (tight on the chain counterexample)",
		},
		{
			ID: "L3", Source: "Section III.C",
			Statement: "in 1-hop clusterings the head connectivity bound L is at most 3",
			Status:    StatusHolds,
			Evidence:  "internal/cluster TestFormBackboneConnectsHeadsWithinL3; WCDS achieves L<=2 (TestWCDSAchievesL2)",
		},
		{
			ID: "HEADLINE", Source: "Section V / Conclusion",
			Statement: "hierarchical dissemination cuts communication by up to ~50% at similar or lower time cost",
			Status:    StatusShape,
			Evidence:  "hinetbench -table 3 (simulated: Alg1 −54% vs KLO-T, Alg2 −37% vs flooding)",
		},
		{
			ID: "NR-PREMISE", Source: "Section V",
			Statement: "the saving requires nr ≪ n0; it erodes (and analytically crosses over) as re-affiliation churn grows",
			Status:    StatusHolds,
			Evidence:  "hinetbench -sweep nr (analytic crossover at nr≈15); hinetbench -sweep mobility (the saving shrinks as the measured n_r rises with speed)",
		},
	}
}

// ClaimsTable renders the ledger.
func ClaimsTable() *report.Table {
	tb := report.NewTable("Reproduction ledger — every quantitative claim and its status",
		"id", "source", "status", "statement")
	for _, c := range Claims() {
		tb.AddRow(c.ID, c.Source, string(c.Status), c.Statement)
	}
	return tb
}

// VerifyCheapClaims recomputes the claims that are cheap to check inline
// (the exact analytic cells) and returns an error if the ledger has gone
// stale relative to the code.
func VerifyCheapClaims() error {
	rows := analysis.Table3()
	want := []analysis.Cost{
		{Time: 180, Comm: 8000},
		{Time: 126, Comm: 4320},
		{Time: 99, Comm: 79200},
		{Time: 99, Comm: 50720},
	}
	for i, w := range want {
		if rows[i].Cost != w {
			return fmt.Errorf("claims ledger stale: row %d computes %+v, ledger expects %+v",
				i, rows[i].Cost, w)
		}
	}
	return nil
}
