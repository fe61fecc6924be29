package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/graph"
	hinetmodel "repro/internal/hinet"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// The ablation suite measures the design choices DESIGN.md calls out:
// the member-receive filter (Promiscuous), the Remark 1 upload
// suppression (covered in alg1_test.go), and the strict-hypothesis
// sensitivity of Theorem 1.

func TestPromiscuousAbsorbsForeignRelay(t *testing.T) {
	// Same topology as TestAlg1MemberIgnoresForeignHeads: member 2 is
	// affiliated to head 0 but adjacent to head 1 which holds the token.
	// With the ablation on, node 2 must learn it.
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	h := ctvg.NewHierarchy(3)
	h.SetHead(0)
	h.SetHead(1)
	h.SetMember(2, 0)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	assign := token.SingleSource(3, 1, 1)
	nodes := Alg1{T: 4, Promiscuous: true}.Nodes(assign)
	sim.MustRun(d, nodes, assign, sim.Options{MaxRounds: 8})
	if !nodes[2].Tokens().Contains(0) {
		t.Fatal("promiscuous member did not overhear the foreign head")
	}
}

func TestPromiscuousNeverSlower(t *testing.T) {
	// Ablation claim: overhearing can only help completion time. It is not
	// free: a promiscuous member puts a foreign relay's token in TA and not
	// in TR, so it uploads that token to its own head, and its run sends at
	// least as many upload tokens as the strict one. Verified across seeds
	// on the standard HiNet point.
	k, alpha := 6, 2
	cfg := adversary.HiNetConfig{
		N: 40, Theta: 6, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 3,
		ChurnEdges:     8, // churn edges create member-to-foreign-relay adjacencies
	}
	phases := Theorem1Phases(cfg.Theta, alpha)
	for seed := uint64(0); seed < 6; seed++ {
		run := func(prom bool) *sim.Metrics {
			adv := adversary.NewHiNet(cfg, xrand.New(seed))
			assign := token.Spread(cfg.N, k, xrand.New(seed+1))
			return sim.MustRunProtocol(adv, Alg1{T: cfg.T, Promiscuous: prom}, assign,
				sim.Options{MaxRounds: phases * cfg.T})
		}
		strict := run(false)
		prom := run(true)
		if !strict.Complete || !prom.Complete {
			t.Fatalf("seed %d: incomplete (strict=%v prom=%v)", seed, strict, prom)
		}
		if prom.CompletionRound > strict.CompletionRound {
			t.Fatalf("seed %d: promiscuous slower (%d vs %d)",
				seed, prom.CompletionRound, strict.CompletionRound)
		}
		if up, strictUp := prom.TokensByKind[sim.KindUpload], strict.TokensByKind[sim.KindUpload]; up < strictUp {
			t.Fatalf("seed %d: promiscuous members uploaded %d tokens, fewer than strict ones (%d)", seed, up, strictUp)
		}
	}
}

func TestTheorem1HypothesisSensitivity(t *testing.T) {
	// Failure injection: run Algorithm 1 with a phase length smaller than
	// the Theorem 1 requirement on an adversary whose hierarchy changes
	// at that faster cadence. The model checker must reject the (T_req,
	// L) claim for this network — the theorem's hypothesis machinery
	// catches the violation rather than silently mis-promising.
	k, alpha, L := 6, 2, 2
	Treq := Theorem1T(k, alpha, L) // 10
	Tshort := Treq / 2             // 5-round hierarchy stability only
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 40, Theta: 6, L: L, T: Tshort,
		Reaffiliations: 3, ChurnEdges: 5,
	}, xrand.New(3))
	// Claiming T=Treq stability over this network must fail.
	if err := (hinetmodel.Model{T: Treq, L: L}).Check(adv, 2); err == nil {
		t.Fatal("model checker accepted an under-stable network")
	}
}

func TestAlg1FailsWithoutBackbone(t *testing.T) {
	// Hard negative: two clusters with NO gateway path between the heads.
	// Algorithm 1 can never move the token across, and the model checker
	// flags the missing head connectivity.
	g := graph.New(4)
	g.AddEdge(0, 1) // head 0 + member 1
	g.AddEdge(2, 3) // head 2 + member 3
	h := ctvg.NewHierarchy(4)
	h.SetHead(0)
	h.SetHead(2)
	h.SetMember(1, 0)
	h.SetMember(3, 2)
	d := ctvg.NewTrace([]*graph.Graph{g}, []*ctvg.Hierarchy{h})
	if err := (hinetmodel.Model{T: 4, L: 2}).Check(d, 1); err == nil {
		t.Fatal("checker accepted a backbone-less network")
	}
	assign := token.SingleSource(4, 1, 1)
	met := sim.MustRunProtocol(d, Alg1{T: 4}, assign, sim.Options{MaxRounds: 40})
	if met.Complete {
		t.Fatal("dissemination completed across a permanently partitioned backbone")
	}
}

func TestUploadLowFirstStillCompletes(t *testing.T) {
	// Correctness does not depend on the upload order — only efficiency.
	k, alpha := 6, 2
	cfg := adversary.HiNetConfig{
		N: 40, Theta: 6, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 3, ChurnEdges: 5,
	}
	phases := Theorem1Phases(cfg.Theta, alpha)
	for seed := uint64(0); seed < 4; seed++ {
		adv := adversary.NewHiNet(cfg, xrand.New(seed))
		assign := token.Spread(cfg.N, k, xrand.New(seed+1))
		m := sim.MustRunProtocol(adv, Alg1{T: cfg.T, UploadLowFirst: true}, assign,
			sim.Options{MaxRounds: phases * cfg.T, StopWhenComplete: true})
		if !m.Complete {
			t.Fatalf("seed %d: low-first upload broke completion: %v", seed, m)
		}
	}
}

// wastedUploads counts upload tokens the addressed head already knew —
// the redundancy the paper's max-ID rule is designed to avoid.
func wastedUploads(t *testing.T, lowFirst bool, seed uint64) int {
	t.Helper()
	k, alpha := 8, 2
	cfg := adversary.HiNetConfig{
		N: 40, Theta: 6, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 4, ChurnEdges: 5,
	}
	phases := Theorem1Phases(cfg.Theta, alpha)
	adv := adversary.NewHiNet(cfg, xrand.New(seed))
	assign := token.Spread(cfg.N, k, xrand.New(seed+1))
	nodes := Alg1{T: cfg.T, UploadLowFirst: lowFirst}.Nodes(assign)
	wasted := 0
	obs := &sim.Observer{Sent: func(r int, m *sim.Message) {
		if m.Kind != sim.KindUpload || m.To < 0 {
			return
		}
		if m.Tokens.SubsetOf(nodes[m.To].Tokens()) {
			wasted++
		}
	}}
	sim.MustRun(adv, nodes, assign, sim.Options{MaxRounds: phases * cfg.T, Observer: obs})
	return wasted
}

func TestUploadOrderAblationMaxWastesLess(t *testing.T) {
	// Aggregated over seeds, the paper's max-first rule should waste no
	// more uploads than the min-first ablation (heads broadcast
	// min-first, so min-first uploads collide with the head's own
	// direction of progress).
	var maxWaste, minWaste int
	for seed := uint64(0); seed < 6; seed++ {
		maxWaste += wastedUploads(t, false, seed)
		minWaste += wastedUploads(t, true, seed)
	}
	t.Logf("wasted uploads: max-first=%d min-first=%d", maxWaste, minWaste)
	if maxWaste > minWaste {
		t.Fatalf("paper's max-first rule wasted more uploads (%d) than min-first (%d)",
			maxWaste, minWaste)
	}
}

func BenchmarkAblationUploadOrder(b *testing.B) {
	k, alpha := 8, 5
	cfg := adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 5, ChurnEdges: 10,
	}
	phases := Theorem1Phases(cfg.Theta, alpha)
	for _, low := range []bool{false, true} {
		name := "max-first(paper)"
		if low {
			name = "min-first(ablation)"
		}
		b.Run(name, func(b *testing.B) {
			var uploads int64
			for i := 0; i < b.N; i++ {
				adv := adversary.NewHiNet(cfg, xrand.New(uint64(i)))
				assign := token.Spread(cfg.N, k, xrand.New(uint64(i)+1))
				m := sim.MustRunProtocol(adv, Alg1{T: cfg.T, UploadLowFirst: low}, assign,
					sim.Options{MaxRounds: phases * cfg.T})
				uploads += m.TokensByKind[sim.KindUpload]
			}
			b.ReportMetric(float64(uploads)/float64(b.N), "upload-tokens")
		})
	}
}

func BenchmarkAblationMemberFilter(b *testing.B) {
	// Paper design (strict member filter) vs ablation (promiscuous).
	k, alpha := 8, 5
	cfg := adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 3, ChurnEdges: 10,
	}
	phases := Theorem1Phases(cfg.Theta, alpha)
	for _, prom := range []bool{false, true} {
		name := "strict"
		if prom {
			name = "promiscuous"
		}
		b.Run(name, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				adv := adversary.NewHiNet(cfg, xrand.New(uint64(i)))
				assign := token.Spread(cfg.N, k, xrand.New(uint64(i)+1))
				m := sim.MustRunProtocol(adv, Alg1{T: cfg.T, Promiscuous: prom}, assign,
					sim.Options{MaxRounds: phases * cfg.T, StopWhenComplete: true})
				rounds += int64(m.CompletionRound)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "completion-rounds")
		})
	}
}

func BenchmarkAblationStableHeads(b *testing.B) {
	// Remark 1 upload suppression vs plain Algorithm 1 under churn.
	k, alpha := 8, 5
	cfg := adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2,
		T:              Theorem1T(k, alpha, 2),
		Reaffiliations: 10, ChurnEdges: 10,
	}
	phases := Theorem1Phases(cfg.Theta, alpha)
	for _, stable := range []bool{false, true} {
		name := "plain"
		if stable {
			name = "remark1"
		}
		b.Run(name, func(b *testing.B) {
			var uploads int64
			for i := 0; i < b.N; i++ {
				adv := adversary.NewHiNet(cfg, xrand.New(uint64(i)))
				assign := token.Spread(cfg.N, k, xrand.New(uint64(i)+1))
				m := sim.MustRunProtocol(adv, Alg1{T: cfg.T, StableHeads: stable}, assign,
					sim.Options{MaxRounds: phases * cfg.T})
				uploads += m.TokensByKind[sim.KindUpload]
			}
			b.ReportMetric(float64(uploads)/float64(b.N), "upload-tokens")
		})
	}
}
