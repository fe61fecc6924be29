package hinet_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/hinet"
	"repro/internal/xrand"
)

// Example machine-checks a generated network against the (T, L)-HiNet
// model (Definition 8) and then asks the probe what model the network
// actually satisfies.
func Example() {
	// The adversary generates each round once; the checks read a recording.
	net := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: 30, Theta: 5, L: 2, T: 6, Reaffiliations: 2, ChurnEdges: 3,
	}, xrand.New(11)), 18)

	err := hinet.Model{T: 6, L: 2}.Check(net, 3)
	fmt.Println("claimed (6, 2)-HiNet:", err == nil)

	err = hinet.Model{T: 6, L: 1}.Check(net, 3)
	fmt.Println("claimed (6, 1)-HiNet:", err == nil)
	// Output:
	// claimed (6, 2)-HiNet: true
	// claimed (6, 1)-HiNet: false
}

// ExampleProbe infers the stability parameters of a recorded network.
func ExampleProbe() {
	net := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
		N: 30, Theta: 5, L: 2, T: 6, Reaffiliations: 2, ChurnEdges: 0,
	}, xrand.New(11)), 18)
	rep := hinet.Probe(net, 18)
	fmt.Println(rep)
	// Output:
	// probe over 18 rounds: (6, 2)-HiNet with ∞-interval stable head set (Remark 1 applies); n_m≈21, measured n_r=0.14
}
