package adversary_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	hinetmodel "repro/internal/hinet"
	"repro/internal/xrand"
)

// Example builds a (T, L)-HiNet adversary and verifies — rather than
// assumes — that the generated network satisfies the model it claims. The
// adversary generates its rounds once, in order, so the checker reads a
// recording of it.
func Example() {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 40, Theta: 6, L: 2, T: 8,
		Reaffiliations: 2,
		ChurnEdges:     5,
	}, xrand.New(3))
	net := ctvg.Recording(adv)

	err := hinetmodel.Model{T: 8, L: 2}.CheckValid(net, 4)
	fmt.Println("is a (8, 2)-HiNet over 4 phases:", err == nil)

	h := net.HierarchyAt(0)
	fmt.Println("heads per phase:", len(h.Heads()))
	// Output:
	// is a (8, 2)-HiNet over 4 phases: true
	// heads per phase: 6
}
