package tvg_test

import (
	"fmt"

	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/tvg"
)

// Example shows causal influence across a network that is never connected
// in any single round but mixes over time: the edge 0-1 exists only in
// round 0, the edge 1-2 only in round 1, yet node 0 influences node 2
// within two rounds.
func Example() {
	g0 := graph.New(3)
	g0.AddEdge(0, 1)
	g1 := graph.New(3)
	g1.AddEdge(1, 2)
	tr := ctvg.NewTrace([]*graph.Graph{g0, g1}, []*ctvg.Hierarchy{ctvg.NewHierarchy(3), ctvg.NewHierarchy(3)})

	times := tvg.InfluenceTimes(tr, 0, 0, 5)
	fmt.Println("influence times from node 0:", times)
	fmt.Println("1-interval connected:", tvg.AlwaysConnected(tr, 2))
	// Output:
	// influence times from node 0: [0 1 2]
	// 1-interval connected: false
}

// ExampleIntervalConnected checks the Kuhn–Lynch–Oshman T-interval
// property: a static connected graph satisfies it for every T.
func ExampleIntervalConnected() {
	s := tvg.Static{G: graph.Ring(5)}
	fmt.Println(tvg.IntervalConnected(s, 10, 20))
	// Output: true
}
