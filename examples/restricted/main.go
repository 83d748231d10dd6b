// Access restrictions in the wild (paper Section 6.3.1): what happens to a
// crawler when the platform returns only k random neighbors per call
// (type 1), a fixed random k-subset (type 2), or the first l neighbors
// (type 3, Twitter's 5000 cap) — and how mark-recapture recovers true
// degrees, and the bidirectional edge check recovers a safely traversable
// subgraph.
//
// Run with: go run ./examples/restricted
package main

import (
	"fmt"
	"log"
	"math/rand"

	wnw "repro"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	g := wnw.NewBarabasiAlbert(2000, 6, rng)
	hub := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	fmt.Printf("graph: %d nodes, %d edges; hub node %d has true degree %d\n\n",
		g.NumNodes(), g.NumEdges(), hub, g.Degree(hub))

	// Type 1: fresh random k per invocation. Degree is not directly
	// observable; Petersen mark-recapture estimates it from overlaps.
	net1 := wnw.NewNetwork(g, wnw.WithRestriction(wnw.RandomK{K: 40}))
	c1 := wnw.NewClient(net1, wnw.CostUniqueNodes, rng)
	visible := len(c1.Neighbors(hub))
	est, err := wnw.EstimateDegreeMarkRecapture(c1, hub, 300)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("type 1 (RandomK 40): visible %d per call; mark-recapture degree estimate %.1f\n",
		visible, est)

	// Type 2: fixed random k-subset. Stable but permanently partial.
	net2 := wnw.NewNetwork(g, wnw.WithRestriction(wnw.FixedK{K: 40, Seed: 9}))
	c2 := wnw.NewClient(net2, wnw.CostUniqueNodes, rng)
	a := c2.Neighbors(hub)
	b := c2.Neighbors(hub)
	same := len(a) == len(b)
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	fmt.Printf("type 2 (FixedK 40): repeat calls identical: %v\n", same)

	// Type 3: truncation. The paper's bidirectional check keeps only edges
	// visible from both endpoints, shrinking the traversable graph.
	net3 := wnw.NewNetwork(g, wnw.WithRestriction(wnw.TruncateL{L: 50}))
	c3 := wnw.NewClient(net3, wnw.CostUniqueNodes, rng)
	kept, dropped := 0, 0
	for _, w := range g.Neighbors(hub) {
		if c3.EdgeVisible(hub, int(w)) {
			kept++
		} else {
			dropped++
		}
	}
	fmt.Printf("type 3 (TruncateL 50): hub edges traversable after bidirectional check: %d kept, %d dropped\n\n",
		kept, dropped)

	// Sampling still works under truncation: SRW and WE both operate on
	// the visible graph; their efficiency comparison is unchanged.
	c4 := wnw.NewClient(net3, wnw.CostUniqueNodes, rng)
	s, err := wnw.NewWalkEstimate(c4, wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      hub,
		WalkLength: 2*g.Diameter() + 1,
		UseCrawl:   true,
		CrawlHops:  2,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.SampleN(60)
	if err != nil {
		log.Fatal(err)
	}
	estDeg, err := wnw.EstimateMean(c4, wnw.SimpleRandomWalk(), wnw.AttrDegree, res.Nodes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WE under truncation: 60 samples, %d queries, visible-AVG-degree estimate %.2f\n",
		c4.Queries(), estDeg)
	fmt.Println("(the estimate targets the *visible* graph's average degree — the paper's")
	fmt.Println(" point is that restrictions affect SRW and WE alike, so WE's savings survive)")

	// Rate limits: simulate Twitter's 15 requests / 15 minutes.
	net5 := wnw.NewNetwork(g, wnw.WithRateLimit(15, 15*60*1e9))
	c5 := wnw.NewClient(net5, wnw.CostUniqueNodes, rng)
	for v := 0; v < 100; v++ {
		c5.Neighbors(v)
	}
	fmt.Printf("\nrate-limit simulation: 100 queries at 15/15min would stall a real crawler for %v\n",
		c5.Waited())
}
