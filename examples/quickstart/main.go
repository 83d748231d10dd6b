// Quickstart: sample nodes from a simulated social network with
// WALK-ESTIMATE and estimate the average degree, comparing against the
// classical burn-in sampler at the same sample count.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	wnw "repro"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A scale-free network of 5000 users, hidden behind the restrictive
	// neighbors-only interface.
	g := wnw.NewBarabasiAlbert(5000, 5, rng)
	net := wnw.NewNetwork(g)
	fmt.Printf("network: %d nodes, %d edges, true AVG degree %.3f\n",
		g.NumNodes(), g.NumEdges(), g.AvgDegree())

	const samples = 150
	start := 0

	// Classical approach: simple random walk, waiting for the Geweke
	// convergence monitor before taking each sample.
	cSRW := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	srwRes, err := wnw.ManyShortRuns(cSRW, wnw.SimpleRandomWalk(), start,
		samples, wnw.Geweke{Threshold: 0.1}, 2000, rng)
	if err != nil {
		log.Fatal(err)
	}
	srwEst, err := wnw.EstimateMean(cSRW, wnw.SimpleRandomWalk(), wnw.AttrDegree, srwRes.Nodes)
	if err != nil {
		log.Fatal(err)
	}

	// WALK-ESTIMATE: walk 2·D̄+1 steps, estimate the landing probability
	// backward, accept/reject to the same degree-proportional target.
	cWE := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	sampler, err := wnw.NewWalkEstimate(cWE, wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      start,
		WalkLength: 2*g.EstimateDiameter(4, rng) + 1,
		UseCrawl:   true,
		CrawlHops:  2,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	weRes, err := sampler.SampleN(samples)
	if err != nil {
		log.Fatal(err)
	}
	weEst, err := wnw.EstimateMean(cWE, wnw.SimpleRandomWalk(), wnw.AttrDegree, weRes.Nodes)
	if err != nil {
		log.Fatal(err)
	}

	truth := g.AvgDegree()
	fmt.Printf("\n%-14s %10s %12s %10s\n", "sampler", "queries", "AVG-degree", "rel-error")
	fmt.Printf("%-14s %10d %12.3f %10.4f\n", "SRW+Geweke", cSRW.Queries(), srwEst, wnw.RelativeError(srwEst, truth))
	fmt.Printf("%-14s %10d %12.3f %10.4f\n", "WALK-ESTIMATE", cWE.Queries(), weEst, wnw.RelativeError(weEst, truth))
	fmt.Printf("\nWALK-ESTIMATE acceptance rate: %.3f\n", sampler.AcceptanceRate())
}
