// Path harvesting — the paper's Section 6.1 future-work extension: apply
// WALK-ESTIMATE's estimate-and-reject correction to every node along each
// forward walk instead of only the final one, amortizing the walk cost
// across several samples. This example compares plain WALK-ESTIMATE against
// the harvesting variant at equal sample counts.
//
// Run with: go run ./examples/harvest
package main

import (
	"fmt"
	"log"
	"math/rand"

	wnw "repro"
)

func main() {
	rng := rand.New(rand.NewSource(21))
	g := wnw.NewBarabasiAlbert(8000, 5, rng)
	net := wnw.NewNetwork(g)
	truth := g.AvgDegree()
	fmt.Printf("network: %d nodes, %d edges, true AVG degree %.3f\n\n",
		g.NumNodes(), g.NumEdges(), truth)

	const samples = 200
	cfg := wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      0,
		WalkLength: 2*g.EstimateDiameter(4, rng) + 1,
		UseCrawl:   true,
		CrawlHops:  2,
	}

	// Plain WALK-ESTIMATE: one candidate per forward walk.
	cPlain := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	plain, err := wnw.NewWalkEstimate(cPlain, cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	plainRes, err := plain.SampleN(samples)
	if err != nil {
		log.Fatal(err)
	}
	plainEst, err := wnw.EstimateMean(cPlain, cfg.Design, wnw.AttrDegree, plainRes.Nodes)
	if err != nil {
		log.Fatal(err)
	}

	// Harvesting: every step past the midpoint is a candidate.
	cHarv := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	harv, err := wnw.NewHarvestSampler(cHarv, cfg, 0, rng)
	if err != nil {
		log.Fatal(err)
	}
	harvRes, err := harv.SampleN(samples)
	if err != nil {
		log.Fatal(err)
	}
	harvEst, err := wnw.EstimateMean(cHarv, cfg.Design, wnw.AttrDegree, harvRes.Nodes)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %10s %12s %12s %12s\n", "sampler", "queries", "walk-steps", "AVG-degree", "rel-error")
	fmt.Printf("%-12s %10d %12d %12.3f %12.4f\n", "WE",
		cPlain.Queries(), plain.TotalSteps(), plainEst, wnw.RelativeError(plainEst, truth))
	fmt.Printf("%-12s %10d %12d %12.3f %12.4f\n", "WE-Harvest",
		cHarv.Queries(), harv.TotalSteps(), harvEst, wnw.RelativeError(harvEst, truth))

	fmt.Printf("\nharvest acceptance rate %.3f (plain: %.3f)\n",
		harv.AcceptanceRate(), plain.AcceptanceRate())
	fmt.Println("harvested samples share forward paths, so they are mildly correlated —")
	fmt.Println("check the effective sample size before trusting tight error bars:")

	vals := make([]float64, harvRes.Len())
	for i, v := range harvRes.Nodes {
		vals[i] = float64(g.Degree(v))
	}
	ess, err := wnw.EffectiveSampleSize(vals, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nominal %d samples, effective %.0f\n", harvRes.Len(), ess)
}
