// Convergence anatomy: why burn-in is expensive and what WALK-ESTIMATE does
// instead. This example computes, on a mid-sized scale-free graph, the exact
// burn-in length at several bias thresholds (via the full-topology oracle),
// the spectral gap, the length at which the Geweke heuristic actually stops,
// and the walk length + acceptance behaviour of WALK-ESTIMATE.
//
// Run with: go run ./examples/convergence
package main

import (
	"fmt"
	"log"
	"math/rand"

	wnw "repro"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	g := wnw.NewBarabasiAlbert(800, 4, rng)
	fmt.Printf("graph: %d nodes, %d edges, diameter %d\n\n", g.NumNodes(), g.NumEdges(), g.Diameter())

	// Oracle view: spectral gap and exact burn-in lengths of the lazy SRW.
	chain := wnw.Lazify(wnw.NewSRWMatrix(g), 0.01)
	pi, err := wnw.SRWStationary(g)
	if err != nil {
		log.Fatal(err)
	}
	gap, err := wnw.SpectralGap(chain, pi, 20000, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spectral gap (lazy SRW): %.5f\n", gap)

	th := wnw.Theorem1{Gamma: 1, Delta: 0.01, DMax: float64(g.MaxDegree()), Lambda: gap}
	if tOpt, err := th.TOpt(); err == nil {
		cRW, _ := th.RWCost()
		saving, _ := th.SavingBound()
		fmt.Printf("Theorem 1 (worst-case bounds): t_opt %.1f, plain-walk cost %.1f, guaranteed saving %.1f%%\n",
			tOpt, cRW, 100*saving)
	}

	// Geweke in practice: where does the heuristic stop?
	net := wnw.NewNetwork(g)
	c := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	res, err := wnw.ManyShortRuns(c, wnw.SimpleRandomWalk(), 0, 50, wnw.Geweke{Threshold: 0.1}, 5000, rng)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, s := range res.Steps {
		total += s
	}
	fmt.Printf("\nGeweke (Z<=0.1) stops after %.1f steps on average\n", float64(total)/float64(res.Len()))

	// WALK-ESTIMATE: a fixed short walk plus estimation instead of waiting.
	c2 := wnw.NewClient(net, wnw.CostUniqueNodes, rng)
	walkLen := 2*g.Diameter() + 1
	s, err := wnw.NewWalkEstimate(c2, wnw.WEConfig{
		Design:     wnw.SimpleRandomWalk(),
		Start:      0,
		WalkLength: walkLen,
		UseCrawl:   true,
		CrawlHops:  2,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	weRes, err := s.SampleN(50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WALK-ESTIMATE walks exactly %d steps per candidate, acceptance %.3f\n",
		walkLen, s.AcceptanceRate())
	fmt.Printf("per-sample walk work: WE %.1f steps (incl. backward) vs Geweke %.1f\n",
		float64(s.TotalSteps())/float64(weRes.Len()), float64(total)/float64(res.Len()))
	fmt.Printf("query cost for 50 samples: WE %d vs Geweke %d\n", c2.Queries(), c.Queries())

	// The punchline of Section 4.1: the distance to stationarity collapses
	// in the first few steps, then crawls. Print the exact profile.
	fmt.Println("\nexact l-inf distance to stationarity (walk from node 0):")
	p := make([]float64, g.NumNodes())
	p[0] = 1
	for t := 1; t <= 40; t++ {
		p = chain.Evolve(p, 1)
		worst := 0.0
		for v := range p {
			if d := abs(p[v] - pi[v]); d > worst {
				worst = d
			}
		}
		if t <= 10 || t%10 == 0 {
			fmt.Printf("  t=%-3d  %.2e\n", t, worst)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
