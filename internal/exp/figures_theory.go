package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/osn"
	"repro/internal/walk"
)

// Fig1 reproduces Figure 1: the minimum and maximum of the exact sampling
// distribution p_t over all nodes, as the walk length t grows from 1 to 80,
// on a Barabási–Albert network with 31 nodes and m = 3 (simple random walk
// from the max-degree node).
func Fig1(o Options) (Result, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	g := gen.BarabasiAlbert(31, 3, rng)
	m := linalg.NewSRW(g)
	const tmax = 80
	start := 0
	p := make([]float64, g.NumNodes())
	p[start] = 1
	next := make([]float64, g.NumNodes())
	minS := Series{Name: "Min Prob"}
	maxS := Series{Name: "Max Prob"}
	for t := 1; t <= tmax; t++ {
		m.EvolveInto(next, p)
		p, next = next, p
		lo, hi := linalg.MinMax(p)
		minS.Points = append(minS.Points, Point{X: float64(t), Y: lo})
		maxS.Points = append(maxS.Points, Point{X: float64(t), Y: hi})
	}
	return Result{
		Title:  "Figure 1: min/max sampling probability vs walk length (BA n=31, m=3, SRW)",
		XLabel: "walk-length",
		YLabel: "probability",
		Series: []Series{maxS, minS},
	}, nil
}

// caseStudyChain builds the uniform-target chain of the Section 4.2 case
// studies: MHRW on the model graph, lazified (footnote 1) so regular models
// are aperiodic.
func caseStudyChain(g interface {
	NumNodes() int
}, mhrw *linalg.Matrix) (*linalg.Matrix, []float64) {
	lazy := linalg.Lazify(mhrw, 0.01)
	return lazy, linalg.UniformStationary(g.NumNodes())
}

// Fig2 reproduces Figure 2: IDEAL-WALK's expected query cost per sample as a
// function of walk length (1..128), for the five theoretical graph models at
// ~31 nodes (hypercube: 32), uniform target distribution.
func Fig2(o Options) (Result, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	const tmax = 128
	var series []Series
	for _, model := range gen.AllModels() {
		g, _ := model.Instantiate(31, rng)
		chain, pi := caseStudyChain(g, linalg.NewMHRW(g))
		curve := core.IdealCostCurve(chain, pi, 0, tmax)
		s := Series{Name: model.String()}
		for t := 1; t <= tmax; t++ {
			s.Points = append(s.Points, Point{X: float64(t), Y: curve[t-1]})
		}
		series = append(series, s)
	}
	return Result{
		Title:  "Figure 2: IDEAL-WALK query cost per sample vs walk length (n≈31, uniform target)",
		XLabel: "walk-length",
		YLabel: "query-cost",
		Series: series,
	}, nil
}

// Fig3 reproduces Figure 3: IDEAL-WALK's query-cost saving percentage
// (1 − c_opt/c_RW) as the graph size grows from 8 to 128, for the five
// models, at bias requirement ∆ = 0.001/n.
func Fig3(o Options) (Result, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	sizes := []int{8, 16, 24, 32, 48, 64, 96, 128}
	var series []Series
	for _, model := range gen.AllModels() {
		s := Series{Name: model.String()}
		prevN := -1
		for _, size := range sizes {
			g, n := model.Instantiate(size, rng)
			if n == prevN {
				continue // hypercube rounds sizes to powers of two
			}
			prevN = n
			chain, pi := caseStudyChain(g, linalg.NewMHRW(g))
			delta := 0.001 / float64(n)
			saving := core.IdealSaving(chain, pi, 0, delta, 60000)
			s.Points = append(s.Points, Point{X: float64(n), Y: 100 * saving})
		}
		series = append(series, s)
	}
	return Result{
		Title:  "Figure 3: IDEAL-WALK query cost saving % vs graph size (uniform target, ∆=0.001/n)",
		XLabel: "num-nodes",
		YLabel: "saving-%",
		Series: series,
	}, nil
}

// Fig5 reproduces Figure 5 (the diameter limitation, Section 6.2): average
// walk steps per sample — forward plus backward for WALK-ESTIMATE — on cycle
// graphs of diameter 5..25 (sizes 11, 21, 31, 41, 51), SRW input. SRW's
// Geweke-monitored cost barely moves while WE's cost explodes with the
// diameter, which is exactly the paper's warning.
func Fig5(o Options) (Result, error) {
	sizes := []int{11, 21, 31, 41, 51}
	srwS := Series{Name: "SRW"}
	weS := Series{Name: "WE"}
	samples := o.samples() / 5
	if samples < 5 {
		samples = 5
	}
	for i, n := range sizes {
		g := gen.Cycle(n)
		diam := n / 2
		net := osn.NewNetwork(g)

		// SRW baseline: steps to Geweke convergence, averaged per sample.
		rng := rand.New(rand.NewSource(o.Seed + int64(i)))
		c := osn.NewClient(net, osn.CostUniqueNodes, rng)
		res, err := walk.ManyShortRuns(c, walk.SRW{}, 0, samples,
			walk.Geweke{Threshold: o.gewekeThreshold()}, o.maxWalkSteps(), rng)
		if err != nil {
			return Result{}, err
		}
		totalSRW := 0
		for _, st := range res.Steps {
			totalSRW += st
		}
		srwS.Points = append(srwS.Points, Point{X: float64(diam), Y: float64(totalSRW) / float64(samples)})

		// WALK-ESTIMATE with SRW input: forward + backward steps.
		rng2 := rand.New(rand.NewSource(o.Seed + 1000 + int64(i)))
		c2 := osn.NewClient(net, osn.CostUniqueNodes, rng2)
		cfg := core.Config{
			Design:      walk.SRW{},
			Start:       0,
			WalkLength:  2*diam + 1,
			UseCrawl:    true,
			CrawlHops:   2,
			MaxAttempts: 200000,
		}
		s, err := core.NewSampler(c2, cfg, rng2)
		if err != nil {
			return Result{}, err
		}
		if _, err := s.SampleN(samples); err != nil {
			return Result{}, fmt.Errorf("exp: Fig5 WE at diameter %d: %w", diam, err)
		}
		weS.Points = append(weS.Points, Point{X: float64(diam), Y: float64(s.TotalSteps()) / float64(samples)})
	}
	return Result{
		Title:  "Figure 5: walk steps per sample vs cycle diameter (SRW vs WALK-ESTIMATE)",
		XLabel: "diameter",
		YLabel: "steps-per-sample",
		Series: []Series{srwS, weS},
	}, nil
}
