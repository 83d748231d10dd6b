package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/walk"
)

// biasDistributions draws a large number of samples with SRW (Geweke) and
// with WALK-ESTIMATE (SRW input) on the paper's small scale-free graph
// (1000 nodes, 6951 edges) and returns the theoretical degree-proportional
// target plus both empirical sampling distributions, all ordered by node id.
func biasDistributions(o Options) (ds *dataset.Dataset, theo, srw, we []float64, err error) {
	ds = dataset.SmallScaleFree(o.Seed)
	g := ds.Graph
	theo, err = linalg.SRWStationary(g)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	n := o.biasSamples()

	rng := rand.New(rand.NewSource(o.Seed + 101))
	c := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng)
	res, err := walk.ManyShortRuns(c, walk.SRW{}, ds.StartNode, n,
		walk.Geweke{Threshold: o.gewekeThreshold()}, o.maxWalkSteps(), rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srw, err = stats.Empirical(res.Nodes, g.NumNodes())
	if err != nil {
		return nil, nil, nil, nil, err
	}

	rng2 := rand.New(rand.NewSource(o.Seed + 202))
	c2 := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng2)
	cfg := core.Config{
		Design:     walk.SRW{},
		Start:      ds.StartNode,
		WalkLength: ds.WalkLength(),
		UseCrawl:   true,
		CrawlHops:  ds.CrawlHops,
	}
	s, err := core.NewSampler(c2, cfg, rng2)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	nodes := make([]int, n)
	for i := range nodes {
		v, err := s.Sample()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		nodes[i] = v
	}
	we, err = stats.Empirical(nodes, g.NumNodes())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return ds, theo, srw, we, nil
}

// Fig12 reproduces Figure 12: the PDF and CDF of the theoretical, SRW, and
// WALK-ESTIMATE sampling distributions over nodes ordered by descending
// degree, on the small scale-free graph.
func Fig12(o Options) ([]Result, error) {
	ds, theo, srw, we, err := biasDistributions(o)
	if err != nil {
		return nil, err
	}
	order := stats.DegreeDescOrder(ds.Graph)
	mk := func(p []float64) ([]Point, []Point, error) {
		r, err := stats.Reorder(p, order)
		if err != nil {
			return nil, nil, err
		}
		cdf := stats.CDF(r)
		pdfPts := make([]Point, len(r))
		cdfPts := make([]Point, len(r))
		for i := range r {
			pdfPts[i] = Point{X: float64(i), Y: r[i]}
			cdfPts[i] = Point{X: float64(i), Y: cdf[i]}
		}
		return pdfPts, cdfPts, nil
	}
	theoPDF, theoCDF, err := mk(theo)
	if err != nil {
		return nil, err
	}
	srwPDF, srwCDF, err := mk(srw)
	if err != nil {
		return nil, err
	}
	wePDF, weCDF, err := mk(we)
	if err != nil {
		return nil, err
	}
	return []Result{
		{
			Title:  "Figure 12a: sampling distribution PDF by node (degree-descending)",
			XLabel: "node-rank", YLabel: "pdf",
			Series: []Series{{Name: "Theo", Points: theoPDF}, {Name: "SRW", Points: srwPDF}, {Name: "WE", Points: wePDF}},
		},
		{
			Title:  "Figure 12b: sampling distribution CDF by node (degree-descending)",
			XLabel: "node-rank", YLabel: "cdf",
			Series: []Series{{Name: "Theo", Points: theoCDF}, {Name: "SRW", Points: srwCDF}, {Name: "WE", Points: weCDF}},
		},
	}, nil
}

// Table1 reproduces Table 1: the ℓ∞ and KL distances between the theoretical
// sampling distribution and the empirical distributions achieved by SRW and
// WALK-ESTIMATE on the small scale-free graph. KL uses light additive
// smoothing (eps=1e-9) so finitely-many samples cannot yield an infinite
// divergence; at the default budgets the smoothing is negligible.
func Table1(o Options) (Result, error) {
	_, theo, srw, we, err := biasDistributions(o)
	if err != nil {
		return Result{}, err
	}
	linfSRW, err := stats.LInf(theo, srw)
	if err != nil {
		return Result{}, err
	}
	linfWE, err := stats.LInf(theo, we)
	if err != nil {
		return Result{}, err
	}
	klSRW, err := stats.KLSmoothed(theo, srw, 1e-9)
	if err != nil {
		return Result{}, err
	}
	klWE, err := stats.KLSmoothed(theo, we, 1e-9)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Title:  "Table 1: distance between theoretical sampling distribution and SRW/WE (x: 0=L-inf, 1=KL)",
		XLabel: "measure",
		YLabel: "distance",
		Series: []Series{
			{Name: "Dist(Theo,SRW)", Points: []Point{{X: 0, Y: linfSRW}, {X: 1, Y: klSRW}}},
			{Name: "Dist(Theo,WE)", Points: []Point{{X: 0, Y: linfWE}, {X: 1, Y: klWE}}},
		},
	}, nil
}

// OneLongRunStudy quantifies the Section 6.1 discussion behind Figure 4:
// one long run amortizes burn-in but produces correlated samples. It reports,
// for the small scale-free graph, the effective sample size (Equation 25) of
// a one-long-run degree series against its nominal size, and the relative
// error both schemes reach on AVG degree at equal query cost.
func OneLongRunStudy(o Options) (Result, error) {
	ds := dataset.SmallScaleFree(o.Seed)
	truth := ds.Truth[osn.AttrDegree]
	samples := o.samples() * 5

	// One long run: burn in once, then take every node.
	rng := rand.New(rand.NewSource(o.Seed + 301))
	c := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng)
	res, err := walk.OneLongRun(c, walk.SRW{}, ds.StartNode, 100, samples, 1, rng)
	if err != nil {
		return Result{}, err
	}
	longCost := float64(c.Queries())
	degSeries := make([]float64, res.Len())
	dens := make([]float64, res.Len())
	for i, v := range res.Nodes {
		degSeries[i] = float64(ds.Graph.Degree(v))
		dens[i] = degSeries[i]
	}
	// The ESS penalty (Equation 25) bites for attributes positively
	// autocorrelated along the walk. Degree on a BA graph is
	// disassortative, so we measure ESS on the canonical such attribute:
	// hop distance from a landmark, which changes by at most 1 per step.
	depth := ds.Graph.BFS(ds.StartNode)
	depthSeries := make([]float64, res.Len())
	for i, v := range res.Nodes {
		depthSeries[i] = float64(depth[v])
	}
	ess, err := agg.EffectiveSampleSize(depthSeries, 100)
	if err != nil {
		return Result{}, err
	}
	longEst, err := agg.WeightedRatio(degSeries, dens)
	if err != nil {
		return Result{}, err
	}
	longErr := agg.RelativeError(longEst, truth)

	// Many short runs at (approximately) the same query budget.
	rng2 := rand.New(rand.NewSource(o.Seed + 302))
	c2 := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng2)
	mon := walk.Geweke{Threshold: o.gewekeThreshold()}
	var shortNodes []int
	for c2.Queries() < int64(longCost) {
		r, err := walk.ManyShortRuns(c2, walk.SRW{}, ds.StartNode, 1, mon, o.maxWalkSteps(), rng2)
		if err != nil {
			return Result{}, err
		}
		shortNodes = append(shortNodes, r.Nodes...)
	}
	vals := make([]float64, len(shortNodes))
	dens2 := make([]float64, len(shortNodes))
	for i, v := range shortNodes {
		vals[i] = float64(ds.Graph.Degree(v))
		dens2[i] = vals[i]
	}
	shortEst, err := agg.WeightedRatio(vals, dens2)
	if err != nil {
		return Result{}, err
	}
	shortErr := agg.RelativeError(shortEst, truth)

	return Result{
		Title:  "One long run vs many short runs (Section 6.1; x: 0=nominal samples, 1=effective samples, 2=relative error at equal cost)",
		XLabel: "metric",
		YLabel: "value",
		Series: []Series{
			{Name: "OneLongRun", Points: []Point{
				{X: 0, Y: float64(samples)}, {X: 1, Y: ess}, {X: 2, Y: longErr},
			}},
			{Name: "ManyShortRuns", Points: []Point{
				{X: 0, Y: float64(len(shortNodes))}, {X: 1, Y: float64(len(shortNodes))}, {X: 2, Y: shortErr},
			}},
		},
	}, nil
}

// All runs every experiment at the given options and returns the results in
// paper order. It is the engine behind `weexp all`.
func All(o Options) ([]Result, error) {
	var out []Result
	add := func(rs []Result, err error) error {
		if err != nil {
			return err
		}
		out = append(out, rs...)
		return nil
	}
	one := func(r Result, err error) error {
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}
	steps := []func() error{
		func() error { r, err := Fig1(o); return one(r, err) },
		func() error { r, err := Fig2(o); return one(r, err) },
		func() error { r, err := Fig3(o); return one(r, err) },
		func() error { r, err := Fig5(o); return one(r, err) },
		func() error { r, err := Fig6(o); return add(r, err) },
		func() error { r, err := Fig7(o); return add(r, err) },
		func() error { r, err := Fig8(o); return add(r, err) },
		func() error { r, err := Fig9(o); return add(r, err) },
		func() error { r, err := Fig10(o); return add(r, err) },
		func() error { r, err := Fig11(o); return add(r, err) },
		func() error { r, err := Fig12(o); return add(r, err) },
		func() error { r, err := Table1(o); return one(r, err) },
		func() error { r, err := OneLongRunStudy(o); return one(r, err) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			return out, fmt.Errorf("exp: step %d: %w", i, err)
		}
	}
	return out, nil
}
