package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/osn"
	"repro/internal/walk"
)

// GewekeSensitivity is the paper's stated sensitivity check (Section 2.2.3:
// "we set the threshold to be Z <= 0.1 by default, while also performing
// tests with the threshold Z <= 0.01"): error-vs-cost curves for the SRW
// baseline at both thresholds plus a conservative fixed burn-in, against
// WALK-ESTIMATE, on the Google Plus surrogate's AVG-degree aggregate.
func GewekeSensitivity(o Options) (Result, error) {
	ds, err := dataset.GooglePlus(o.scale(), o.Seed)
	if err != nil {
		return Result{}, err
	}
	truth := ds.Truth[osn.AttrDegree]
	res := Result{
		Title:  "Geweke sensitivity: SRW at Z<=0.1 / Z<=0.01 / fixed burn-in vs WALK-ESTIMATE (GPlus AVG degree)",
		XLabel: "query-cost",
		YLabel: "relative-error",
	}
	variants := []struct {
		name string
		mon  walk.Monitor
	}{
		{"SRW-Z0.1", walk.Geweke{Threshold: 0.1}},
		{"SRW-Z0.01", walk.Geweke{Threshold: 0.01}},
		{"SRW-Fixed100", walk.FixedBurnIn{N: 100}},
	}
	for _, v := range variants {
		mon := v.mon
		build := func(trial int) (nodeSampler, *osn.Client, error) {
			rng := rand.New(rand.NewSource(o.Seed ^ int64(trial)*0x5851F42D4C957F2D + 311))
			c := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng)
			return baseline{c: c, d: walk.SRW{}, start: ds.StartNode, mon: mon, max: o.maxWalkSteps(), rng: rng}, c, nil
		}
		cost, errs, err := errCurves(build, walk.SRW{}, osn.AttrDegree, truth, o.trials(), o.samples())
		if err != nil {
			return Result{}, fmt.Errorf("exp: sensitivity %s: %w", v.name, err)
		}
		res.Series = append(res.Series, errVsCostSeries(v.name, cost, errs))
	}
	cost, errs, err := errCurves(newWEBuilder(ds, walk.SRW{}, weCrawl, o), walk.SRW{}, osn.AttrDegree, truth, o.trials(), o.samples())
	if err != nil {
		return Result{}, err
	}
	res.Series = append(res.Series, errVsCostSeries("WE", cost, errs))
	return res, nil
}

// HarvestStudy evaluates the Section 6.1 future-work extension implemented
// in core.HarvestSampler: plain WALK-ESTIMATE vs the path-harvesting variant
// on the synthetic BA workload — error vs query cost at equal sample counts.
func HarvestStudy(o Options) (Result, error) {
	n := scaledSize(10000, o.scale())
	ds, err := dataset.SyntheticBA(n, o.Seed)
	if err != nil {
		return Result{}, err
	}
	truth := ds.Truth[osn.AttrDegree]
	res := Result{
		Title:  fmt.Sprintf("Harvest extension (Section 6.1): WE vs path-harvesting WE (BA n=%d, AVG degree)", n),
		XLabel: "query-cost",
		YLabel: "relative-error",
	}
	cost, errs, err := errCurves(newWEBuilder(ds, walk.SRW{}, weCrawl, o), walk.SRW{}, osn.AttrDegree, truth, o.trials(), o.samples())
	if err != nil {
		return Result{}, err
	}
	res.Series = append(res.Series, errVsCostSeries("WE", cost, errs))

	build := func(trial int) (nodeSampler, *osn.Client, error) {
		rng := rand.New(rand.NewSource(o.Seed ^ int64(trial)*0x5851F42D4C957F2D + 317))
		c := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng)
		cfg := core.Config{
			Design:     walk.SRW{},
			Start:      ds.StartNode,
			WalkLength: ds.WalkLength(),
			UseCrawl:   true,
			CrawlHops:  ds.CrawlHops,
		}
		s, err := core.NewHarvestSampler(c, cfg, 0, rng)
		if err != nil {
			return nil, nil, err
		}
		return s, c, nil
	}
	cost, errs, err = errCurves(build, walk.SRW{}, osn.AttrDegree, truth, o.trials(), o.samples())
	if err != nil {
		return Result{}, err
	}
	res.Series = append(res.Series, errVsCostSeries("WE-Harvest", cost, errs))
	return res, nil
}
