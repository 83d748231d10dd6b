package exp

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/osn"
	"repro/internal/walk"
)

// panel describes one subfigure: an aggregate estimated under an input
// design, comparing the traditional sampler against WALK-ESTIMATE variants.
type panel struct {
	title    string
	attr     string
	design   walk.Design
	variants []namedVariant
	vsCost   bool // x-axis: query cost (true) or sample count (false)
}

type namedVariant struct {
	name string
	v    weVariant
}

// runPanels executes a set of panels over a dataset: for each panel, the
// baseline sampler (unless omitBaseline) plus every WE variant listed.
func runPanels(ds *dataset.Dataset, panels []panel, omitBaseline bool, o Options) ([]Result, error) {
	var out []Result
	for _, p := range panels {
		truth, ok := ds.Truth[p.attr]
		if !ok {
			return nil, fmt.Errorf("exp: dataset %s has no truth for %q", ds.Name, p.attr)
		}
		res := Result{
			Title:  p.title,
			YLabel: "relative-error",
		}
		if p.vsCost {
			res.XLabel = "query-cost"
		} else {
			res.XLabel = "num-samples"
		}
		if !omitBaseline {
			cost, errs, err := errCurves(newBaselineBuilder(ds, p.design, o), p.design, p.attr, truth, o.trials(), o.samples())
			if err != nil {
				return nil, fmt.Errorf("exp: %s baseline: %w", p.title, err)
			}
			if p.vsCost {
				res.Series = append(res.Series, errVsCostSeries(p.design.Name(), cost, errs))
			} else {
				res.Series = append(res.Series, errVsSamplesSeries(p.design.Name(), errs))
			}
		}
		for _, nv := range p.variants {
			cost, errs, err := errCurves(newWEBuilder(ds, p.design, nv.v, o), p.design, p.attr, truth, o.trials(), o.samples())
			if err != nil {
				return nil, fmt.Errorf("exp: %s %s: %w", p.title, nv.name, err)
			}
			if p.vsCost {
				res.Series = append(res.Series, errVsCostSeries(nv.name, cost, errs))
			} else {
				res.Series = append(res.Series, errVsSamplesSeries(nv.name, errs))
			}
		}
		out = append(out, res)
	}
	return out, nil
}

func weOnly() []namedVariant { return []namedVariant{{"WE", weCrawl}} }

// Fig6 reproduces Figure 6: relative error of AVG estimations vs query cost
// on Google Plus — (a) AVG degree under SRW, (b) AVG self-description length
// under SRW, (c) AVG degree under MHRW, (d) AVG self-description length
// under MHRW; each comparing the traditional walk with WALK-ESTIMATE.
func Fig6(o Options) ([]Result, error) {
	ds, err := dataset.GooglePlus(o.scale(), o.Seed)
	if err != nil {
		return nil, err
	}
	return runPanels(ds, []panel{
		{"Figure 6a: GPlus AVG degree (SRW vs WE)", osn.AttrDegree, walk.SRW{}, weOnly(), true},
		{"Figure 6b: GPlus AVG self-description length (SRW vs WE)", dataset.AttrSelfDesc, walk.SRW{}, weOnly(), true},
		{"Figure 6c: GPlus AVG degree (MHRW vs WE)", osn.AttrDegree, walk.MHRW{}, weOnly(), true},
		{"Figure 6d: GPlus AVG self-description length (MHRW vs WE)", dataset.AttrSelfDesc, walk.MHRW{}, weOnly(), true},
	}, false, o)
}

// Fig7 reproduces Figure 7: relative error vs query cost on Yelp — AVG
// degree, AVG stars, AVG shortest-path length, AVG local clustering
// coefficient (SRW vs WE).
func Fig7(o Options) ([]Result, error) {
	ds, err := dataset.Yelp(o.scale(), o.Seed)
	if err != nil {
		return nil, err
	}
	return runPanels(ds, []panel{
		{"Figure 7a: Yelp AVG degree (SRW vs WE)", osn.AttrDegree, walk.SRW{}, weOnly(), true},
		{"Figure 7b: Yelp AVG stars (SRW vs WE)", dataset.AttrStars, walk.SRW{}, weOnly(), true},
		{"Figure 7c: Yelp AVG shortest path (SRW vs WE)", dataset.AttrAvgPath, walk.SRW{}, weOnly(), true},
		{"Figure 7d: Yelp AVG local clustering coefficient (SRW vs WE)", dataset.AttrClustering, walk.SRW{}, weOnly(), true},
	}, false, o)
}

// Fig8 reproduces Figure 8: relative error vs query cost on Twitter — AVG
// in-degree, AVG out-degree, AVG shortest-path length, AVG local clustering
// coefficient (SRW vs WE).
func Fig8(o Options) ([]Result, error) {
	ds, err := dataset.Twitter(o.scale(), o.Seed)
	if err != nil {
		return nil, err
	}
	return runPanels(ds, []panel{
		{"Figure 8a: Twitter AVG in-degree (SRW vs WE)", dataset.AttrInDegree, walk.SRW{}, weOnly(), true},
		{"Figure 8b: Twitter AVG out-degree (SRW vs WE)", dataset.AttrOutDegree, walk.SRW{}, weOnly(), true},
		{"Figure 8c: Twitter AVG shortest path (SRW vs WE)", dataset.AttrAvgPath, walk.SRW{}, weOnly(), true},
		{"Figure 8d: Twitter AVG local clustering coefficient (SRW vs WE)", dataset.AttrClustering, walk.SRW{}, weOnly(), true},
	}, false, o)
}

// Fig9 reproduces Figure 9, the heuristic ablation on Google Plus: WE-None
// (no heuristics) and WE-Crawl (initial crawling, which is full WE), on the
// four Figure 6 panels. The paper's WE-Weighted and WE series are not
// drawn: weighted backward sampling is not implemented (EXPERIMENTS.md,
// "WS-BW goes"), so they would repeat WE-None and WE-Crawl.
func Fig9(o Options) ([]Result, error) {
	ds, err := dataset.GooglePlus(o.scale(), o.Seed)
	if err != nil {
		return nil, err
	}
	variants := []namedVariant{
		{"WE-None", weNone},
		{"WE-Crawl", weCrawl},
	}
	return runPanels(ds, []panel{
		{"Figure 9a: GPlus AVG degree ablation (SRW input)", osn.AttrDegree, walk.SRW{}, variants, true},
		{"Figure 9b: GPlus AVG self-description length ablation (SRW input)", dataset.AttrSelfDesc, walk.SRW{}, variants, true},
		{"Figure 9c: GPlus AVG degree ablation (MHRW input)", osn.AttrDegree, walk.MHRW{}, variants, true},
		{"Figure 9d: GPlus AVG self-description length ablation (MHRW input)", dataset.AttrSelfDesc, walk.MHRW{}, variants, true},
	}, true, o)
}

// Fig10 reproduces Figure 10: relative error vs number of samples on Google
// Plus, same four panels as Figure 6 — showing WE's samples are of equal or
// better quality, not merely cheaper.
func Fig10(o Options) ([]Result, error) {
	ds, err := dataset.GooglePlus(o.scale(), o.Seed)
	if err != nil {
		return nil, err
	}
	return runPanels(ds, []panel{
		{"Figure 10a: GPlus AVG degree vs #samples (SRW vs WE)", osn.AttrDegree, walk.SRW{}, weOnly(), false},
		{"Figure 10b: GPlus AVG self-description length vs #samples (SRW vs WE)", dataset.AttrSelfDesc, walk.SRW{}, weOnly(), false},
		{"Figure 10c: GPlus AVG degree vs #samples (MHRW vs WE)", osn.AttrDegree, walk.MHRW{}, weOnly(), false},
		{"Figure 10d: GPlus AVG self-description length vs #samples (MHRW vs WE)", dataset.AttrSelfDesc, walk.MHRW{}, weOnly(), false},
	}, false, o)
}

// Fig11 reproduces Figure 11: AVG degree estimation on synthetic
// Barabási–Albert graphs (m=5) of 10k, 15k, 20k nodes (scaled by Options),
// SRW input: (a) relative error vs query cost, (b) vs number of samples.
func Fig11(o Options) ([]Result, error) {
	sizes := []int{
		scaledSize(10000, o.scale()),
		scaledSize(15000, o.scale()),
		scaledSize(20000, o.scale()),
	}
	vsCost := Result{
		Title:  "Figure 11a: synthetic BA AVG degree, relative error vs query cost",
		XLabel: "query-cost", YLabel: "relative-error",
	}
	vsSamples := Result{
		Title:  "Figure 11b: synthetic BA AVG degree, relative error vs num samples",
		XLabel: "num-samples", YLabel: "relative-error",
	}
	for i, n := range sizes {
		ds, err := dataset.SyntheticBA(n, o.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		truth := ds.Truth[osn.AttrDegree]

		cost, errs, err := errCurves(newBaselineBuilder(ds, walk.SRW{}, o), walk.SRW{}, osn.AttrDegree, truth, o.trials(), o.samples())
		if err != nil {
			return nil, err
		}
		vsCost.Series = append(vsCost.Series, errVsCostSeries(fmt.Sprintf("SRW-%d", n), cost, errs))
		vsSamples.Series = append(vsSamples.Series, errVsSamplesSeries(fmt.Sprintf("SRW-%d", n), errs))

		cost, errs, err = errCurves(newWEBuilder(ds, walk.SRW{}, weCrawl, o), walk.SRW{}, osn.AttrDegree, truth, o.trials(), o.samples())
		if err != nil {
			return nil, err
		}
		vsCost.Series = append(vsCost.Series, errVsCostSeries(fmt.Sprintf("WE-%d", n), cost, errs))
		vsSamples.Series = append(vsSamples.Series, errVsSamplesSeries(fmt.Sprintf("WE-%d", n), errs))
	}
	return []Result{vsCost, vsSamples}, nil
}

func scaledSize(full int, scale float64) int {
	n := int(float64(full) * scale)
	if n < 1000 {
		return 1000
	}
	return n
}
