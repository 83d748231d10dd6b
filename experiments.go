package walknotwait

import (
	"repro/internal/dataset"
	"repro/internal/exp"
)

// Dataset bundles an evaluation surrogate (Section 7.1) with its metadata:
// the simulated network, ground-truth aggregate values, the paper's
// per-dataset parameters (diameter bound, crawl depth), and the canonical
// start node.
type Dataset = dataset.Dataset

// Dataset attribute names.
const (
	AttrSelfDesc   = dataset.AttrSelfDesc
	AttrStars      = dataset.AttrStars
	AttrInDegree   = dataset.AttrInDegree
	AttrOutDegree  = dataset.AttrOutDegree
	AttrClustering = dataset.AttrClustering
	AttrAvgPath    = dataset.AttrAvgPath
)

// GooglePlusDataset builds the Google Plus surrogate (≈16.4k users, avg
// degree ≈560 at scale 1) with the self-description length attribute.
func GooglePlusDataset(scale float64, seed int64) (*Dataset, error) {
	return dataset.GooglePlus(scale, seed)
}

// YelpDataset builds the Yelp co-review surrogate (≈120k users at scale 1)
// with star ratings and topological aggregates.
func YelpDataset(scale float64, seed int64) (*Dataset, error) {
	return dataset.Yelp(scale, seed)
}

// TwitterDataset builds the Twitter mutual-follow surrogate (≈80k users at
// scale 1) with in/out-degree attributes.
func TwitterDataset(scale float64, seed int64) (*Dataset, error) {
	return dataset.Twitter(scale, seed)
}

// SmallScaleFreeDataset builds the paper's exact-bias graph (1000 nodes,
// 6951 edges).
func SmallScaleFreeDataset(seed int64) *Dataset { return dataset.SmallScaleFree(seed) }

// ExperimentOptions tunes the budgets of the paper-reproduction experiment
// runners (trials, samples, dataset scale, seeds).
type ExperimentOptions = exp.Options

// ExperimentResult is one reproduced figure panel or table.
type ExperimentResult = exp.Result

// Experiment runners, one per paper figure/table. Each returns the same
// series the paper plots; render with ExperimentResult.Render.
var (
	// Fig1: min/max sampling probability vs walk length.
	Fig1 = exp.Fig1
	// Fig2: IDEAL-WALK query cost vs walk length on five graph models.
	Fig2 = exp.Fig2
	// Fig3: IDEAL-WALK query-cost saving % vs graph size.
	Fig3 = exp.Fig3
	// Fig5: WE's diameter limitation on cycle graphs.
	Fig5 = exp.Fig5
	// Fig6: Google Plus error-vs-cost, SRW/MHRW vs WE (4 panels).
	Fig6 = exp.Fig6
	// Fig7: Yelp error-vs-cost (4 panels).
	Fig7 = exp.Fig7
	// Fig8: Twitter error-vs-cost (4 panels).
	Fig8 = exp.Fig8
	// Fig9: heuristic ablation WE-None/WE-Crawl/WE-Weighted/WE (4 panels).
	Fig9 = exp.Fig9
	// Fig10: Google Plus error-vs-sample-count (4 panels).
	Fig10 = exp.Fig10
	// Fig11: synthetic BA graphs, error vs cost and vs samples.
	Fig11 = exp.Fig11
	// Fig12: exact sampling-distribution PDF/CDF comparison.
	Fig12 = exp.Fig12
	// Table1: ℓ∞/KL distance of SRW and WE sampling distributions.
	Table1 = exp.Table1
	// OneLongRunStudy: effective-sample-size study behind Figure 4.
	OneLongRunStudy = exp.OneLongRunStudy
	// GewekeSensitivity: the Z<=0.1 vs Z<=0.01 threshold sensitivity check.
	GewekeSensitivity = exp.GewekeSensitivity
	// BurnInProfile: exact Definition 3 burn-in lengths across models and
	// thresholds.
	BurnInProfile = exp.BurnInProfile
	// HarvestStudy: the Section 6.1 path-harvesting extension study.
	HarvestStudy = exp.HarvestStudy
	// AllExperiments runs everything in paper order.
	AllExperiments = exp.All
)
