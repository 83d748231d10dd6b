package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/osn"
	"repro/internal/walk"
)

// nodeSampler is the common surface of the baseline samplers and
// WALK-ESTIMATE as used by the error-vs-cost engine.
type nodeSampler interface {
	SampleN(n int) (walk.Result, error)
}

// baseline adapts walk.ManyShortRuns (the paper's default comparison
// sampler, with the Geweke monitor) to the nodeSampler surface.
type baseline struct {
	c     *osn.Client
	d     walk.Design
	start int
	mon   walk.Monitor
	max   int
	rng   *rand.Rand
}

func (b baseline) SampleN(n int) (walk.Result, error) {
	return walk.ManyShortRuns(b.c, b.d, b.start, n, b.mon, b.max, b.rng)
}

// samplerBuilder constructs a fresh sampler (and the client it is charged
// against) for one experiment trial.
type samplerBuilder func(trial int) (nodeSampler, *osn.Client, error)

// newBaselineBuilder returns a builder for the traditional sampler on ds.
func newBaselineBuilder(ds *dataset.Dataset, d walk.Design, o Options) samplerBuilder {
	return func(trial int) (nodeSampler, *osn.Client, error) {
		rng := rand.New(rand.NewSource(o.Seed ^ int64(trial)*0x5851F42D4C957F2D + 11))
		c := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng)
		mon := walk.Geweke{Threshold: o.gewekeThreshold()}
		return baseline{c: c, d: d, start: ds.StartNode, mon: mon, max: o.maxWalkSteps(), rng: rng}, c, nil
	}
}

// weVariant toggles WALK-ESTIMATE's initial-crawling heuristic (Figure 9's
// ablation axis).
type weVariant struct {
	crawl bool
}

var (
	weNone  = weVariant{}
	weCrawl = weVariant{crawl: true}
)

// newWEBuilder returns a builder for WALK-ESTIMATE over ds with the given
// input design and heuristic toggles.
func newWEBuilder(ds *dataset.Dataset, d walk.Design, v weVariant, o Options) samplerBuilder {
	return func(trial int) (nodeSampler, *osn.Client, error) {
		rng := rand.New(rand.NewSource(o.Seed ^ int64(trial)*0x5851F42D4C957F2D + 23))
		c := osn.NewClient(ds.Net, osn.CostUniqueNodes, rng)
		cfg := core.Config{
			Design:     d,
			Start:      ds.StartNode,
			WalkLength: ds.WalkLength(),
			UseCrawl:   v.crawl,
			CrawlHops:  ds.CrawlHops,
		}
		s, err := core.NewSampler(c, cfg, rng)
		if err != nil {
			return nil, nil, err
		}
		return s, c, nil
	}
}

// runningEstimator maintains a prefix AVG estimate in O(1) per added sample:
// arithmetic mean for uniform targets, importance-weighted ratio for
// degree-proportional targets.
type runningEstimator struct {
	c       *osn.Client
	d       walk.Design
	attr    string
	uniform bool
	num     mathx.KahanSum
	den     mathx.KahanSum
	n       int
}

func newRunningEstimator(c *osn.Client, d walk.Design, attr string) *runningEstimator {
	_, uniform := d.(walk.MHRW)
	return &runningEstimator{c: c, d: d, attr: attr, uniform: uniform}
}

func (r *runningEstimator) add(v int) error {
	x, err := r.c.Attr(r.attr, v)
	if err != nil {
		return err
	}
	if r.uniform {
		r.num.Add(x)
		r.den.Add(1)
	} else {
		w := r.d.TargetWeight(r.c, v)
		if w <= 0 {
			return fmt.Errorf("exp: non-positive target weight for node %d", v)
		}
		r.num.Add(x / w)
		r.den.Add(1 / w)
	}
	r.n++
	return nil
}

func (r *runningEstimator) estimate() float64 {
	d := r.den.Sum()
	if d == 0 {
		return 0
	}
	return r.num.Sum() / d
}

// errCurves runs `trials` independent sampling runs and returns, per sample
// index i (1-based), the averages over trials of (a) cumulative query cost
// and (b) relative error of the prefix estimate — the coordinates of the
// paper's error-vs-query-cost and error-vs-samples figures.
func errCurves(build samplerBuilder, d walk.Design, attr string, truth float64, trials, samples int) (avgCost, avgErr []float64, err error) {
	sumCost := make([]float64, samples)
	sumErr := make([]float64, samples)
	for trial := 0; trial < trials; trial++ {
		s, c, err := build(trial)
		if err != nil {
			return nil, nil, err
		}
		res, err := s.SampleN(samples)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: trial %d: %w", trial, err)
		}
		est := newRunningEstimator(c, d, attr)
		for i, v := range res.Nodes {
			if err := est.add(v); err != nil {
				return nil, nil, err
			}
			sumCost[i] += float64(res.CostAfter[i])
			sumErr[i] += agg.RelativeError(est.estimate(), truth)
		}
	}
	avgCost = make([]float64, samples)
	avgErr = make([]float64, samples)
	for i := range sumCost {
		avgCost[i] = sumCost[i] / float64(trials)
		avgErr[i] = sumErr[i] / float64(trials)
	}
	return avgCost, avgErr, nil
}

// errVsCostSeries converts errCurves output into a cost-indexed series.
func errVsCostSeries(name string, avgCost, avgErr []float64) Series {
	pts := make([]Point, len(avgCost))
	for i := range avgCost {
		pts[i] = Point{X: avgCost[i], Y: avgErr[i]}
	}
	return Series{Name: name, Points: pts}
}

// errVsSamplesSeries converts errCurves output into a sample-indexed series.
func errVsSamplesSeries(name string, avgErr []float64) Series {
	pts := make([]Point, len(avgErr))
	for i := range avgErr {
		pts[i] = Point{X: float64(i + 1), Y: avgErr[i]}
	}
	return Series{Name: name, Points: pts}
}
