package core

import (
	"fmt"

	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// HarvestSampler implements the extension the paper sketches at the end of
// Section 6.1: applying the WALK-ESTIMATE idea to more than the final node
// of each forward walk — "estimating the sampling probability for not only
// the last node (taken as a candidate) but every node on the walk path".
//
// Each forward walk of length t yields up to t−minStep+1 candidates: the
// node visited at step τ is a candidate with estimated probability p̂_τ(v),
// each independently accepted or rejected against the target distribution.
// Forward-walk queries amortize across all candidates of the path, so the
// per-sample query cost drops below plain WALK-ESTIMATE; the price is mild
// correlation between samples harvested from the same path (the same
// trade-off as one-long-run, quantified by agg.EffectiveSampleSize).
//
// MinStep should stay at or above the graph-diameter bound so every node has
// positive sampling probability at every harvested step.
type HarvestSampler struct {
	cfg     Config
	minStep int
	c       *osn.Client
	rng     fastrand.RNG
	est     *Estimator
	hist    *History
	pathBuf []int // reusable forward-walk buffer (walk.PathInto)
	// boots holds one scale bootstrap per harvested step: p_τ magnitudes
	// differ across τ, so the rejection scales must not be pooled.
	boots map[int]*ScaleBootstrap

	forwardSteps int64
	attempts     int64
	accepted     int64
}

// NewHarvestSampler builds the path-harvesting WALK-ESTIMATE variant.
// minStep is the first step whose node is taken as a candidate; 0 means
// ceil(WalkLength/2), a conservative mid-path default.
func NewHarvestSampler(c *osn.Client, cfg Config, minStep int, rng fastrand.RNG) (*HarvestSampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if minStep <= 0 {
		minStep = (cfg.WalkLength + 1) / 2
	}
	if minStep > cfg.WalkLength {
		return nil, fmt.Errorf("core: minStep %d exceeds walk length %d", minStep, cfg.WalkLength)
	}
	s := &HarvestSampler{cfg: cfg, minStep: minStep, c: c, rng: rng, boots: make(map[int]*ScaleBootstrap)}
	var crawl *CrawlTable
	if cfg.UseCrawl {
		var err error
		crawl, err = BuildCrawlTable(c, cfg.Design, cfg.Start, cfg.crawlHops())
		if err != nil {
			return nil, err
		}
	}
	if cfg.UseWeighted {
		s.hist = NewHistory()
	}
	s.est = &Estimator{
		Client: c,
		Design: cfg.Design,
		Start:  cfg.Start,
		Crawl:  crawl,
		Hist:   s.hist,
	}
	return s, nil
}

func (s *HarvestSampler) boot(step int) *ScaleBootstrap {
	b, ok := s.boots[step]
	if !ok {
		b = &ScaleBootstrap{}
		s.boots[step] = b
	}
	return b
}

// Harvest performs one forward walk and returns every accepted candidate
// along the path (possibly none). Queries are charged to the client.
func (s *HarvestSampler) Harvest() ([]int, error) {
	t := s.cfg.WalkLength
	path := walkForward(s.pathBuf, s.c, &s.cfg, s.hist, s.rng)
	s.pathBuf = path
	s.forwardSteps += int64(t)
	var out []int
	for tau := s.minStep; tau <= t; tau++ {
		s.attempts++
		v := path[tau]
		pHat, err := s.estimate(v, tau)
		if err != nil {
			return nil, err
		}
		q := s.cfg.Design.TargetWeight(s.c, v)
		if q <= 0 {
			continue
		}
		b := s.boot(tau)
		b.Observe(pHat / q)
		beta, err := b.AcceptProb(pHat, q)
		if err != nil {
			return nil, err
		}
		if s.rng.Float64() < beta {
			s.accepted++
			out = append(out, v)
		}
	}
	return out, nil
}

func (s *HarvestSampler) estimate(v, tau int) (float64, error) {
	reps := s.cfg.backwardReps()
	sum := 0.0
	for i := 0; i < reps; i++ {
		e, err := s.est.EstimateOnce(v, tau, s.rng)
		if err != nil {
			return 0, err
		}
		sum += e
	}
	return sum / float64(reps), nil
}

// walkForward runs one forward walk of cfg.WalkLength steps into buf and,
// when h is non-nil, records it, with the evidence rule of
// Sampler.walkBatch.
func walkForward(buf []int, c *osn.Client, cfg *Config, h *History, rng fastrand.RNG) []int {
	failed := c.FailedFetches()
	path := walk.PathInto(buf, c, cfg.Design, cfg.Start, cfg.WalkLength, rng)
	if h != nil {
		if !c.SymmetricView() || c.FailedFetches() != failed {
			c = nil // no evidence rows
		}
		h.record(path, c)
	}
	return path
}

// SampleN harvests walks until n samples are collected, returning them with
// the usual cost checkpoints. Walks that yield multiple samples record the
// same post-walk cost for each.
func (s *HarvestSampler) SampleN(n int) (walk.Result, error) {
	if n < 0 {
		return walk.Result{}, fmt.Errorf("core: negative sample count %d", n)
	}
	res := walk.Result{
		Nodes:     make([]int, 0, n),
		Steps:     make([]int, 0, n),
		CostAfter: make([]int64, 0, n),
	}
	for walks := 0; len(res.Nodes) < n; walks++ {
		if walks > s.cfg.maxAttempts() {
			return res, fmt.Errorf("core: harvest exceeded %d walks with only %d/%d samples",
				s.cfg.maxAttempts(), len(res.Nodes), n)
		}
		prevSteps := s.TotalSteps()
		got, err := s.Harvest()
		if err != nil {
			return res, err
		}
		stepsSpent := int(s.TotalSteps() - prevSteps)
		for _, v := range got {
			if len(res.Nodes) == n {
				break
			}
			res.Nodes = append(res.Nodes, v)
			res.Steps = append(res.Steps, stepsSpent)
			res.CostAfter = append(res.CostAfter, s.c.TotalQueries())
			stepsSpent = 0 // remaining samples of this walk were free
		}
	}
	return res, nil
}

// AcceptanceRate returns accepted/attempted candidates so far.
func (s *HarvestSampler) AcceptanceRate() float64 {
	if s.attempts == 0 {
		return 0
	}
	return float64(s.accepted) / float64(s.attempts)
}

// TotalSteps returns forward plus backward steps taken so far.
func (s *HarvestSampler) TotalSteps() int64 {
	return s.forwardSteps + s.est.StepsTaken
}
