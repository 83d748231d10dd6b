package core

import (
	"context"
	"fmt"

	"repro/internal/fastrand"
	"repro/internal/mathx"
	"repro/internal/osn"
	"repro/internal/walk"
)

// Config parameterizes a WALK-ESTIMATE sampler. The zero value is not
// usable: Design, Start and WalkLength must be set. Defaults follow the
// paper's experimental settings (Section 7.1).
type Config struct {
	// Design is the input MCMC sampler WE replaces (SRW or MHRW). WE
	// produces samples from the same target distribution.
	Design walk.Design
	// Start is the walk's starting node.
	Start int
	// WalkLength is t, the fixed number of forward steps per candidate.
	// The paper sets it to 2·D̄+1 where D̄ is a conservative diameter
	// estimate (e.g. 15 for Google Plus with D̄ = 7).
	WalkLength int
	// UseCrawl enables the initial-crawling heuristic (Section 5.2).
	UseCrawl bool
	// CrawlHops is h, the crawl radius; zero means 2 (the paper's default
	// for most datasets; it uses 1 for the dense Google Plus graph).
	CrawlHops int
	// Crawl, when non-nil, is a prebuilt crawl table the sampler reuses
	// instead of crawling the h-ball itself (implies the crawling
	// heuristic). A long-lived service builds the table once per
	// (design, start, hops) and injects it into every subsequent job: the
	// table is a deterministic function of the graph and those parameters,
	// so injection leaves each job's sample sequence bit-identical to one
	// that crawled itself — only the crawl's query charges are saved.
	Crawl *CrawlTable
	// UseWeighted enables the weighted backward sampling heuristic
	// (Section 5.3).
	UseWeighted bool
	// BackwardReps is the base number of backward walks per candidate
	// estimate; zero means 3.
	BackwardReps int
	// VarianceBudget caps the extra adaptive backward walks spent when an
	// estimate is still noisy (relative standard error above 1); zero
	// disables the top-up. This realizes Algorithm 3's variance-driven
	// budget allocation in the per-candidate sampling loop (EstimateAdaptive
	// and its vectorized form EstimateAdaptiveBatch).
	VarianceBudget int
	// MaxAttempts bounds rejection rounds per sample; zero means 10000.
	MaxAttempts int
}

func (c *Config) validate() error {
	if c.Design == nil {
		return fmt.Errorf("core: Config.Design is required")
	}
	if c.WalkLength < 1 {
		return fmt.Errorf("core: WalkLength must be >= 1, got %d", c.WalkLength)
	}
	if c.Start < 0 {
		return fmt.Errorf("core: Start must be a node id, got %d", c.Start)
	}
	return nil
}

func (c *Config) crawlHops() int {
	if c.CrawlHops <= 0 {
		return 2
	}
	return c.CrawlHops
}

func (c *Config) backwardReps() int {
	if c.BackwardReps <= 0 {
		return 3
	}
	return c.BackwardReps
}

func (c *Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 10000
	}
	return c.MaxAttempts
}

// Sampler is the composed WALK-ESTIMATE sampler (Algorithm overview in
// Section 3): short forward walk → backward probability estimate →
// acceptance-rejection against the input design's target distribution.
// Create with NewSampler; not safe for concurrent use.
type Sampler struct {
	cfg  Config
	c    *osn.Client
	rng  fastrand.RNG
	est  *Estimator
	hist *History
	boot ScaleBootstrap

	// OnSample, when set, is invoked synchronously for each accepted sample
	// of SampleN/SampleNCtx and SampleNParallel/SampleNParallelCtx, in
	// acceptance order, from the sampler's own goroutine (the parallel
	// engine's consumer runs on the calling goroutine too). A service uses
	// it to stream accepted samples to clients while a job is still
	// running. The hook must not call back into the sampler.
	OnSample func(SampleEvent)

	// scalarKernel, when non-nil, overrides SampleNParallel's worker-kernel
	// auto-selection: true pins the scalar loop, false the batch kernel.
	// Both draw bit-identical results; only the kernel-equivalence tests
	// set it, to run both kernels on every backend.
	scalarKernel *bool

	forwardSteps int64
	attempts     int64
	accepted     int64

	// pathBuf is the reusable forward-walk buffer: every walk of a run has
	// the same length, so the sampler records paths through one buffer
	// instead of allocating per walk (walk.PathInto).
	pathBuf []int

	// Parallel-engine state (see parallel.go): the persistent worker pool,
	// the frozen WS-BW history the estimation workers read (nil without
	// the heuristic), the live walk count its latest refresh was decided
	// at, and the reusable candidate-frontier buffer for batched prefetch.
	workerEsts []*Estimator
	snapHist   *History
	snapWalks  int
	frontier   []int32
}

// NewSampler builds a WALK-ESTIMATE sampler over the given metered client.
// If cfg.UseCrawl is set, the initial crawl happens here and its queries are
// charged to the client immediately.
func NewSampler(c *osn.Client, cfg Config, rng fastrand.RNG) (*Sampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sampler{cfg: cfg, c: c, rng: rng}
	crawl := cfg.Crawl
	if crawl == nil && cfg.UseCrawl {
		var err error
		crawl, err = BuildCrawlTable(c, cfg.Design, cfg.Start, cfg.crawlHops())
		if err != nil {
			return nil, err
		}
	}
	if cfg.UseWeighted {
		s.hist, s.snapHist = NewHistory(), NewHistory()
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

// ReleasePages returns every history page the sampler still holds — the
// live WS-BW history and the workers' frozen copy — to the page pool, so a
// service recycles them into the next job's history.
// Call it only after the sampling calls have returned (SampleN* quiesce
// their workers before returning, so nothing can still be reading the
// pages) and treat it as terminal: drawing further samples afterwards is
// valid but restarts the weighted heuristic from an empty history.
func (s *Sampler) ReleasePages() {
	if s.hist != nil {
		s.hist.Release()
		s.snapHist.Release()
		s.snapWalks = 0
	}
}

// SampleEvent describes one accepted sample, in the shape of one row of a
// walk.Result: its index in the run, the node, the walk steps spent since
// the previous acceptance, and the fleet-wide query cost right after it.
type SampleEvent struct {
	Index     int
	Node      int
	Steps     int
	CostAfter int64
}

// Sample draws one node from the target distribution. It walks, estimates,
// and rejects until a candidate is accepted (bounded by MaxAttempts).
func (s *Sampler) Sample() (int, error) {
	return s.sample(context.Background())
}

// sample is Sample with a cancellation context, checked once per rejection
// attempt — the natural quantum of the sequential sampler: after a cancelled
// check, no further forward walk or backward estimate is started, so no
// further query is charged. The check consumes no RNG, so runs that complete
// are bit-identical with and without a context.
func (s *Sampler) sample(ctx context.Context) (int, error) {
	t := s.cfg.WalkLength
	for attempt := 0; attempt < s.cfg.maxAttempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			// Cause, not Err: a typed backend failure that cancelled the
			// job context surfaces as itself.
			return 0, context.Cause(ctx)
		}
		s.attempts++
		path := walkForward(s.pathBuf, s.c, &s.cfg, s.hist, s.rng)
		s.pathBuf = path
		s.forwardSteps += int64(t)
		v := path[len(path)-1]

		pHat, err := s.estimateCandidate(v, t)
		if err != nil {
			return 0, err
		}
		q := s.cfg.Design.TargetWeight(s.c, v)
		if q <= 0 {
			continue // invisible-degree node; cannot weigh it, skip
		}
		s.boot.Observe(pHat / q)
		beta, err := s.boot.AcceptProb(pHat, q)
		if err != nil {
			return 0, err
		}
		if s.rng.Float64() < beta {
			s.accepted++
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: no candidate accepted after %d attempts (walk length %d likely far too short for this graph)", s.cfg.maxAttempts(), t)
}

// walkForward runs one forward walk of cfg.WalkLength steps into buf and,
// when h is non-nil, records it. The walk's evidence rows are recorded only
// on a symmetric view and only when every list the walk stepped from was
// fetched: a failed fetch is not cached, and re-reading its list would go
// back to the backend.
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

// estimateCandidate runs the base backward repetitions plus the adaptive
// variance top-up for a single candidate.
func (s *Sampler) estimateCandidate(v, t int) (float64, error) {
	return EstimateAdaptive(s.est, v, t, s.cfg.backwardReps(), s.cfg.VarianceBudget, s.rng)
}

// EstimateAdaptive estimates p_t(v) with baseReps backward walks plus up to
// varianceBudget adaptive top-up walks, stopping early once the relative
// standard error drops to 1 (the per-candidate form of Algorithm 3's
// variance-driven budget allocation).
func EstimateAdaptive(e *Estimator, v, t, baseReps, varianceBudget int, rng fastrand.RNG) (float64, error) {
	var m mathx.Moments
	for i := 0; i < baseReps; i++ {
		est, err := e.EstimateOnce(v, t, rng)
		if err != nil {
			return 0, err
		}
		m.Add(est)
	}
	for extra := 0; extra < varianceBudget; extra++ {
		mean := m.Mean()
		if mean > 0 && m.StdDev()/mean <= 1 {
			break
		}
		est, err := e.EstimateOnce(v, t, rng)
		if err != nil {
			return 0, err
		}
		m.Add(est)
	}
	return m.Mean(), nil
}

// SampleN draws n samples, recording the cumulative query cost and total
// walk steps (forward + backward) after each, in the same shape the
// traditional samplers report.
func (s *Sampler) SampleN(n int) (walk.Result, error) {
	return s.SampleNCtx(context.Background(), n)
}

// SampleNCtx is SampleN with cancellation: once ctx is cancelled the sampler
// returns ctx's error before starting another rejection attempt, so at most
// one in-flight candidate's queries are still charged. Runs that complete
// are bit-identical to SampleN — the context check consumes no RNG.
func (s *Sampler) SampleNCtx(ctx context.Context, n int) (walk.Result, error) {
	res := walk.Result{
		Nodes:     make([]int, 0, n),
		Steps:     make([]int, 0, n),
		CostAfter: make([]int64, 0, n),
	}
	for i := 0; i < n; i++ {
		prevSteps := s.TotalSteps()
		v, err := s.sample(ctx)
		if err != nil {
			return res, err
		}
		res.Nodes = append(res.Nodes, v)
		res.Steps = append(res.Steps, int(s.TotalSteps()-prevSteps))
		// TotalQueries, not Queries: identical for a never-forked client,
		// but keeps the cost axis consistent (and monotone) when sequential
		// and parallel draws are mixed on one sampler.
		res.CostAfter = append(res.CostAfter, s.c.TotalQueries())
		if s.OnSample != nil {
			s.OnSample(SampleEvent{Index: i, Node: v,
				Steps: res.Steps[i], CostAfter: res.CostAfter[i]})
		}
	}
	return res, nil
}

// AcceptanceRate returns accepted/attempted candidates so far (0 before the
// first sample).
func (s *Sampler) AcceptanceRate() float64 {
	if s.attempts == 0 {
		return 0
	}
	return float64(s.accepted) / float64(s.attempts)
}

// TotalSteps returns forward plus backward walk steps taken so far — the
// y-axis of Figure 5.
func (s *Sampler) TotalSteps() int64 {
	return s.forwardSteps + s.est.StepsTaken
}

// ForwardSteps returns the forward-walk steps taken so far.
func (s *Sampler) ForwardSteps() int64 { return s.forwardSteps }

// BackwardSteps returns the backward-walk steps taken so far.
func (s *Sampler) BackwardSteps() int64 { return s.est.StepsTaken }

// Queries returns the query charges of the sampler's own clients: its client
// plus the estimation workers' forks. Under a shared cache each unique node
// is charged to exactly one client, so the Queries of samplers that share
// one cache add up to its fleet meter.
func (s *Sampler) Queries() int64 {
	q := s.c.Queries()
	for _, e := range s.workerEsts {
		q += e.Client.Queries()
	}
	return q
}
