package core

import (
	"context"
	"fmt"

	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// DrawVersion names the sampler's draw protocol: the map from (seed,
// config, workers) to samples. A change that alters the draws bumps it. A
// service keys result digests and journaled streams by it, so a stream
// drawn by other code is never spliced with, or served for, this one.
//
// Version 2 gives every walk its own substream (forward walks from
// per-candidate seeds, backward walk r from repSeed) and tops up a noisy
// estimate in waves of walks. Version 1, which journal records without a version
// carry implicitly, drew every walk from the sampler's one stream.
const DrawVersion = 2

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
	// estimate; zero means DefaultBackwardReps. At most
	// MaxWalksPerCandidate.
	BackwardReps int
	// VarianceBudget bounds the top-up walks per candidate: when a
	// candidate's BackwardReps base walks leave its estimate noisy
	// (relative standard error above 1, or a zero mean), it runs up to
	// VarianceBudget more backward walks in waves — 8 (or the budget if
	// smaller), then as many as it ran so far — until the estimate settles;
	// zero disables the top-up. This realizes Algorithm 3's
	// variance-driven budget allocation per candidate (EstimateAdaptive and
	// its lockstep form EstimateAdaptiveBatch). Every walk of a wave is
	// paid even when the estimate settles on its first walks, so a
	// candidate that uses u top-up walks pays up to max(8, 2u); see
	// EXPERIMENTS.md for walks per candidate at several budgets. At most
	// MaxWalksPerCandidate.
	VarianceBudget int
	// MaxAttempts bounds rejection rounds per sample; zero means 10000.
	MaxAttempts int
}

// DefaultBackwardReps is the base number of backward walks per candidate
// when Config.BackwardReps is zero.
const DefaultBackwardReps = 3

// MaxWalksPerCandidate bounds Config.BackwardReps and VarianceBudget. The
// lockstep kernel holds one lane per walk of a wave for every candidate in
// flight, so an unbounded count is an unbounded allocation.
const MaxWalksPerCandidate = 1024

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
	if c.BackwardReps > MaxWalksPerCandidate {
		return fmt.Errorf("core: BackwardReps must be at most %d, got %d", MaxWalksPerCandidate, c.BackwardReps)
	}
	if c.VarianceBudget < 0 || c.VarianceBudget > MaxWalksPerCandidate {
		return fmt.Errorf("core: VarianceBudget must lie in [0, %d], got %d", MaxWalksPerCandidate, c.VarianceBudget)
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
		return DefaultBackwardReps
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

	// scalarKernel, when non-nil, overrides the kernel choice of SampleN
	// and SampleNParallel (see lockstep): true pins the scalar kernels,
	// false the lockstep ones, forward and backward alike. Both draw
	// bit-identical results; only the kernel-equivalence tests set it, to
	// run both kernels on one backend.
	scalarKernel *bool

	forwardSteps int64
	attempts     int64
	accepted     int64

	// Forward-walk state (walkBatch): the batch's paths, back to back, and
	// one substream per walk. seq is SampleN's one-candidate batch and bcs
	// its lane headers (estimate).
	paths []int
	fwd   []fastrand.Rand
	seq   [1]*pcand
	bcs   []*BatchCand

	// Parallel-engine state (see parallel.go): the persistent worker pool,
	// the frozen WS-BW history the estimation workers read (nil without
	// the heuristic), the live walk count its latest refresh was decided
	// at, and the reusable frontier buffer for batched prefetch.
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
	s := &Sampler{cfg: cfg, c: c, rng: rng, seq: [1]*pcand{{}}}
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
	lockstep := s.lockstep()
	cands := s.seq[:]
	cd := cands[0]
	for attempt := 0; attempt < s.cfg.maxAttempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			// Cause, not Err: a typed backend failure that cancelled the
			// job context surfaces as itself.
			return 0, context.Cause(ctx)
		}
		s.attempts++
		s.draw(cd)
		// One walk has no lockstep partner: the scalar forward kernel.
		s.walkBatch(cands, false)
		s.estimate(s.est, cands, lockstep, &s.bcs)
		if cd.Err != nil {
			return 0, cd.Err
		}
		if cd.q <= 0 {
			continue // invisible-degree node; cannot weigh it, skip
		}
		s.boot.Observe(cd.PHat / cd.q)
		beta, err := s.boot.AcceptProb(cd.PHat, cd.q)
		if err != nil {
			return 0, err
		}
		if cd.acceptU < beta {
			s.accepted++
			return cd.V, nil
		}
	}
	return 0, fmt.Errorf("core: no candidate accepted after %d attempts (walk length %d likely far too short for this graph)", s.cfg.maxAttempts(), s.cfg.WalkLength)
}

// lockstep reports whether the sampler runs its lockstep kernels: when the
// backend answers batch requests concurrently, batching turns a round trip
// per walker step into one per design step; on a local backend a batch is
// just a loop and the lane bookkeeping is measured pure overhead. The
// scalar and lockstep kernels draw bit-identical results.
func (s *Sampler) lockstep() bool {
	if s.scalarKernel != nil {
		return !*s.scalarKernel
	}
	return s.c.ConcurrentBatch()
}

// draw takes a candidate's three draws from the sampler stream: the seed of
// its forward walk, the seed of its backward walks and the uniform of its
// acceptance test. Everything else the candidate draws comes from
// substreams of these seeds.
func (s *Sampler) draw(cd *pcand) {
	cd.fwdSeed = s.rng.Int63()
	cd.Seed = s.rng.Int63()
	cd.acceptU = s.rng.Float64()
}

// walkBatch runs the forward walks of cands, walk i drawing from the
// substream fastrand.New(cands[i].fwdSeed), sets each candidate to its
// walk's endpoint and records the walks into the WS-BW history in
// candidate order, so the history is a function of the walks, not of how
// they ran. The walks advance together, step by step; in lockstep one
// Prefetch resolves each step's frontier first (and one more MHRW's
// proposals), otherwise each walk fetches its own lists. Both draw the
// same paths.
//
// A walk's evidence rows are recorded only on a symmetric view and only
// when every list the batch stepped from was fetched: a failed fetch is not
// cached, and re-reading its list would go back to the backend.
func (s *Sampler) walkBatch(cands []*pcand, lockstep bool) {
	t := s.cfg.WalkLength
	n := t + 1
	if cap(s.paths) < len(cands)*n {
		s.paths = make([]int, len(cands)*n)
	}
	paths := s.paths[:len(cands)*n]
	for len(s.fwd) < len(cands) {
		s.fwd = append(s.fwd, fastrand.Rand{})
	}
	failed := s.c.FailedFetches()
	for i, cd := range cands {
		s.fwd[i].Seed(cd.fwdSeed)
		paths[i*n] = s.cfg.Start
	}
	mhrw, isMHRW := s.cfg.Design.(walk.MHRW)
	for step := 0; step < t; step++ {
		if lockstep {
			s.frontier = s.frontier[:0]
			for i := range cands {
				s.frontier = append(s.frontier, int32(paths[i*n+step]))
			}
			s.c.Prefetch(s.frontier)
			if isMHRW {
				// MHRW's step then reads its proposal's degree: learn each
				// proposal on a copy of the walk's substream and fetch
				// them together too.
				s.frontier = s.frontier[:0]
				for i := range cands {
					if nbr := s.c.Neighbors(paths[i*n+step]); len(nbr) > 0 {
						peek := s.fwd[i]
						s.frontier = append(s.frontier, int32(mhrw.Propose(nbr, &peek)))
					}
				}
				s.c.Prefetch(s.frontier)
			}
		}
		for i := range cands {
			paths[i*n+step+1] = s.cfg.Design.Step(s.c, paths[i*n+step], &s.fwd[i])
		}
	}
	s.forwardSteps += int64(len(cands) * t)
	ev := s.c
	if !s.c.SymmetricView() || s.c.FailedFetches() != failed {
		ev = nil // no evidence rows
	}
	for i, cd := range cands {
		path := paths[i*n : (i+1)*n]
		cd.V = path[t]
		if s.hist != nil {
			s.hist.record(path, ev)
		}
	}
}

// estimate runs the backward estimates of cands on e — the lockstep kernel
// or the scalar oracle, which draw identically — and weighs every
// candidate that did not fail with its target weight q(v). bcs is the
// caller's reusable buffer of lane headers.
func (s *Sampler) estimate(e *Estimator, cands []*pcand, lockstep bool, bcs *[]*BatchCand) {
	t, baseReps, budget := s.cfg.WalkLength, s.cfg.backwardReps(), s.cfg.VarianceBudget
	if lockstep {
		b := (*bcs)[:0]
		for _, cd := range cands {
			b = append(b, &cd.BatchCand)
		}
		*bcs = b
		EstimateAdaptiveBatch(e, b, t, baseReps, budget)
	} else {
		for _, cd := range cands {
			pre := e.StepsTaken
			cd.PHat, cd.Err = EstimateAdaptive(e, cd.V, t, baseReps, budget, cd.Seed)
			cd.Steps = e.StepsTaken - pre
		}
	}
	for _, cd := range cands {
		if cd.Err == nil {
			cd.q = s.cfg.Design.TargetWeight(e.Client, cd.V)
		}
	}
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
	if n < 0 {
		return walk.Result{}, fmt.Errorf("core: negative sample count %d", n)
	}
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
