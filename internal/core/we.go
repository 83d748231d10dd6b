package core

import (
	"context"
	"fmt"

	"repro/internal/fastrand"
	"repro/internal/osn"
	"repro/internal/walk"
)

// DrawVersion names the sampler's draw protocol: the map from (seed,
// config) to samples. A change that alters the draws bumps it. A
// service keys result digests and journaled streams by it, so a stream
// drawn by other code is never spliced with, or served for, this one.
//
// Version 2 gives every walk its own substream (forward walks from
// per-candidate seeds, backward walk r from repSeed) and tops up a noisy
// estimate in waves of walks. Version 3 let a batch's estimates read the
// WS-BW history of every batch dispatched so far. Version 4 deletes WS-BW:
// every backward pick is uniform, so every stream is version 3's stream
// with UseWeighted off, whatever UseWeighted says. Version 5 makes every
// width draw width 1's (version 4's) stream: see Sampler.draw. Version 1,
// which journal records without a version carry implicitly, drew every
// walk from the sampler's one stream.
const DrawVersion = 5

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
	// UseWeighted is accepted and has no effect: weighted backward
	// sampling (Section 5.3, WS-BW) is not implemented, because it saved
	// no queries on Figure 9 (EXPERIMENTS.md).
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
	boot ScaleBootstrap

	// OnSample, when set, is invoked synchronously for each accepted sample
	// of every sampling call, in acceptance order, from the calling
	// goroutine (the pipeline's consumer runs there). A service uses it to
	// stream accepted samples to clients while a job is still running. The
	// hook must not call back into the sampler.
	OnSample func(SampleEvent)

	// scalarKernel, when non-nil, overrides the kernel choice of the
	// sampling calls (see lockstep): true pins the scalar kernels, false
	// the lockstep ones, forward and backward alike. Both draw
	// bit-identical results; only the kernel-equivalence tests set it, to
	// run both kernels on one backend.
	scalarKernel *bool

	forwardSteps  int64
	backwardSteps int64
	attempts      int64
	accepted      int64

	// Pipeline state (see parallel.go): the batch being estimated and the
	// speculative next one, whose storage every attempt and call reuses,
	// the draws handed back, one substream per forward walk, the reusable
	// frontier buffer for batched prefetch, the estimation worker pool of a
	// width above 1, and the query charges of the pools it replaced.
	batches        [2][]pcand
	unused         []pcand
	fwd            []fastrand.Rand
	frontier       []int32
	workerEsts     []*Estimator
	retiredQueries int64
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
	s.est = &Estimator{Client: c, Design: cfg.Design, Start: cfg.Start, Crawl: crawl}
	return s, nil
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
	res, err := s.SampleN(1)
	if err != nil {
		return 0, err
	}
	return res.Nodes[0], nil
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
// substreams of these seeds. Draws a call left unconsumed (see run) go
// first, so the k-th candidate attempted takes the k-th triple at any width.
func (s *Sampler) draw(cd *pcand) {
	if len(s.unused) > 0 {
		*cd, s.unused = s.unused[0], s.unused[1:]
		return
	}
	cd.fwdSeed = s.rng.Int63()
	cd.Seed = s.rng.Int63()
	cd.acceptU = s.rng.Float64()
}

// walkBatch runs the forward walks of cands, walk i drawing from the
// substream fastrand.New(cands[i].fwdSeed), and leaves each candidate's V
// at its walk's endpoint. The walks advance together, step by step; in
// lockstep one Prefetch resolves each step's frontier first (and one more
// MHRW's proposals), otherwise each walk fetches its own lists. Both draw
// the same walks.
func (s *Sampler) walkBatch(cands []pcand, lockstep bool) {
	t := s.cfg.WalkLength
	for len(s.fwd) < len(cands) {
		s.fwd = append(s.fwd, fastrand.Rand{})
	}
	for i := range cands {
		s.fwd[i].Seed(cands[i].fwdSeed)
		cands[i].V = s.cfg.Start
	}
	lockstep = lockstep && len(cands) > 1 // one walk has no lockstep partner
	mhrw, isMHRW := s.cfg.Design.(walk.MHRW)
	for step := 0; step < t; step++ {
		if lockstep {
			s.frontier = s.frontier[:0]
			for i := range cands {
				s.frontier = append(s.frontier, int32(cands[i].V))
			}
			s.c.Prefetch(s.frontier)
			if isMHRW {
				// MHRW's step then reads its proposal's degree: learn each
				// proposal on a copy of the walk's substream and fetch
				// them together too.
				s.frontier = s.frontier[:0]
				for i := range cands {
					if nbr := s.c.Neighbors(cands[i].V); len(nbr) > 0 {
						peek := s.fwd[i]
						s.frontier = append(s.frontier, int32(mhrw.Propose(nbr, &peek)))
					}
				}
				s.c.Prefetch(s.frontier)
			}
		}
		for i := range cands {
			cands[i].V = s.cfg.Design.Step(s.c, cands[i].V, &s.fwd[i])
		}
	}
	s.forwardSteps += int64(len(cands) * t)
}

// estimate runs the backward estimates of cands on e — the lockstep kernel
// or the scalar oracle, which draw identically — and weighs every
// candidate that did not fail with its target weight q(v).
func (s *Sampler) estimate(e *Estimator, cands []pcand, lockstep bool) {
	t, baseReps, budget := s.cfg.WalkLength, s.cfg.backwardReps(), s.cfg.VarianceBudget
	if lockstep {
		heads := e.heads[:0]
		for i := range cands {
			heads = append(heads, &cands[i].BatchCand)
		}
		e.heads = heads
		EstimateAdaptiveBatch(e, heads, t, baseReps, budget)
	} else {
		for i := range cands {
			cd := &cands[i]
			pre := e.StepsTaken
			cd.PHat, cd.Err = EstimateAdaptive(e, cd.V, t, baseReps, budget, cd.Seed)
			cd.Steps = e.StepsTaken - pre
		}
	}
	for i := range cands {
		if cd := &cands[i]; cd.Err == nil {
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
// are bit-identical to SampleN — the context check consumes no RNG. It is
// the sampling pipeline (run) at width 1.
func (s *Sampler) SampleNCtx(ctx context.Context, n int) (walk.Result, error) {
	return s.run(ctx, n, 1)
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
	return s.forwardSteps + s.backwardSteps
}

// ForwardSteps returns the forward-walk steps taken so far.
func (s *Sampler) ForwardSteps() int64 { return s.forwardSteps }

// BackwardSteps returns the backward-walk steps taken so far.
func (s *Sampler) BackwardSteps() int64 { return s.backwardSteps }

// Queries returns the query charges of the sampler's own clients: its client
// plus the estimation workers' forks, those of replaced worker pools
// included. Under a shared cache each unique node is charged to exactly one
// client, so the Queries of samplers that share one cache add up to its
// fleet meter.
func (s *Sampler) Queries() int64 {
	q := s.c.Queries() + s.retiredQueries
	for _, e := range s.workerEsts {
		q += e.Client.Queries()
	}
	return q
}
