package walknotwait

import (
	"repro/internal/core"
	"repro/internal/walk"
)

// Design is an MCMC transition design driven through the restricted
// interface: SRW and MHRW are provided; custom designs implement the same
// interface.
type Design = walk.Design

// SimpleRandomWalk returns the Simple Random Walk design (Definition 1):
// uniform transitions, degree-proportional stationary distribution.
func SimpleRandomWalk() Design { return walk.SRW{} }

// MetropolisHastings returns the Metropolis–Hastings Random Walk design
// (Definition 2) with uniform target distribution.
func MetropolisHastings() Design { return walk.MHRW{} }

// DesignByName resolves "SRW" or "MHRW" (case-insensitive).
func DesignByName(name string) (Design, error) { return walk.ByName(name) }

// SampleResult is the output of a sampling run: nodes, per-sample walk
// steps, and cumulative query cost after each sample.
type SampleResult = walk.Result

// Monitor decides when a growing walk has burned in.
type Monitor = walk.Monitor

// Geweke is the convergence monitor of Section 2.2.3 (first-10% vs last-50%
// window comparison; the paper's default threshold is 0.1).
type Geweke = walk.Geweke

// FixedBurnIn is the conservative fixed-length burn-in monitor.
type FixedBurnIn = walk.FixedBurnIn

// ManyShortRuns draws count samples with the traditional scheme: one walk
// per sample, each run until the monitor declares burn-in.
func ManyShortRuns(c *Client, d Design, start, count int, m Monitor, maxSteps int, rng RNG) (SampleResult, error) {
	return walk.ManyShortRuns(c, d, start, count, m, maxSteps, rng)
}

// OneLongRun draws count samples from a single walk after one burn-in,
// taking every thin-th node (Section 6.1; samples are correlated — see
// EffectiveSampleSize).
func OneLongRun(c *Client, d Design, start, burnIn, count, thin int, rng RNG) (SampleResult, error) {
	return walk.OneLongRun(c, d, start, burnIn, count, thin, rng)
}

// WalkPath performs a fixed-length walk and returns the visited nodes.
func WalkPath(c *Client, d Design, start, steps int, rng RNG) []int {
	return walk.Path(c, d, start, steps, rng)
}

// WEConfig parameterizes a WALK-ESTIMATE sampler: the input design, start
// node, short-walk length (2·D̄+1 recommended), and the variance-reduction
// heuristics (initial crawling, weighted backward sampling).
type WEConfig = core.Config

// WESampler is the WALK-ESTIMATE sampler — the paper's primary
// contribution. It samples from the input design's target distribution at a
// fraction of the query cost of waiting for burn-in. Besides the sequential
// Sample/SampleN, it offers SampleNParallel(n, workers), which fans the
// backward estimates across a worker pool over a shared neighbor cache and
// is deterministic per (seed, workers); see DESIGN.md for the concurrency
// model. SampleNCtx/SampleNParallelCtx add cancellation (a cancelled run
// stops charging queries within one batch and returns the context's error;
// completed runs are bit-identical to the context-free forms), and the
// OnSample hook streams accepted samples as they are produced — the two
// primitives the serving layer builds on.
type WESampler = core.Sampler

// WESampleEvent describes one accepted sample delivered to the OnSample
// hook: index, node, walk steps since the previous acceptance, and the
// fleet-wide query cost right after it.
type WESampleEvent = core.SampleEvent

// NewWalkEstimate builds a WALK-ESTIMATE sampler over a metered client.
func NewWalkEstimate(c *Client, cfg WEConfig, rng RNG) (*WESampler, error) {
	return core.NewSampler(c, cfg, rng)
}

// Estimator is the backward-walk sampling-probability estimator
// (UNBIASED-ESTIMATE / WS-BW, Section 5); exposed for advanced use such as
// estimating p_t(v) for nodes of interest directly.
type Estimator = core.Estimator

// EstimateAll is the batch form of Algorithm 3 (ESTIMATE): baseReps backward
// walks per node plus extraBudget walks allocated by estimation variance.
func EstimateAll(e *Estimator, nodes []int, t, baseReps, extraBudget int, rng RNG) (map[int]float64, error) {
	return core.EstimateAll(e, nodes, t, baseReps, extraBudget, rng)
}

// EstimateAdaptive estimates p_t(v) with baseReps backward walks plus up to
// varianceBudget adaptive top-ups (the scalar per-candidate loop the
// WALK-ESTIMATE sampler runs).
func EstimateAdaptive(e *Estimator, v, t, baseReps, varianceBudget int, rng RNG) (float64, error) {
	return core.EstimateAdaptive(e, v, t, baseReps, varianceBudget, rng)
}

// WEBatchCand is one candidate lane of EstimateAdaptiveBatch: the caller
// sets V and RNG (one private stream per candidate), the kernel fills PHat,
// Steps, and Err.
type WEBatchCand = core.BatchCand

// EstimateAdaptiveBatch is EstimateAdaptive over a vector of candidates,
// advanced in lockstep design steps: each step resolves the whole walker
// frontier with one batched neighbor fetch (one shared-cache pass, one
// backend round trip) instead of one lookup per walker. Per candidate it is
// bit-identical to EstimateAdaptive seeded the same way — same estimates,
// same step counts, same query charges.
func EstimateAdaptiveBatch(e *Estimator, cands []*WEBatchCand, t, baseReps, varianceBudget int) {
	core.EstimateAdaptiveBatch(e, cands, t, baseReps, varianceBudget)
}

// CrawlTable holds exact step-τ probabilities inside the crawled h-hop ball
// around the start node (initial-crawling heuristic, Section 5.2).
type CrawlTable = core.CrawlTable

// BuildCrawlTable crawls the h-hop ball around start and computes exact
// p_τ tables for τ ≤ h under the given design.
func BuildCrawlTable(c *Client, d Design, start, h int) (*CrawlTable, error) {
	return core.BuildCrawlTable(c, d, start, h)
}

// History records forward-walk hits for the weighted backward sampling
// heuristic (Section 5.3). Counters are paged, so its memory is bounded by
// the visited mass, not the graph's id space, and pages are recycled
// through a process-wide pool (History.Release, WESampler.ReleasePages).
type History = core.History

// NewHistory returns an empty forward-walk history.
func NewHistory() *History { return core.NewHistory() }

// Theorem1 bundles the closed forms of the paper's Theorem 1: optimal walk
// length (Lambert W), plain-walk cost, and the guaranteed saving bound.
type Theorem1 = core.Theorem1

// HarvestSampler is the Section 6.1 extension the paper leaves as future
// work: WALK-ESTIMATE applied to every node along each forward walk, not
// just the final one, amortizing the forward-walk cost across multiple
// candidates per path.
type HarvestSampler = core.HarvestSampler

// NewHarvestSampler builds the path-harvesting WALK-ESTIMATE variant.
// minStep (0 = half the walk length) is the first harvested step.
func NewHarvestSampler(c *Client, cfg WEConfig, minStep int, rng RNG) (*HarvestSampler, error) {
	return core.NewHarvestSampler(c, cfg, minStep, rng)
}

// NBWalker is the non-backtracking random walk (Lee–Xu–Eun, the paper's
// related-work baseline [24]): same degree-proportional node marginal as
// SRW, faster mixing. A baseline sampler, not a WE input design (its state
// is an edge, so the backward estimator does not apply).
type NBWalker = walk.NBWalker

// NewNBWalker starts a non-backtracking walk at the given node.
func NewNBWalker(start int) *NBWalker { return walk.NewNBWalker(start) }

// NBManyShortRuns is ManyShortRuns with the non-backtracking walk.
func NBManyShortRuns(c *Client, start, count int, m Monitor, maxSteps int, rng RNG) (SampleResult, error) {
	return walk.NBManyShortRuns(c, start, count, m, maxSteps, rng)
}

// GelmanRubin computes the potential scale reduction factor R̂ over multiple
// chains' attribute traces (values near 1 indicate mixing; threshold 1.1).
func GelmanRubin(chains [][]float64) (float64, error) { return walk.GelmanRubin(chains) }

// GelmanRubinMonitor is the multi-chain convergence monitor based on R̂.
type GelmanRubinMonitor = walk.GelmanRubinMonitor

// ParallelResult aggregates a multi-worker sampling run.
type ParallelResult = walk.ParallelResult

// ParallelShortRuns runs many-short-runs on several goroutines, each with
// its own metered client and starting node (multiple crawler identities).
func ParallelShortRuns(net *Network, d Design, starts []int, countPer int, m Monitor, maxSteps, workers int, seed int64) (ParallelResult, error) {
	return walk.ParallelShortRuns(net, d, starts, countPer, m, maxSteps, workers, seed)
}
