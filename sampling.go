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

// NewWalkEstimate builds a WALK-ESTIMATE sampler over a metered client.
func NewWalkEstimate(c *Client, cfg WEConfig, rng RNG) (*WESampler, error) {
	return core.NewSampler(c, cfg, rng)
}

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
