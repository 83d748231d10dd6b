package walknotwait

import (
	"math/rand"

	"repro/internal/agg"
	"repro/internal/linalg"
)

// EstimateMean estimates the population AVG of an attribute from sampled
// nodes, choosing the correct estimator for the design's target
// distribution: arithmetic mean for uniform targets (MHRW), the
// importance-weighted ratio estimator for degree-proportional targets (SRW).
func EstimateMean(c *Client, d Design, attr string, nodes []int) (float64, error) {
	return agg.EstimateMean(c, d, attr, nodes)
}

// RelativeError is the paper's error measure |x̃ − x| / x.
func RelativeError(estimate, truth float64) float64 { return agg.RelativeError(estimate, truth) }

// EffectiveSampleSize implements Equation 25 for correlated one-long-run
// samples: M = h / (1 + 2·Σ ρ_k).
func EffectiveSampleSize(xs []float64, maxLag int) (float64, error) {
	return agg.EffectiveSampleSize(xs, maxLag)
}

// TransitionMatrix is a sparse row-stochastic Markov transition matrix over
// graph nodes, used by the full-topology oracles (exact p_t evolution,
// burn-in, spectral gap). These require the whole graph and exist for
// analysis and validation, not for query-limited sampling.
type TransitionMatrix = linalg.Matrix

// NewSRWMatrix builds the SRW transition matrix of a graph.
func NewSRWMatrix(g *Graph) *TransitionMatrix { return linalg.NewSRW(g) }

// NewMHRWMatrix builds the MHRW (uniform-target) transition matrix.
func NewMHRWMatrix(g *Graph) *TransitionMatrix { return linalg.NewMHRW(g) }

// Lazify returns α·I + (1−α)·T: same stationary distribution, guaranteed
// aperiodicity.
func Lazify(m *TransitionMatrix, alpha float64) *TransitionMatrix {
	return linalg.Lazify(m, alpha)
}

// SRWStationary returns π(v) = d(v)/2|E|, the SRW stationary distribution.
func SRWStationary(g *Graph) ([]float64, error) { return linalg.SRWStationary(g) }

// UniformStationary returns the uniform distribution over n nodes.
func UniformStationary(n int) []float64 { return linalg.UniformStationary(n) }

// SpectralGap computes λ = 1 − s₂ of a reversible transition matrix with
// stationary distribution pi, by deflated power iteration.
func SpectralGap(m *TransitionMatrix, pi []float64, iters int, rng *rand.Rand) (float64, error) {
	return m.SpectralGap(pi, iters, rng)
}
