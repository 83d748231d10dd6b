// Package stats provides the distribution-distance measures and empirical
// distribution machinery behind the paper's exact-bias experiments
// (Table 1 and Figure 12): ℓ∞/variation distance, KL divergence, empirical
// sampling distributions (PDF/CDF over nodes ordered by descending degree),
// and histogram utilities.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// LInf returns the ℓ∞ (maximum absolute difference) distance between two
// distributions of equal length — the paper's "variation distance" vector
// norm.
func LInf(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(p), len(q))
	}
	worst := 0.0
	for i := range p {
		if d := math.Abs(p[i] - q[i]); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// KL returns the Kullback–Leibler divergence D(p‖q) = Σ p_i·log(p_i/q_i),
// in nats. Terms with p_i = 0 contribute 0. If some p_i > 0 has q_i = 0 the
// divergence is +Inf; use KLSmoothed when q is an empirical distribution
// that may have unvisited nodes.
func KL(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(p), len(q))
	}
	sum := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if p[i] < 0 || q[i] < 0 {
			return 0, fmt.Errorf("stats: negative probability at %d", i)
		}
		if q[i] == 0 {
			return math.Inf(1), nil
		}
		sum += p[i] * math.Log(p[i]/q[i])
	}
	return sum, nil
}

// KLSmoothed computes D(p‖q̃) where q̃ mixes q with the uniform
// distribution: q̃ = (1−eps)·q + eps/n. This keeps the divergence finite for
// empirical q with zero-count cells (additive smoothing).
func KLSmoothed(p, q []float64, eps float64) (float64, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("stats: smoothing eps %v outside (0,1)", eps)
	}
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(p), len(q))
	}
	n := float64(len(p))
	qs := make([]float64, len(q))
	for i := range q {
		qs[i] = (1-eps)*q[i] + eps/n
	}
	return KL(p, qs)
}

// Empirical converts a multiset of sampled node ids into an empirical
// probability distribution over n nodes. Ids outside [0,n) are rejected.
func Empirical(samples []int, n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("stats: need positive n")
	}
	if len(samples) == 0 {
		return nil, errors.New("stats: no samples")
	}
	p := make([]float64, n)
	w := 1 / float64(len(samples))
	for _, v := range samples {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("stats: sample id %d outside [0,%d)", v, n)
		}
		p[v] += w
	}
	return p, nil
}

// DegreeDescOrder returns node ids sorted by descending degree (ties by
// ascending id) — the x-axis ordering of Figure 12.
func DegreeDescOrder(g *graph.Graph) []int {
	order := make([]int, g.NumNodes())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order
}

// Reorder returns p permuted so that out[i] = p[order[i]].
func Reorder(p []float64, order []int) ([]float64, error) {
	if len(p) != len(order) {
		return nil, fmt.Errorf("stats: length mismatch %d vs %d", len(p), len(order))
	}
	out := make([]float64, len(p))
	for i, idx := range order {
		if idx < 0 || idx >= len(p) {
			return nil, fmt.Errorf("stats: order index %d out of range", idx)
		}
		out[i] = p[idx]
	}
	return out, nil
}

// CDF returns the cumulative sums of p (the Figure 12(b) curve).
func CDF(p []float64) []float64 {
	out := make([]float64, len(p))
	acc := 0.0
	for i, v := range p {
		acc += v
		out[i] = acc
	}
	return out
}
