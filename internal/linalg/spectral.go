package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// BurnIn returns the smallest t <= tmax with Δ(t) <= eps (Definition 3's
// burn-in period), or tmax+1 if the chain has not mixed by tmax. It evolves
// all n rows simultaneously, O(tmax·n·nnz) total.
func (m *Matrix) BurnIn(pi []float64, eps float64, tmax int) int {
	n := m.n
	rows := make([][]float64, n)
	next := make([][]float64, n)
	for u := 0; u < n; u++ {
		rows[u] = make([]float64, n)
		rows[u][u] = 1
		next[u] = make([]float64, n)
	}
	for t := 1; t <= tmax; t++ {
		worst := 0.0
		for u := 0; u < n; u++ {
			m.EvolveInto(next[u], rows[u])
			rows[u], next[u] = next[u], rows[u]
			for v, pv := range rows[u] {
				if d := math.Abs(pv-pi[v]) / pi[v]; d > worst {
					worst = d
				}
			}
		}
		if worst <= eps {
			return t
		}
	}
	return tmax + 1
}

// MinMax returns the smallest and largest entries of a distribution
// (Figure 1's "Min Prob"/"Max Prob" series).
func MinMax(p []float64) (min, max float64) {
	if len(p) == 0 {
		return 0, 0
	}
	min, max = p[0], p[0]
	for _, v := range p[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// SpectralGap computes λ = 1 − s₂ where s₂ is the second-largest (algebraic)
// eigenvalue of the transition matrix, assuming the chain is reversible with
// respect to the stationary distribution pi (true for SRW and MHRW). It
// power-iterates the similarity-symmetrized half-shifted operator
// B = (S+I)/2, S = D_π^{1/2} T D_π^{−1/2}, after deflating the known top
// eigenvector √π, so the dominant remaining eigenvalue is (1+s₂)/2.
//
// iters bounds the power iterations (1000 is plenty for the case-study
// graphs); the result is deterministic given rng.
func (m *Matrix) SpectralGap(pi []float64, iters int, rng *rand.Rand) (float64, error) {
	n := m.n
	if n < 2 {
		return 0, fmt.Errorf("linalg: spectral gap needs >= 2 states, have %d", n)
	}
	if len(pi) != n {
		return 0, fmt.Errorf("linalg: pi length %d != n %d", len(pi), n)
	}
	sqrtPi := make([]float64, n)
	for i, p := range pi {
		if p <= 0 {
			return 0, fmt.Errorf("linalg: pi[%d] = %v must be positive", i, p)
		}
		sqrtPi[i] = math.Sqrt(p)
	}
	// v1 = √π normalized (||√π||² = Σπ = 1 already).
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	tmp := make([]float64, n)

	deflate := func(v []float64) {
		dot := 0.0
		for i := range v {
			dot += v[i] * sqrtPi[i]
		}
		for i := range v {
			v[i] -= dot * sqrtPi[i]
		}
	}
	normalize := func(v []float64) float64 {
		ss := 0.0
		for _, e := range v {
			ss += e * e
		}
		nrm := math.Sqrt(ss)
		if nrm > 0 {
			for i := range v {
				v[i] /= nrm
			}
		}
		return nrm
	}
	// applyB computes y = B·x with B = (S+I)/2 and
	// S x = D^{1/2} T^T D^{-1/2} x ... for symmetric S we may apply via the
	// left product: (x·S)_j = Σ_i x_i S_ij with S_ij = √π_i T_ij / √π_j.
	applyB := func(dst, src []float64) {
		for i := range tmp {
			tmp[i] = src[i] * sqrtPi[i]
		}
		m.EvolveInto(dst, tmp) // dst_j = Σ_i src_i √π_i T_ij
		for j := range dst {
			dst[j] = 0.5 * (dst[j]/sqrtPi[j] + src[j])
		}
	}

	deflate(x)
	if normalize(x) == 0 {
		return 0, fmt.Errorf("linalg: degenerate starting vector")
	}
	prev := 0.0
	for it := 0; it < iters; it++ {
		applyB(y, x)
		deflate(y)
		nrm := normalize(y)
		x, y = y, x
		if nrm == 0 {
			// T restricted to the complement is nilpotent-like; s2 ~ -1.
			return 2, nil
		}
		if it > 10 && math.Abs(nrm-prev) < 1e-13 {
			prev = nrm
			break
		}
		prev = nrm
	}
	s2 := 2*prev - 1 // eigenvalue of B is (1+s2)/2
	return 1 - s2, nil
}
