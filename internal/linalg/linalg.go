// Package linalg implements the Markov-chain linear algebra behind the
// paper's analysis: sparse row-stochastic transition matrices for the walk
// designs (Definitions 1 and 2), exact sampling-distribution evolution
// p_{t} = p_{t-1}·T, stationary distributions, the relative point-wise
// distance Δ(t) (Definition 3), burn-in computation, and the spectral gap
// λ = 1 − s₂ via deflated power iteration on the symmetrized chain.
//
// Everything here has full knowledge of the graph topology; it exists to
// provide ground truth ("oracles") for the IDEAL-WALK analysis and for
// validating the query-limited samplers, exactly as the paper's theoretical
// sections do.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// Matrix is a sparse row-stochastic transition matrix in CSR form. Rows
// correspond to the current node, columns to the next node, so distribution
// evolution is the left product p·T.
type Matrix struct {
	n      int
	rowPtr []int32
	colIdx []int32
	vals   []float64
}

// NumNodes returns the number of states (graph nodes).
func (m *Matrix) NumNodes() int { return m.n }

// Row returns the column indices and values of row u. The slices alias
// internal storage and must not be modified.
func (m *Matrix) Row(u int) ([]int32, []float64) {
	lo, hi := m.rowPtr[u], m.rowPtr[u+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// Prob returns T(u,v), the probability of transiting from u to v.
func (m *Matrix) Prob(u, v int) float64 {
	cols, vals := m.Row(u)
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(v) })
	if i < len(cols) && cols[i] == int32(v) {
		return vals[i]
	}
	return 0
}

// CheckRowStochastic verifies every row sums to 1 within tol and has
// non-negative entries. Used by tests and defensive callers.
func (m *Matrix) CheckRowStochastic(tol float64) error {
	for u := 0; u < m.n; u++ {
		_, vals := m.Row(u)
		sum := 0.0
		for _, v := range vals {
			if v < 0 {
				return fmt.Errorf("linalg: negative entry in row %d", u)
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("linalg: row %d sums to %v", u, sum)
		}
	}
	return nil
}

// NewSRW builds the Simple Random Walk transition matrix (Definition 1):
// T(u,v) = 1/|N(u)| for v in N(u). Isolated nodes get a self-loop of 1 so the
// matrix stays stochastic.
func NewSRW(g *graph.Graph) *Matrix {
	n := g.NumNodes()
	m := &Matrix{n: n, rowPtr: make([]int32, n+1)}
	nnz := 0
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		if d == 0 {
			nnz++
		} else {
			nnz += d
		}
		m.rowPtr[u+1] = int32(nnz)
	}
	m.colIdx = make([]int32, nnz)
	m.vals = make([]float64, nnz)
	for u := 0; u < n; u++ {
		at := m.rowPtr[u]
		nbr := g.Neighbors(u)
		if len(nbr) == 0 {
			m.colIdx[at] = int32(u)
			m.vals[at] = 1
			continue
		}
		p := 1 / float64(len(nbr))
		for i, w := range nbr {
			m.colIdx[at+int32(i)] = w
			m.vals[at+int32(i)] = p
		}
	}
	return m
}

// NewMHRW builds the Metropolis–Hastings Random Walk transition matrix with
// uniform target distribution (Definition 2):
//
//	T(u,v) = (1/|N(u)|)·min{1, |N(u)|/|N(v)|}  for v in N(u)
//	T(u,u) = 1 − Σ_w T(u,w)
//
// Self-loop entries are stored explicitly (they matter for the backward
// estimator). Isolated nodes get a self-loop of 1.
func NewMHRW(g *graph.Graph) *Matrix {
	n := g.NumNodes()
	m := &Matrix{n: n, rowPtr: make([]int32, n+1)}
	nnz := 0
	for u := 0; u < n; u++ {
		nnz += g.Degree(u) + 1 // always room for the self-loop
		m.rowPtr[u+1] = int32(nnz)
	}
	m.colIdx = make([]int32, 0, nnz)
	m.vals = make([]float64, 0, nnz)
	rowPtr := make([]int32, n+1)
	for u := 0; u < n; u++ {
		rowPtr[u] = int32(len(m.vals))
		nbr := g.Neighbors(u)
		if len(nbr) == 0 {
			m.colIdx = append(m.colIdx, int32(u))
			m.vals = append(m.vals, 1)
			continue
		}
		du := float64(len(nbr))
		stay := 1.0
		// Neighbors are sorted; emit them in order, inserting the self-loop
		// at its sorted position (value patched once `stay` is final).
		selfAt := -1
		for _, w := range nbr {
			if selfAt < 0 && int32(u) < w {
				selfAt = len(m.vals)
				m.colIdx = append(m.colIdx, int32(u))
				m.vals = append(m.vals, 0)
			}
			p := math.Min(1/du, 1/float64(g.Degree(int(w))))
			stay -= p
			m.colIdx = append(m.colIdx, w)
			m.vals = append(m.vals, p)
		}
		if selfAt < 0 {
			selfAt = len(m.vals)
			m.colIdx = append(m.colIdx, int32(u))
			m.vals = append(m.vals, 0)
		}
		if stay < 0 {
			stay = 0 // numeric guard
		}
		m.vals[selfAt] = stay
	}
	rowPtr[n] = int32(len(m.vals))
	m.rowPtr = rowPtr
	return m
}

// NewLazy builds the lazy variant of SRW: with probability alpha the walk
// stays; otherwise it moves as SRW. alpha in (0,1) guarantees aperiodicity
// (footnote 1 of the paper assumes such nonzero self-transition).
func NewLazy(g *graph.Graph, alpha float64) *Matrix {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("linalg: NewLazy alpha=%v outside (0,1)", alpha))
	}
	n := g.NumNodes()
	m := &Matrix{n: n}
	rowPtr := make([]int32, n+1)
	for u := 0; u < n; u++ {
		rowPtr[u] = int32(len(m.vals))
		nbr := g.Neighbors(u)
		if len(nbr) == 0 {
			m.colIdx = append(m.colIdx, int32(u))
			m.vals = append(m.vals, 1)
			continue
		}
		p := (1 - alpha) / float64(len(nbr))
		selfEmitted := false
		for _, w := range nbr {
			if !selfEmitted && int32(u) < w {
				m.colIdx = append(m.colIdx, int32(u))
				m.vals = append(m.vals, alpha)
				selfEmitted = true
			}
			m.colIdx = append(m.colIdx, w)
			m.vals = append(m.vals, p)
		}
		if !selfEmitted {
			m.colIdx = append(m.colIdx, int32(u))
			m.vals = append(m.vals, alpha)
		}
	}
	rowPtr[n] = int32(len(m.vals))
	m.rowPtr = rowPtr
	return m
}

// Lazify returns the lazy version of any transition matrix:
// T' = α·I + (1−α)·T. Lazification preserves the stationary distribution and
// guarantees aperiodicity (the paper's footnote 1 assumes exactly this), at
// the cost of scaling the spectral gap by (1−α).
func Lazify(m *Matrix, alpha float64) *Matrix {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("linalg: Lazify alpha=%v outside (0,1)", alpha))
	}
	n := m.n
	out := &Matrix{n: n}
	rowPtr := make([]int32, n+1)
	for u := 0; u < n; u++ {
		rowPtr[u] = int32(len(out.vals))
		cols, vals := m.Row(u)
		selfDone := false
		for i, w := range cols {
			if !selfDone && w >= int32(u) {
				if w == int32(u) {
					out.colIdx = append(out.colIdx, w)
					out.vals = append(out.vals, alpha+(1-alpha)*vals[i])
					selfDone = true
					continue
				}
				out.colIdx = append(out.colIdx, int32(u))
				out.vals = append(out.vals, alpha)
				selfDone = true
			}
			out.colIdx = append(out.colIdx, w)
			out.vals = append(out.vals, (1-alpha)*vals[i])
		}
		if !selfDone {
			out.colIdx = append(out.colIdx, int32(u))
			out.vals = append(out.vals, alpha)
		}
	}
	rowPtr[n] = int32(len(out.vals))
	out.rowPtr = rowPtr
	return out
}

// EvolveInto computes dst = src·T (one step of distribution evolution).
// dst and src must have length NumNodes() and must not alias.
func (m *Matrix) EvolveInto(dst, src []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for u := 0; u < m.n; u++ {
		pu := src[u]
		if pu == 0 {
			continue
		}
		lo, hi := m.rowPtr[u], m.rowPtr[u+1]
		for k := lo; k < hi; k++ {
			dst[m.colIdx[k]] += pu * m.vals[k]
		}
	}
}

// Evolve returns src·T^steps without modifying src.
func (m *Matrix) Evolve(src []float64, steps int) []float64 {
	cur := make([]float64, m.n)
	copy(cur, src)
	if steps <= 0 {
		return cur
	}
	next := make([]float64, m.n)
	for s := 0; s < steps; s++ {
		m.EvolveInto(next, cur)
		cur, next = next, cur
	}
	return cur
}

// DistFrom returns p_t, the exact step-t sampling distribution of a walk
// started at node start (p_0 = indicator of start). This is the oracle
// UNBIASED-ESTIMATE is validated against.
func (m *Matrix) DistFrom(start, t int) []float64 {
	p0 := make([]float64, m.n)
	p0[start] = 1
	return m.Evolve(p0, t)
}

// SRWStationary returns the SRW stationary distribution π(v) = d(v)/(2|E|).
// It errors if the graph has no edges.
func SRWStationary(g *graph.Graph) ([]float64, error) {
	if g.NumEdges() == 0 {
		return nil, errors.New("linalg: SRW stationary undefined for edgeless graph")
	}
	pi := make([]float64, g.NumNodes())
	z := 2 * float64(g.NumEdges())
	for v := range pi {
		pi[v] = float64(g.Degree(v)) / z
	}
	return pi, nil
}

// UniformStationary returns the uniform distribution over n nodes (the MHRW
// target).
func UniformStationary(n int) []float64 {
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	return pi
}
