// Package walk implements the traditional random-walk machinery of Section 2:
// transition designs (Simple Random Walk, Metropolis–Hastings Random Walk),
// stepping over the restricted osn interface, the Geweke convergence monitor,
// and the classic samplers WALK-ESTIMATE is benchmarked against — many short
// runs with burn-in, and the one-long-run scheme of Section 6.1.
package walk

import (
	"fmt"

	"repro/internal/fastrand"
)

// View is the neighbor-access surface a transition design needs: on the
// sampling paths it is the metered *osn.Client (so query accounting stays
// faithful), while tests and offline tooling may drive a design directly
// over a raw osn.Backend or any other adjacency source.
type View interface {
	// Neighbors returns the visible neighbor list of v (not to be modified).
	Neighbors(v int) []int32
	// Degree returns |Neighbors(v)|.
	Degree(v int) int
}

// Design is an MCMC transition design driven purely through the restricted
// local-neighborhood interface. Implementations must only learn about the
// graph via the provided View so query accounting stays faithful when the
// view is a metered client.
type Design interface {
	// Name identifies the design in logs and experiment output.
	Name() string

	// Step samples the next node of the walk from u. It may stay at u
	// (self-loop) where the design prescribes so.
	Step(c View, u int, rng fastrand.RNG) int

	// Prob returns the transition probability p(u→v) computed from local
	// information (degrees of u and v at most). v may equal u, in which
	// case the self-loop probability is returned — note that for MHRW this
	// requires querying all neighbors of u.
	Prob(c View, u, v int) float64

	// SelfLoops reports whether the design can remain in place, i.e.
	// whether u itself must be considered a predecessor candidate by the
	// backward estimator.
	SelfLoops() bool

	// TargetWeight returns the unnormalized stationary density q(v) the
	// design converges to: d(v) for SRW, 1 for MHRW. Rejection sampling
	// only needs ratios, so no normalization constant is required.
	TargetWeight(c View, v int) float64
}

// SRW is the Simple Random Walk of Definition 1: from u, move to a uniformly
// random neighbor. Its stationary distribution is proportional to degree.
type SRW struct{}

// Name implements Design.
func (SRW) Name() string { return "SRW" }

// Step implements Design. A node with no visible neighbors (possible under
// §6.3.1 restrictions) keeps the walk in place.
func (SRW) Step(c View, u int, rng fastrand.RNG) int {
	nbr := c.Neighbors(u)
	if len(nbr) == 0 {
		return u
	}
	return int(nbr[rng.Intn(len(nbr))])
}

// Prob implements Design.
func (SRW) Prob(c View, u, v int) float64 {
	nbr := c.Neighbors(u)
	if len(nbr) == 0 {
		if u == v {
			return 1
		}
		return 0
	}
	if u == v {
		return 0
	}
	for _, w := range nbr {
		if int(w) == v {
			return 1 / float64(len(nbr))
		}
	}
	return 0
}

// SelfLoops implements Design: SRW never stays (except at stranded nodes).
func (SRW) SelfLoops() bool { return false }

// TargetWeight implements Design: SRW's stationary distribution is
// proportional to degree.
func (SRW) TargetWeight(c View, v int) float64 {
	return float64(c.Degree(v))
}

// MHRW is the Metropolis–Hastings Random Walk of Definition 2 with uniform
// target distribution: propose a uniform neighbor v, accept with probability
// min{1, |N(u)|/|N(v)|}, otherwise stay.
type MHRW struct{}

// Name implements Design.
func (MHRW) Name() string { return "MHRW" }

// Step implements Design.
func (d MHRW) Step(c View, u int, rng fastrand.RNG) int {
	nbr := c.Neighbors(u)
	if len(nbr) == 0 {
		return u
	}
	v := d.Propose(nbr, rng)
	du, dv := len(nbr), c.Degree(v)
	if dv == 0 {
		return u
	}
	if du >= dv || rng.Float64()*float64(dv) < float64(du) {
		return v
	}
	return u
}

// Propose is Step's first draw: the neighbor it proposes from u's
// non-empty list nbr, whose degree Step then reads. A caller that runs a
// copy of Step's RNG through Propose learns that neighbor in advance, so a
// batch of walks can fetch their proposals together.
func (MHRW) Propose(nbr []int32, rng fastrand.RNG) int {
	return int(nbr[rng.Intn(len(nbr))])
}

// Prob implements Design. The self-loop probability p(u→u) requires the
// degree of every neighbor of u; the client charges those queries, exactly
// as a real crawler would pay them.
func (MHRW) Prob(c View, u, v int) float64 {
	nbr := c.Neighbors(u)
	if len(nbr) == 0 {
		if u == v {
			return 1
		}
		return 0
	}
	du := float64(len(nbr))
	if u == v {
		stay := 1.0
		for _, w := range nbr {
			dw := float64(c.Degree(int(w)))
			if dw == 0 {
				continue
			}
			stay -= minf(1/du, 1/dw)
		}
		if stay < 0 {
			return 0
		}
		return stay
	}
	for _, w := range nbr {
		if int(w) == v {
			dv := float64(c.Degree(v))
			if dv == 0 {
				return 0
			}
			return minf(1/du, 1/dv)
		}
	}
	return 0
}

// SelfLoops implements Design.
func (MHRW) SelfLoops() bool { return true }

// TargetWeight implements Design: MHRW targets the uniform distribution.
func (MHRW) TargetWeight(View, int) float64 { return 1 }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ByName returns the design with the given name ("SRW" or "MHRW").
func ByName(name string) (Design, error) {
	switch name {
	case "SRW", "srw":
		return SRW{}, nil
	case "MHRW", "mhrw":
		return MHRW{}, nil
	}
	return nil, fmt.Errorf("walk: unknown design %q", name)
}

// EdgeProbKind classifies designs whose along-edge transition probability
// p(u→v) is a pure function of the endpoint degrees. The backward estimator
// computes p(w→node) once per backward step; for SRW and MHRW it already
// holds both neighbor lists (node's from the candidate scan, w's because the
// next step needs it), so when the client's view is symmetric
// (osn.Client.SymmetricView — edge existence is then implied by how the
// candidate was drawn) the probability follows from the two cached degrees
// with no extra Neighbors call, membership scan, or interface dispatch.
type EdgeProbKind uint8

const (
	// EdgeProbNone means the design has no degree-only closed form; use
	// Design.Prob.
	EdgeProbNone EdgeProbKind = iota
	// EdgeProbSRW: p(u→v) = 1/d(u) along any edge {u,v}.
	EdgeProbSRW
	// EdgeProbMHRW: p(u→v) = min(1/d(u), 1/d(v)) along any edge {u,v},
	// u ≠ v (the self-loop probability still needs the full Prob).
	EdgeProbMHRW
)

// EdgeProbKindOf returns the degree-only fast-path classification of d.
func EdgeProbKindOf(d Design) EdgeProbKind {
	switch d.(type) {
	case SRW:
		return EdgeProbSRW
	case MHRW:
		return EdgeProbMHRW
	}
	return EdgeProbNone
}

// Prob returns p(u→v) for an existing edge {u,v}, u ≠ v, given the visible
// degrees du = |N(u)| > 0 and dv = |N(v)| > 0. Results are bit-identical to
// the corresponding Design.Prob membership-scan path. Must not be called on
// EdgeProbNone.
func (k EdgeProbKind) Prob(du, dv int) float64 {
	if k == EdgeProbSRW {
		return 1 / float64(du)
	}
	return minf(1/float64(du), 1/float64(dv))
}

// ProbsInto is the batched form of Prob for the vectorized step kernel: it
// fills out[i] = Prob(du[i], dv[i]) for a dense vector of edge-degree pairs
// in one branch-hoisted pass (the kind test runs once, not per edge). Same
// preconditions as Prob — existing edges, positive visible degrees, not
// EdgeProbNone — and bit-identical results. No-op on empty input, so callers
// may pass the gathered fast-path lanes unconditionally.
func (k EdgeProbKind) ProbsInto(du, dv []int32, out []float64) {
	if k == EdgeProbSRW {
		for i, d := range du {
			out[i] = 1 / float64(d)
		}
		return
	}
	for i, d := range du {
		out[i] = minf(1/float64(d), 1/float64(dv[i]))
	}
}

// Path performs a fixed-length walk and returns the visited nodes
// (path[0] = start, len = steps+1).
func Path(c View, d Design, start, steps int, rng fastrand.RNG) []int {
	return PathInto(nil, c, d, start, steps, rng)
}

// PathInto is Path writing into buf (grown when too small), so a sampler
// that records one path after another — the WALK-ESTIMATE forward stage
// runs millions of them — reuses a single buffer instead of allocating
// per walk. The returned slice aliases buf's backing array and is valid
// until the next PathInto call with the same buffer. Identical walk, RNG
// stream, and meter behavior to Path.
func PathInto(buf []int, c View, d Design, start, steps int, rng fastrand.RNG) []int {
	if cap(buf) < steps+1 {
		buf = make([]int, steps+1)
	}
	path := buf[:steps+1]
	path[0] = start
	u := start
	for i := 1; i <= steps; i++ {
		u = d.Step(c, u, rng)
		path[i] = u
	}
	return path
}
