package core

import (
	"fmt"

	"repro/internal/fastrand"
	"repro/internal/mathx"
	"repro/internal/osn"
	"repro/internal/walk"
)

// Estimator produces unbiased estimates of p_t(u) — the probability that a
// t-step forward walk from Start lands on u — by walking backward from u
// (Section 5). With neither heuristic enabled it is exactly
// UNBIASED-ESTIMATE (Algorithm 1); Crawl enables initial crawling
// (Section 5.2) and Hist enables weighted backward sampling (Section 5.3,
// Algorithm 2 / WS-BW).
//
// Fidelity note (documented in DESIGN.md): the paper's Algorithm 2 biases the
// backward pick toward historically-hit neighbors but keeps Algorithm 1's
// |N(u)|/|N(v)| factor, which is only unbiased for uniform picks. We weight
// each step by p(w→u)/π_pick(w) — the importance-corrected generic form —
// which reduces to the paper's factor under uniform picks and stays unbiased
// under any pick distribution with full support (guaranteed by the ε-mixing
// of Equation line 4 in Algorithm 2).
//
// Configuration freeze: Client and Design must be set before the
// first estimate and not mutated afterwards — the step kernel caches values
// derived from them on first use. Crawl and Hist, and Hist's contents, may
// change between estimates (the parallel pipeline refreshes its workers'
// frozen history in place between batches).
type Estimator struct {
	Client *osn.Client
	Design walk.Design
	Start  int
	// Crawl, when non-nil, terminates backward walks early with exact
	// probabilities (initial-crawling heuristic).
	Crawl *CrawlTable
	// Hist, when non-nil, enables weighted backward sampling from recorded
	// forward walks.
	Hist *History

	// StepsTaken accumulates the total number of backward steps walked, for
	// the cost accounting of Figure 5.
	StepsTaken int64

	// scratch is the reusable hit-count buffer of backStep. One buffer per
	// Estimator keeps the WS-BW inner loop allocation-free; parallel callers
	// give each worker its own Estimator, so no synchronization is needed.
	scratch []float64

	// probKind/symmetric/fastEdge/selfLoops cache per-(Design, Client)
	// constants so the step kernel makes no interface calls for them:
	// initialized on the first EstimateOnce.
	probKind  walk.EdgeProbKind
	probInit  bool
	symmetric bool
	fastEdge  bool
	selfLoops bool

	// rng is the scalar kernel's walk substream, reseeded per backward walk
	// (EstimateAdaptive); vec is the lazily built scratch state of the
	// lockstep kernel (batch.go).
	rng fastrand.Rand
	vec *vecState
}

// epsilon is WS-BW's minimum uniform mixing mass (Algorithm 2, line 4): the
// paper's ε = 0.1.
const epsilon = 0.1

func (e *Estimator) initProbKind() {
	e.probKind = walk.EdgeProbKindOf(e.Design)
	e.symmetric = e.Client.SymmetricView()
	e.fastEdge = e.probKind != walk.EdgeProbNone && e.symmetric
	e.selfLoops = e.Design.SelfLoops()
	e.probInit = true
}

// EstimateOnce returns a single unbiased estimate of p_t(u). The walk's
// queries are charged to the estimator's client.
//
// The loop carries the current node's neighbor list from step to step: the
// list fetched to compute p(w→node) is exactly the candidate list the next
// backward step needs, so each step performs one Neighbors call, not three.
func (e *Estimator) EstimateOnce(u, t int, rng fastrand.RNG) (float64, error) {
	if t < 0 {
		return 0, fmt.Errorf("core: negative step count %d", t)
	}
	if !e.probInit {
		e.initProbKind()
	}
	weight := 1.0
	node := u
	var nbr []int32
	haveNbr := false
	for step := t; step > 0; step-- {
		// Initial-crawling early exit: exact value available.
		if e.Crawl != nil {
			if p, ok := e.Crawl.Lookup(node, step); ok {
				return weight * p, nil
			}
		}
		if !haveNbr {
			nbr = e.Client.Neighbors(node)
			haveNbr = true
		}
		w, pick, err := e.backStep(node, step, nbr, rng)
		if err != nil {
			return 0, err
		}
		e.StepsTaken++
		var trans float64 // p(w→node)
		if w == node {
			// Self-loop candidate: the stay-probability has no degree-only
			// form (for MHRW it scans all neighbor degrees). nbr stays valid.
			trans = e.Design.Prob(e.Client, w, node)
		} else {
			wNbr := e.Client.Neighbors(w)
			if e.fastEdge && len(wNbr) > 0 {
				// w was drawn from N(node) and the view is symmetric, so
				// {w,node} is an edge and p(w→node) follows from the two
				// degrees already in hand — no membership scan.
				trans = e.probKind.Prob(len(wNbr), len(nbr))
			} else {
				trans = e.Design.Prob(e.Client, w, node)
			}
			nbr = wNbr
		}
		if trans == 0 {
			// Only reachable via the self-loop candidate when the design's
			// stay-probability happens to be 0; the estimate is exactly 0.
			return 0, nil
		}
		weight *= trans / pick
		node = w
	}
	if e.Crawl != nil {
		if p, ok := e.Crawl.Lookup(node, 0); ok {
			return weight * p, nil
		}
	}
	if node == e.Start {
		return weight, nil
	}
	return 0, nil
}

// backStep samples the predecessor candidate w for the current node and
// returns it with its pick probability. Candidates are nbr = N(node), plus
// node itself (the last slot) for designs with self-loops. Without history
// evidence at the predecessor step the pick is uniform; otherwise it is
// WS-BW's weighted pick (weightedPick).
func (e *Estimator) backStep(node, step int, nbr []int32, rng fastrand.RNG) (w int, pick float64, err error) {
	if !e.probInit {
		e.initProbKind()
	}
	total := len(nbr)
	if e.selfLoops {
		total++
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("core: node %d has no predecessor candidates", node)
	}
	if h := e.Hist; h != nil && h.walks > 0 {
		row := h.Row(step - 1)
		// Evidence gate: on a symmetric view a clear bit within evRows
		// proves every candidate's hit count is 0 — the gather below would
		// find z = 0 and fall through to the same uniform draw, so skip it.
		if !e.symmetric || step > h.evRows || row.evident(node) {
			if w, pick, ok := e.weightedPick(row, node, nbr, total, rng); ok {
				return w, pick, nil
			}
		}
	}
	// UNBIASED-ESTIMATE: uniform pick (also WS-BW with no evidence, z = 0).
	uniform := 1 / float64(total)
	i := rng.Intn(total)
	if i < len(nbr) {
		return int(nbr[i]), uniform, nil
	}
	return node, uniform, nil // self-loop slot
}

// weightedPick is WS-BW's pick over the candidates of backStep. It mixes
// the uniform distribution with the (Laplace-smoothed) historic hit
// distribution at the predecessor step. Two tempering measures keep the
// importance weights bounded — a necessity the paper's Algorithm 2 glosses
// over (its raw (1−ε)·n/n_hw tilt makes the weight products explode
// combinatorially on dense graphs):
//
//  1. Laplace smoothing (+1 per candidate) so sparse evidence cannot
//     concentrate the pick distribution;
//  2. evidence-adaptive mixing: the history component's share grows with
//     the observed hit mass z as (1−ε)·z/(z+|C|), so with little evidence
//     the pick stays near uniform.
//
// Any full-support pick distribution keeps the estimator unbiased via the
// p(w→u)/π_pick(w) correction; the tempering only controls variance. The
// worst-case per-step weight inflation is 1/ε.
//
// It is a two-pass kernel — gather the candidates' hit counts into the
// scratch buffer, then select by an add-and-compare scan of the smoothed
// mix — with no allocation. When no candidate has a hit (z = 0) it returns
// ok = false without drawing, and backStep draws the uniform pick.
func (e *Estimator) weightedPick(row HistRow, node int, nbr []int32, total int, rng fastrand.RNG) (w int, pick float64, ok bool) {
	// Dense gather: the common probe dies in the page's nonzero bitset and
	// the loop tail (store and accumulate) stays branch-free. Attempts to
	// skip work per candidate — a visited filter, sparse gathers, hoisted
	// page pointers — all measured slower than this flat loop on the mem
	// backend; see DESIGN.md.
	if cap(e.scratch) < total {
		e.scratch = make([]float64, total+total/2)
	}
	hits := e.scratch[:total]
	var z float64
	for i, nb := range nbr {
		h := 0.0
		if pg, o := row.hit(int(nb)); pg != nil {
			h = float64(pg.count(o))
		}
		hits[i] = h
		z += h
	}
	if total > len(nbr) { // self-loop slot
		h := float64(row.Hits(node))
		hits[total-1] = h
		z += h
	}
	if z == 0 {
		return 0, 0, false
	}
	uniform := 1 / float64(total)
	smoothZ := z + float64(total) // Laplace: +1 per candidate
	beta := (1 - epsilon) * z / smoothZ
	// prob(i) = (1-beta)*uniform + beta*(hits[i]+1)/smoothZ, precomputed as
	// base + scale*(hits[i]+1) so the selection loop is add-and-compare.
	base := (1 - beta) * uniform
	scale := beta / smoothZ
	r := rng.Float64()
	acc := 0.0
	chosen := total - 1
	for i := 0; i < total; i++ {
		acc += base + scale*(hits[i]+1)
		if r < acc {
			chosen = i
			break
		}
	}
	pick = base + scale*(hits[chosen]+1)
	if chosen < len(nbr) {
		return int(nbr[chosen]), pick, true
	}
	return node, pick, true
}

// Estimate runs reps independent backward walks and returns the mean
// estimate together with the sample variance of the individual estimates
// (Algorithm 3's per-node quantities).
func (e *Estimator) Estimate(u, t, reps int, rng fastrand.RNG) (mean, variance float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("core: reps must be >= 1, got %d", reps)
	}
	var m mathx.Moments
	for i := 0; i < reps; i++ {
		v, err := e.EstimateOnce(u, t, rng)
		if err != nil {
			return 0, 0, err
		}
		m.Add(v)
	}
	return m.Mean(), m.Variance(), nil
}
