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
// (Section 5). It is UNBIASED-ESTIMATE (Algorithm 1): each backward step
// picks a predecessor candidate uniformly and weighs it by p(w→u)/π_pick(w).
// Crawl enables initial crawling (Section 5.2). The paper's third
// heuristic, weighted backward sampling (Section 5.3, WS-BW), is not
// implemented: it saved no queries here (EXPERIMENTS.md, "WS-BW goes").
//
// Configuration freeze: Client and Design must be set before the
// first estimate and not mutated afterwards — the step kernel caches values
// derived from them on first use. Crawl may change between estimates.
type Estimator struct {
	Client *osn.Client
	Design walk.Design
	Start  int
	// Crawl, when non-nil, terminates backward walks early with exact
	// probabilities (initial-crawling heuristic).
	Crawl *CrawlTable

	// StepsTaken accumulates the total number of backward steps walked, for
	// the cost accounting of Figure 5.
	StepsTaken int64

	// probKind/fastEdge/selfLoops cache per-(Design, Client) constants so
	// the step kernel makes no interface calls for them: initialized on the
	// first EstimateOnce.
	probKind  walk.EdgeProbKind
	probInit  bool
	fastEdge  bool
	selfLoops bool

	// rng is the scalar kernel's walk substream, reseeded per backward walk
	// (EstimateAdaptive); vec is the lazily built scratch state of the
	// lockstep kernel (batch.go).
	rng fastrand.Rand
	vec *vecState
	// heads is Sampler.estimate's reusable buffer of lane headers.
	heads []*BatchCand
}

func (e *Estimator) initProbKind() {
	e.probKind = walk.EdgeProbKindOf(e.Design)
	e.fastEdge = e.probKind != walk.EdgeProbNone && e.Client.SymmetricView()
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
		w, pick, err := e.backStep(node, nbr, rng)
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

// backStep samples the predecessor candidate w for the current node
// uniformly and returns it with its pick probability. Candidates are
// nbr = N(node), plus node itself (the last slot) for designs with
// self-loops.
func (e *Estimator) backStep(node int, nbr []int32, rng fastrand.RNG) (w int, pick float64, err error) {
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
	uniform := 1 / float64(total)
	i := rng.Intn(total)
	if i < len(nbr) {
		return int(nbr[i]), uniform, nil
	}
	return node, uniform, nil // self-loop slot
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
