package core

import (
	"fmt"

	"repro/internal/fastrand"
	"repro/internal/mathx"
)

// This file is the vectorized backward-estimation kernel: instead of
// advancing one backward walker at a time — which serializes a shared-cache
// lookup (or, on a remote backend, a full round trip) per walker step —
// EstimateAdaptiveBatch advances one walker per candidate in lockstep design
// steps. Each round gathers every walker's next frontier node, resolves the
// whole frontier with a single Client.NeighborsBatch (one cache pass, one
// backend round trip), then applies the transition weights in a dense pass
// (walk.EdgeProbKind.ProbsInto for the degree-only designs).
//
// Equivalence contract: every candidate draws from its own private RNG
// stream and consumes exactly the draws the scalar EstimateAdaptive →
// EstimateOnce → backStep chain would, in the same per-candidate order —
// lockstep only interleaves *between* streams, which is unobservable. The
// fetched node multiset per candidate is also exactly the scalar one, so
// unique-node query charges match bit for bit. Property tests pin both.
//
// A candidate keeps exactly one walk in flight; when it completes, the next
// repetition (base or adaptive top-up, same decision rule as the scalar
// EstimateAdaptive) starts in the following round, so the vector stays wide
// until candidates genuinely finish.

// BatchCand is one candidate lane of EstimateAdaptiveBatch. The caller sets
// V and RNG; the kernel fills PHat, Steps (backward steps spent on this
// candidate) and Err. A BatchCand may be reused across calls.
type BatchCand struct {
	V    int
	RNG  fastrand.RNG
	PHat float64
	// Steps counts the backward steps this candidate's walks consumed —
	// the per-candidate share of Estimator.StepsTaken.
	Steps int64
	Err   error

	reps int // completed walks this call (base + top-up)
	m    mathx.Moments
}

// bwLane is the in-flight walk of one candidate.
type bwLane struct {
	cand    *BatchCand
	node    int
	step    int // remaining steps; the walk is at design step `step`
	w       int // backStep's pick, between phases of a round
	pick    float64
	weight  float64
	nbr     []int32 // N(node), carried step to step like the scalar loop
	haveNbr bool
}

// vecState is the reusable scratch of the vectorized kernel, held by the
// Estimator so warm batches allocate nothing.
type vecState struct {
	lanes  []bwLane
	active []int32 // indices into lanes, compacted every round
	live   []int32 // lanes actually walking this round (own backing: the
	// round compacts `active` in place while iterating live)

	fidx []int32   // lane indices awaiting a batched fetch
	fids []int32   // their frontier node ids
	fout [][]int32 // batched fetch results

	tidx []int32   // lane indices of the dense fast-path transition pass
	tdu  []int32   // degree of w (the predecessor walked to)
	tdv  []int32   // degree of node (the node walked from)
	ttr  []float64 // p(w→node) outputs
}

// EstimateAdaptiveBatch estimates p_t(cd.V) for every candidate with
// baseReps backward walks plus up to varianceBudget adaptive top-ups each —
// per candidate exactly EstimateAdaptive, but with all walks advanced in
// lockstep rounds so each design step costs one batched frontier resolution
// instead of one lookup per walker. Results land in the candidates' PHat /
// Steps / Err fields; a candidate's error stops only that candidate.
func EstimateAdaptiveBatch(e *Estimator, cands []*BatchCand, t, baseReps, varianceBudget int) {
	if !e.probInit {
		e.initProbKind()
	}
	if t < 0 {
		err := fmt.Errorf("core: negative step count %d", t)
		for _, cd := range cands {
			cd.Err = err
		}
		return
	}
	vs := e.vec
	if vs == nil {
		vs = &vecState{}
		e.vec = vs
	}
	if cap(vs.lanes) < len(cands) {
		vs.lanes = make([]bwLane, len(cands))
	}
	lanes := vs.lanes[:len(cands)]
	active := vs.active[:0]
	for i, cd := range cands {
		cd.PHat, cd.Steps, cd.Err = 0, 0, nil
		cd.reps = 0
		cd.m = mathx.Moments{}
		lanes[i] = bwLane{cand: cd, node: cd.V, step: t, weight: 1}
		active = append(active, int32(i))
	}
	for len(active) > 0 {
		active = e.stepVec(lanes, active, t, baseReps, varianceBudget)
	}
	vs.active = active[:0]
}

// stepVec advances every active lane by one design step (phases documented
// inline) and returns the surviving active set, restarting candidates whose
// walk completed but who still owe repetitions.
func (e *Estimator) stepVec(lanes []bwLane, active []int32, t, baseReps, budget int) []int32 {
	vs := e.vec
	out := active[:0]

	// Phase 1 — crawl checks, walk-end handling, and the gather of lanes
	// that still need their current node's neighbor list (only a walk's
	// first step: afterwards the list fetched for the transition weight is
	// carried, exactly like the scalar loop).
	fidx := vs.fidx[:0]
	fids := vs.fids[:0]
	live := vs.live[:0] // lanes still walking this round, in lane order
	for _, li := range active {
		ln := &lanes[li]
		if ln.step == 0 {
			// t == 0 walks finish before their first step.
			if fin := e.finishLane(ln, t, baseReps, budget); fin {
				continue
			}
			out = append(out, li)
			continue
		}
		if e.Crawl != nil {
			if p, ok := e.Crawl.Lookup(ln.node, ln.step); ok {
				if fin := e.laneDone(ln, ln.weight*p, t, baseReps, budget); fin {
					continue
				}
				out = append(out, li)
				continue
			}
		}
		if !ln.haveNbr {
			fidx = append(fidx, li)
			fids = append(fids, int32(ln.node))
		}
		live = append(live, li)
	}
	if len(fids) > 0 {
		fout := growLists(&vs.fout, len(fids))
		e.Client.NeighborsBatch(fids, fout)
		for k, li := range fidx {
			lanes[li].nbr = fout[k]
			lanes[li].haveNbr = true
		}
	}

	// Phase 2 — one backStep per lane, in lane order. Each lane draws from
	// its own candidate's RNG, so this order is unobservable; the draws per
	// candidate are exactly the scalar ones.
	fidx = fidx[:0]
	fids = fids[:0]
	for _, li := range live {
		ln := &lanes[li]
		w, pick, err := e.backStep(ln.node, ln.step, ln.nbr, ln.cand.RNG)
		if err != nil {
			ln.cand.Err = err
			ln.step = -1 // poisoned; dropped in phase 4
			continue
		}
		e.StepsTaken++
		ln.cand.Steps++
		ln.w, ln.pick = w, pick
		if w != ln.node {
			// The scalar loop fetches N(w) for every non-self pick (the
			// transition weight needs it, and it becomes the next step's
			// candidate list) — gather them all into one frontier.
			fidx = append(fidx, li)
			fids = append(fids, int32(w))
		}
	}

	// Phase 3 — one batched resolution of the whole frontier.
	fnbr := growLists(&vs.fout, len(fids))
	if len(fids) > 0 {
		e.Client.NeighborsBatch(fids, fnbr)
	}
	vs.fidx, vs.fids = fidx[:0], fids[:0]

	// Phase 4a — gather the dense fast-path pass: symmetric views of
	// degree-only designs read p(w→node) straight off the two degrees
	// already in hand.
	tidx := vs.tidx[:0]
	tdu := vs.tdu[:0]
	tdv := vs.tdv[:0]
	fk := 0
	for _, li := range live {
		ln := &lanes[li]
		if ln.step < 0 {
			continue
		}
		if ln.w != ln.node {
			wNbr := fnbr[fk]
			fk++
			if e.fastEdge && len(wNbr) > 0 {
				tidx = append(tidx, li)
				tdu = append(tdu, int32(len(wNbr)))
				tdv = append(tdv, int32(len(ln.nbr)))
			}
			// Advance the carried list now; the transition weight for the
			// non-fast lanes below recomputes from the client (warm after
			// the batch), like the scalar fallback.
			ln.nbr = wNbr
		}
	}
	ttr := growFloats(&vs.ttr, len(tidx))
	e.probKind.ProbsInto(tdu, tdv, ttr)
	vs.tidx, vs.tdu, vs.tdv = tidx[:0], tdu[:0], tdv[:0]

	// Phase 4b — apply transitions and advance, in lane order.
	tk := 0
	for _, li := range live {
		ln := &lanes[li]
		if ln.step < 0 {
			continue
		}
		var trans float64
		if tk < len(tidx) && tidx[tk] == li {
			trans = ttr[tk]
			tk++
		} else {
			// Self-loop pick (no degree-only form: MHRW scans neighbor
			// degrees) or a fast-path miss — per-node client calls, warm
			// after the batch, same as the scalar path.
			trans = e.Design.Prob(e.Client, ln.w, ln.node)
		}
		if trans == 0 {
			if fin := e.laneDone(ln, 0, t, baseReps, budget); fin {
				continue
			}
			out = append(out, li)
			continue
		}
		ln.weight *= trans / ln.pick
		ln.node = ln.w
		ln.step--
		if ln.step == 0 {
			if fin := e.finishLane(ln, t, baseReps, budget); fin {
				continue
			}
		}
		out = append(out, li)
	}
	vs.live = live[:0]
	return out
}

// finishLane completes a lane whose walk ran out of steps: the scalar
// epilogue of EstimateOnce (crawl row 0, else the start check).
func (e *Estimator) finishLane(ln *bwLane, t, baseReps, budget int) (retire bool) {
	if e.Crawl != nil {
		if p, ok := e.Crawl.Lookup(ln.node, 0); ok {
			return e.laneDone(ln, ln.weight*p, t, baseReps, budget)
		}
	}
	if ln.node == e.Start {
		return e.laneDone(ln, ln.weight, t, baseReps, budget)
	}
	return e.laneDone(ln, 0, t, baseReps, budget)
}

// laneDone folds one completed walk into the candidate's moments and either
// retires the candidate (returns true) or resets the lane for its next
// repetition — the same continue/stop rule as the scalar EstimateAdaptive.
func (e *Estimator) laneDone(ln *bwLane, est float64, t, baseReps, budget int) (retire bool) {
	cd := ln.cand
	cd.m.Add(est)
	cd.reps++
	if cd.reps >= baseReps {
		extras := cd.reps - baseReps
		mean := cd.m.Mean()
		if extras >= budget || (mean > 0 && cd.m.StdDev()/mean <= 1) {
			cd.PHat = mean
			return true
		}
	}
	*ln = bwLane{cand: cd, node: cd.V, step: t, weight: 1}
	return false
}

// growLists returns a length-n slice backed by *buf, growing it on demand.
func growLists(buf *[][]int32, n int) [][]int32 {
	if cap(*buf) < n {
		*buf = make([][]int32, n, 2*n)
	}
	return (*buf)[:n]
}

// growFloats returns a length-n slice backed by *buf, growing it on demand.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, 2*n)
	}
	return (*buf)[:n]
}
