package core

import (
	"fmt"

	"repro/internal/fastrand"
	"repro/internal/mathx"
	"repro/internal/walk"
)

// This file is the adaptive per-candidate estimate of p_t(v) and its two
// kernels: the scalar oracle EstimateAdaptive, which runs one backward walk
// after another, and the lockstep EstimateAdaptiveBatch, which advances
// every walk of a candidate set together so that each design step costs
// one batched frontier resolution (one cache pass, one backend round trip)
// instead of one lookup per walker.
//
// Two rules make the kernels bit-identical by construction:
//
//   - Substreams. Backward walk r of a candidate with estimation seed s
//     draws only from fastrand.New(repSeed(s, r)), so the order in which a
//     kernel runs the walks cannot change any draw, and each walk fetches
//     the same node multiset under either kernel (same unique-node charge).
//   - Waves. A candidate runs baseReps walks; if their relative standard
//     error is above 1 (or their mean is 0) it tops up in waves of walks
//     (waveSize) until the estimate settles or varianceBudget walks ran.
//     The estimate folds the walks' values in rep order, whichever walk
//     finished first, and stops folding at the first top-up walk after
//     which the relative standard error is at most 1: the estimate of the
//     one-walk-at-a-time rule, bit for bit, whatever the wave sizes. The
//     walks of a wave past that point are paid but unused, like a
//     speculative candidate; both kernels pay them, so they also agree on
//     steps and charges. (The mean over the whole wave measured a
//     systematic rise of TV to π on Barbell(21); see EXPERIMENTS.md.)
//
// The lockstep kernel's lanes are (candidate, rep): all base walks start
// together, and a candidate starts each top-up wave as soon as its own
// previous wave is done.

// repSeed is the seed of backward walk r of a candidate whose estimation
// seed is seed.
func repSeed(seed int64, r int) int64 { return fastrand.Mix(seed, int64(r), 0) }

// firstWave is the size of a candidate's first top-up wave (capped by the
// budget). On the benchmark fixture, BA(50k, 5) at t = 13 with 4 base
// walks and a budget of 8, 98.6% of the candidates use all 12 walks, so a
// smaller first wave would add one round-trip chain to nearly every one.
const firstWave = 8

// waveSize is the size of the top-up wave that follows done top-up walks
// of a budget: firstWave, then as many walks as all top-up waves so far.
// A candidate whose estimate settles after u top-up walks thus pays at most
// max(firstWave, 2u) of them, and one that never settles runs a budget B
// in ⌈log2(B/firstWave)⌉+1 waves, each one round-trip chain.
func waveSize(done, budget int) int { return min(budget-done, max(done, firstWave)) }

// needTopUp is the top-up rule: the base walks' moments call for the
// top-up wave unless their mean is positive with a relative standard error
// of at most 1.
func needTopUp(m *mathx.Moments) bool {
	mean := m.Mean()
	return !(mean > 0 && m.StdDev()/mean <= 1)
}

// EstimateAdaptive estimates p_t(v) with baseReps backward walks plus, while
// needTopUp holds, waves of up to varianceBudget more in all (the
// per-candidate form of Algorithm 3's variance-driven budget), folded by
// the rule above. Walk r draws from the substream repSeed(seed, r). It is
// the scalar oracle of EstimateAdaptiveBatch: one walk at a time, one
// lookup per step.
func EstimateAdaptive(e *Estimator, v, t, baseReps, varianceBudget int, seed int64) (float64, error) {
	var m mathx.Moments
	settled := false // a top-up wave stopped folding; its later walks are unused
	for lo, hi := 0, baseReps; ; lo, hi = hi, hi+waveSize(hi-baseReps, varianceBudget) {
		for r := lo; r < hi; r++ {
			e.rng.Seed(repSeed(seed, r))
			est, err := e.EstimateOnce(v, t, &e.rng)
			if err != nil {
				return 0, err
			}
			if !settled {
				m.Add(est)
				settled = r >= baseReps && !needTopUp(&m)
			}
		}
		if hi == baseReps+varianceBudget || !needTopUp(&m) {
			return m.Mean(), nil
		}
	}
}

// BatchCand is one candidate of EstimateAdaptiveBatch. The caller sets V and
// Seed; the kernel fills PHat, Steps (backward steps spent on this
// candidate) and Err. A BatchCand may be reused across calls.
type BatchCand struct {
	V    int
	Seed int64 // estimation seed: walk r draws from repSeed(Seed, r)
	PHat float64
	// Steps counts the backward steps this candidate's walks consumed —
	// the per-candidate share of Estimator.StepsTaken.
	Steps int64
	Err   error
}

// bwLane is one backward walk in flight: walk rep of candidate ci.
type bwLane struct {
	ci      int32
	rep     int32
	node    int
	step    int // remaining steps; the walk is at design step `step`
	w       int // backStep's pick, between phases of a round
	pick    float64
	weight  float64
	nbr     []int32 // N(node), carried step to step like the scalar loop
	haveNbr bool
	rng     fastrand.Rand // the walk's substream
}

// candState is a candidate's progress through its waves.
type candState struct {
	lo, hi  int // reps of the current wave
	pending int // walks of the current wave still in flight
	m       mathx.Moments
}

// vecState is the reusable scratch of the lockstep kernel, held by the
// Estimator so warm batches allocate nothing.
type vecState struct {
	// Parameters of the running call.
	cands               []*BatchCand
	t, baseReps, budget int
	width               int // lane slots per candidate: max(baseReps, budget) bounds every wave

	lanes        []bwLane
	cst          []candState
	ests         []float64 // walk r of candidate ci at ci*(baseReps+budget)+r
	active, next []int32   // lane indices of this round and the next
	live         []int32   // lanes actually walking this round
	fidx, fids   []int32   // lanes awaiting a batched fetch, and their nodes
	fout         [][]int32 // batched fetch results
	tidx         []int32   // lanes of the dense transition pass
	tdu, tdv     []int32   // their degrees: of w, and of the node walked from
	ttr          []float64 // p(w→node) outputs
	stay         []int32   // neighbors whose degrees MHRW's stay probabilities read
}

// EstimateAdaptiveBatch estimates p_t(cd.V) for every candidate — per
// candidate exactly EstimateAdaptive with cd.Seed — advancing all walks in
// lockstep rounds. Results land in the candidates' PHat / Steps / Err
// fields; a candidate's error stops only that candidate.
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
	vs.cands, vs.t, vs.baseReps, vs.budget = cands, t, baseReps, varianceBudget
	vs.width = max(baseReps, varianceBudget)
	if n := len(cands) * vs.width; cap(vs.lanes) < n {
		vs.lanes = make([]bwLane, n)
	}
	if cap(vs.cst) < len(cands) {
		vs.cst = make([]candState, len(cands))
	}
	vs.cst = vs.cst[:len(cands)]
	vs.ests = growFloats(&vs.ests, len(cands)*(baseReps+varianceBudget))
	active := vs.active[:0]
	for ci, cd := range cands {
		cd.PHat, cd.Steps, cd.Err = 0, 0, nil
		vs.cst[ci] = candState{}
		active = vs.startWave(ci, 0, baseReps, active)
	}
	for len(active) > 0 {
		next := e.stepVec(active)
		vs.active, vs.next = next, active
		active = next
	}
	vs.active, vs.cands = active[:0], nil
}

// startWave puts walks lo..hi-1 of candidate ci in flight, appending their
// lanes to out; an empty wave completes at once.
func (vs *vecState) startWave(ci, lo, hi int, out []int32) []int32 {
	cd := vs.cands[ci]
	cs := &vs.cst[ci]
	cs.lo, cs.hi, cs.pending = lo, hi, hi-lo
	if hi == lo {
		return vs.waveDone(ci, out)
	}
	for r := lo; r < hi; r++ {
		li := ci*vs.width + r - lo
		ln := &vs.lanes[li]
		*ln = bwLane{ci: int32(ci), rep: int32(r), node: cd.V, step: vs.t, weight: 1}
		ln.rng.Seed(repSeed(cd.Seed, r))
		out = append(out, int32(li))
	}
	return out
}

// waveDone folds a completed wave's estimates in rep order, then starts the
// next top-up wave if the rule asks for it and budget is left, or settles
// the estimate.
func (vs *vecState) waveDone(ci int, out []int32) []int32 {
	cs := &vs.cst[ci]
	reps := vs.baseReps + vs.budget
	ests := vs.ests[ci*reps : (ci+1)*reps]
	for r := cs.lo; r < cs.hi; r++ {
		cs.m.Add(ests[r])
		if r >= vs.baseReps && !needTopUp(&cs.m) {
			break
		}
	}
	if cs.hi < reps && needTopUp(&cs.m) {
		return vs.startWave(ci, cs.hi, cs.hi+waveSize(cs.hi-vs.baseReps, vs.budget), out)
	}
	vs.cands[ci].PHat = cs.m.Mean()
	return out
}

// laneDone records a completed walk's estimate and, when it was the last of
// its wave, completes the wave. Walks of a failed candidate are dropped.
func (vs *vecState) laneDone(ln *bwLane, est float64, out []int32) []int32 {
	ci := int(ln.ci)
	if vs.cands[ci].Err != nil {
		return out
	}
	vs.ests[ci*(vs.baseReps+vs.budget)+int(ln.rep)] = est
	if vs.cst[ci].pending--; vs.cst[ci].pending > 0 {
		return out
	}
	return vs.waveDone(ci, out)
}

// stepVec advances every active lane by one design step (phases documented
// inline) and returns the next round's lanes: the survivors, plus the
// next top-up waves of candidates whose current wave completed this round.
func (e *Estimator) stepVec(active []int32) []int32 {
	vs := e.vec
	lanes := vs.lanes
	out := vs.next[:0]

	// Phase 1 — crawl checks, walk-end handling, and the gather of lanes
	// that still need their current node's neighbor list (only a walk's
	// first step: afterwards the list fetched for the transition weight is
	// carried, exactly like the scalar loop).
	fidx := vs.fidx[:0]
	fids := vs.fids[:0]
	live := vs.live[:0]
	for _, li := range active {
		ln := &lanes[li]
		if vs.cands[ln.ci].Err != nil {
			continue
		}
		if ln.step == 0 {
			// t == 0 walks finish before their first step.
			out = e.finishLane(ln, out)
			continue
		}
		if e.Crawl != nil {
			if p, ok := e.Crawl.Lookup(ln.node, ln.step); ok {
				out = vs.laneDone(ln, ln.weight*p, out)
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

	// Phase 2 — one backStep per lane. Each lane draws from its own
	// substream, so this order is unobservable.
	fidx = fidx[:0]
	fids = fids[:0]
	for _, li := range live {
		ln := &lanes[li]
		w, pick, err := e.backStep(ln.node, ln.nbr, &ln.rng)
		if err != nil {
			vs.cands[ln.ci].Err = err
			ln.step = -1 // poisoned; dropped in phase 4
			continue
		}
		e.StepsTaken++
		vs.cands[ln.ci].Steps++
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
	// already in hand. MHRW's stay probability, for a self-loop pick,
	// reads the degree of every neighbor: fetch those lists for all such
	// lanes in one batch.
	tidx := vs.tidx[:0]
	tdu := vs.tdu[:0]
	tdv := vs.tdv[:0]
	stay := vs.stay[:0]
	fk := 0
	for _, li := range live {
		ln := &lanes[li]
		if ln.step < 0 {
			continue
		}
		if ln.w == ln.node && e.probKind == walk.EdgeProbMHRW {
			stay = append(stay, ln.nbr...)
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
	e.Client.Prefetch(stay)
	vs.stay = stay[:0]

	// Phase 4b — apply transitions and advance, in lane order. A lane that
	// completes its candidate's wave may start the next top-up wave in the
	// lane slots its siblings (all done) held.
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
			out = vs.laneDone(ln, 0, out)
			continue
		}
		ln.weight *= trans / ln.pick
		ln.node = ln.w
		ln.step--
		if ln.step == 0 {
			out = e.finishLane(ln, out)
			continue
		}
		out = append(out, li)
	}
	vs.live = live[:0]
	return out
}

// finishLane completes a lane whose walk ran out of steps: the scalar
// epilogue of EstimateOnce (crawl row 0, else the start check).
func (e *Estimator) finishLane(ln *bwLane, out []int32) []int32 {
	if e.Crawl != nil {
		if p, ok := e.Crawl.Lookup(ln.node, 0); ok {
			return e.vec.laneDone(ln, ln.weight*p, out)
		}
	}
	if ln.node == e.Start {
		return e.vec.laneDone(ln, ln.weight, out)
	}
	return e.vec.laneDone(ln, 0, out)
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
